"""Observability layer: spans, metrics, profiles, recorder, query log.

Cooperating pieces, all read-only with respect to the paper-facing I/O
accounting:

* :mod:`repro.obs.trace` — hierarchical spans (wall time, simulated
  :class:`~repro.net.costmodel.CostModel1994` time, ``IOStats`` deltas)
  with cross-thread trace-context propagation, off by default and
  zero-overhead while disabled;
* :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges,
  and histograms (with percentile estimates) plus text/JSON exporters;
* :mod:`repro.obs.promtext` — Prometheus text exposition of the registry
  and a small validating parser for it;
* :mod:`repro.obs.explain` — the per-operator profile EXPLAIN ANALYZE
  fills and the renderer that turns it into an annotated plan tree;
* :mod:`repro.obs.recorder` — the always-on flight recorder: a bounded
  ring of completed-statement summaries with slow/error/recovery
  incident dumps;
* :mod:`repro.obs.qlog` — the opt-in JSON-lines structured query log fed
  by the recorder;
* :mod:`repro.obs.federation` — per-node registry scrapes merged into one
  cluster-wide Prometheus page (counters summed, gauges labeled per node,
  histograms bucket-merged);
* :mod:`repro.obs.export` — completed span trees as Chrome
  ``trace_event`` JSON (one track per shard leg) and compact JSONL;
* :mod:`repro.obs.digest` — pg_stat_statements-style statement digests
  (per-class accounting keyed by the fingerprint each record carries);
* :mod:`repro.obs.slo` — declarative objectives with multi-window
  burn-rate alerting over any snapshot source.

This package sits below every instrumented layer (storage imports it), so
it must stay import-light: nothing here pulls in ``repro.storage`` or
``repro.db`` at module level.
"""

from __future__ import annotations

from repro.obs import digest, export, federation, metrics, promtext, qlog, recorder, slo, trace
from repro.obs.explain import OperatorStats, PlanProfile, render_analyzed_plan

__all__ = [
    "digest",
    "export",
    "federation",
    "metrics",
    "promtext",
    "qlog",
    "recorder",
    "slo",
    "trace",
    "OperatorStats",
    "PlanProfile",
    "render_analyzed_plan",
]
