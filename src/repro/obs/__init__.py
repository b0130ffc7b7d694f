"""Observability layer: one record per statement, one metrics registry.

Every view is a sink of those two; all of it is read-only with respect to
the paper-facing I/O accounting:

* :mod:`repro.obs.recorder` — the always-on flight recorder: one
  :class:`~repro.obs.recorder.QueryRecord` per statement, carrying where
  its wall time went (exclusive phases named after the benchmark ledger's
  layers, summing to the wall), a bounded ring of them, and
  slow/error/recovery incident dumps;
* :mod:`repro.obs.digest` — per-statement-class accounting (calls, I/O,
  latency, mean phase split) keyed by the digest each record carries;
* :mod:`repro.obs.qlog` — the opt-in JSON-lines query log of the records;
* :mod:`repro.obs.metrics` — the process-wide registry of counters, gauges
  and histograms;
* :mod:`repro.obs.promtext` — Prometheus text exposition of a registry,
  and a validating parser for it.

EXPLAIN ANALYZE is a sink of the record too: its total line prints the
owning record's phases, charged up to that moment
(:func:`repro.obs.recorder.charged`).

This package sits below every instrumented layer (storage imports it), so
it must stay import-light: nothing here pulls in ``repro.storage`` or
``repro.db`` at module level.
"""

from __future__ import annotations

from repro.obs import digest, metrics, promtext, qlog, recorder

__all__ = ["digest", "metrics", "promtext", "qlog", "recorder"]
