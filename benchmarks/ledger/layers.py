"""Per-layer metrics of a traced run, derived from spans and counters.

Times are milliseconds per op (total over the traced ops / ops) unless
the name says otherwise.  ``<layer>.self_ms`` are self times: over all
layers they add up, with ``unattributed_ms``, to the op's wall time.  The
other ``*_ms`` are inclusive span times of one kind of call, so they may
overlap (``regions.decode_ms`` contains ``compression.decode_ms``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LAYER_OF, LAYERS, self_times

PAPER_PARTS = ("q1", "q2", "q3", "q4", "q5", "q6")
TABLE4_PARTS = ("t4_hilbert", "t4_z", "t4_octant")

#: inclusive time per op of these span names
INCLUSIVE_MS = {
    "medical.load_raw_ms": ("medical.load_raw",),
    "medical.warp_ms": ("medical.warp",),
    "db.sql.parse_ms": ("db.sql.parse",),
    "db.sql.unparse_ms": ("db.sql.unparse",),
    "db.semantic.check_ms": ("db.semantic.check",),
    "db.planner.plan_ms": ("db.planner.plan",),
    "db.functions.udf_ms": ("db.functions.call",),
    "storage.lfm.read_ms": ("storage.lfm.read", "storage.lfm.read_ranges"),
    "storage.lfm.create_ms": ("storage.lfm.create",),
    "storage.buddy.alloc_ms": ("storage.buddy.alloc",),
    "regions.decode_ms": ("regions.decode",),
    "regions.encode_ms": ("regions.encode",),
    "regions.sweep_ms": ("regions.sweep",),
    "volumes.data_region_ms": ("volumes.data_region",),
    "volumes.banding_ms": ("volumes.banding",),
    "curves.transform_ms": ("curves.transform",),
    "compression.encode_ms": ("compression.encode",),
    "compression.decode_ms": ("compression.decode",),
    "net.rpc_ms": ("net.rpc.send",),
    "viz.import_ms": ("viz.import",),
    "viz.render_ms": ("viz.render",),
    "server.result_cache.get_ms": ("server.result_cache.get",),
}
#: calls per op of these span names
CALLS = {
    "db.sql.parse_calls": ("db.sql.parse",),
    "db.semantic.check_calls": ("db.semantic.check",),
    "db.planner.plan_calls": ("db.planner.plan",),
    "db.functions.udf_calls": ("db.functions.call",),
    "storage.lfm.read_calls": ("storage.lfm.read", "storage.lfm.read_ranges"),
}


def units() -> dict[str, str]:
    """Every per-layer metric with its unit (what BENCHMARK.json declares)."""
    out = {f"core.{part}_ms_p50": "ms" for part in PAPER_PARTS + TABLE4_PARTS}
    out.update({f"{layer}.self_ms": "ms" for layer in LAYERS})
    out.update({name: "ms" for name in INCLUSIVE_MS})
    out.update({name: "count" for name in CALLS})
    out.update({
        "unattributed_ms": "ms",
        "trace_overhead_share": "ratio",
        "probe_ms": "ms",
        "op_ms_p95": "ms",
        "write_ms_p50": "ms",
        "failed_share": "ratio",
        "journal_bytes_per_op": "bytes",
        "db.executor.rows_scanned_per_row_output": "ratio",
        "db.mvcc.publish_ms_per_write": "ms",
        "db.mvcc.publish_ms_last_over_first": "ratio",
        "storage.lfm.pages_read": "count",
        "storage.lfm.allocated_per_stored_byte": "ratio",
        "storage.wal.commit_ms_per_write": "ms",
        "storage.wal.journal_bytes_per_commit": "bytes",
        "storage.wal.flushes_per_commit": "ratio",
        "storage.wal.grouped_txn_share": "ratio",
        "regions.runs_processed": "count",
        "volumes.voxels_extracted": "count",
        "curves.points": "count",
        "compression.bytes_per_run": "bytes",
        "net.messages": "count",
        "server.overhead_ms": "ms",
        "server.pool_wait_ms_p50": "ms",
        "server.result_cache.hit_rate": "ratio",
        "server.result_cache.invalidations_per_write": "ratio",
        "server.stmt_memo.hit_rate": "ratio",
        "obs.cost_us_per_op": "us",
    })
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tracer, traced, untraced, delta: dict, lfm,
                  obs_cost_us: float, probe_s: float) -> dict[str, float]:
    """All per-layer values.  ``traced``/``untraced`` are the two phases'
    ``run.Op`` records; ``delta`` is the change of ``Workload.counters()``
    over the traced phase's ops."""
    spans = tracer.spans
    ops = len(traced)
    self_of = self_times(spans)
    total = defaultdict(float)   # span name -> inclusive seconds
    calls = defaultdict(int)
    self_total = defaultdict(float)  # span name -> self seconds
    by_op = defaultdict(list)    # op id -> spans of the part-timed names
    for span in spans:
        if span.op is None:
            continue  # untimed work between blocks
        name = span.name
        total[name] += span.seconds
        calls[name] += 1
        self_total[name] += self_of[span.id]
        if name in ("core.query", "core.multi_study_band", "db.mvcc.publish"):
            by_op[span.op].append(span)

    def per_op(seconds: float) -> float:
        return seconds / ops * 1e3

    layer_self = defaultdict(float)
    for name, seconds in self_total.items():
        layer_self[LAYER_OF[name]] += seconds
    out = {f"{layer}.self_ms": per_op(layer_self[layer]) for layer in LAYERS}
    out["unattributed_ms"] = per_op(layer_self[None])
    for metric, names in INCLUSIVE_MS.items():
        out[metric] = per_op(sum(total[n] for n in names))
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names) / ops

    # the n-th core.query of a round is Q(n+1); Table 4 rows likewise
    parts = defaultdict(list)
    for op_spans in by_op.values():
        for name, labels in (("core.query", PAPER_PARTS),
                             ("core.multi_study_band", TABLE4_PARTS)):
            ordered = sorted((s for s in op_spans if s.name == name),
                             key=lambda s: s.start)
            for label, span in zip(labels, ordered):
                parts[label].append(span.seconds)
    for label in PAPER_PARTS + TABLE4_PARTS:
        out[f"core.{label}_ms_p50"] = _median_ms(parts[label])

    # growth of the MVCC publish inside one block (ingest: 1st vs last load)
    first = min(op.block for op in traced)
    first_block = {op.span for op in traced
                   if op.client == 0 and op.block == first}
    publishes = sorted((s for op in first_block for s in by_op.get(op, ())
                        if s.name == "db.mvcc.publish"), key=lambda s: s.start)
    tenth = max(1, len(publishes) // 10)
    out["db.mvcc.publish_ms_last_over_first"] = _ratio(
        sum(s.seconds for s in publishes[-tenth:]),
        sum(s.seconds for s in publishes[:tenth]))
    out["db.mvcc.publish_ms_per_write"] = _ratio(
        total["db.mvcc.publish"], calls["db.mvcc.publish"]) * 1e3

    counts = tracer.counts
    out["db.executor.rows_scanned_per_row_output"] = _ratio(
        counts["rows_scanned"], counts["rows_output"])
    out["regions.runs_processed"] = counts["runs_processed"] / ops
    out["volumes.voxels_extracted"] = counts["voxels_extracted"] / ops
    out["curves.points"] = counts["curve_points"] / ops
    out["compression.bytes_per_run"] = _ratio(
        counts["codec_bytes"], counts["codec_runs"])
    out["net.messages"] = counts["rpc_messages"] / ops

    commits = delta["wal.commits"]
    out["storage.lfm.pages_read"] = delta["lfm_pages_read"] / ops
    out["storage.lfm.allocated_per_stored_byte"] = _ratio(
        lfm.allocated_bytes, lfm.stored_bytes)
    out["storage.wal.commit_ms_per_write"] = _ratio(
        self_total["storage.wal.transaction"], commits) * 1e3
    out["storage.wal.journal_bytes_per_commit"] = _ratio(
        delta["wal.bytes_journaled"], commits)
    out["storage.wal.flushes_per_commit"] = _ratio(
        delta["wal.flushes"], commits)
    out["storage.wal.grouped_txn_share"] = _ratio(
        delta["wal.grouped_txns"], commits)
    out["journal_bytes_per_op"] = delta["wal.bytes_journaled"] / ops

    writes = sum(1 for op in traced if op.kind == "write")
    out["server.overhead_ms"] = per_op(
        total["server.session.execute"] - total["db.database.execute"]
    ) if total["server.session.execute"] else 0.0
    out["server.pool_wait_ms_p50"] = _median_ms(
        [s.seconds for s in spans
         if s.name == "server.pool.wait" and s.op is not None])
    for metric, prefix in (("server.result_cache.hit_rate",
                            "server.result_cache"),
                           ("server.stmt_memo.hit_rate", "server.stmt_memo")):
        hits = delta[f"{prefix}.hits"]
        out[metric] = _ratio(hits, hits + delta[f"{prefix}.misses"])
    out["server.result_cache.invalidations_per_write"] = _ratio(
        delta["server.result_cache.invalidations"], writes)
    out["obs.cost_us_per_op"] = obs_cost_us
    # the traced run's times are raw wall times; the median speed tick taken
    # beside them says how this run's machine compared (see probe.py)
    out["probe_ms"] = probe_s * 1e3

    # from the untraced slice of the same run, so tracing does not inflate them
    plain = sorted(op.seconds for op in untraced)
    out["op_ms_p95"] = plain[int(0.95 * (len(plain) - 1))] * 1e3  # nearest rank
    out["write_ms_p50"] = _median_ms(
        [op.seconds for op in untraced if op.kind in ("write", "load")])
    out["failed_share"] = _ratio(
        sum(1 for op in traced + untraced if not op.ok),
        len(traced + untraced))
    out["trace_overhead_share"] = (
        statistics.mean(op.seconds for op in traced)
        / statistics.mean(op.seconds for op in untraced) - 1.0)
    return out
