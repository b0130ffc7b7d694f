"""Cluster legs: caller-thread router vs one node.

Every shard of a ``repro.cluster`` cluster lives in one process under one
GIL.  This script measures what routing a statement costs against one
node (a session straight on a single-node server, no router) as the
floor.  It is outside the frozen ledger on purpose: no ledger workload
routes through a cluster.

Setups, all on this tree:

* ``caller``  — the shipped :class:`~repro.cluster.router.ShardRouter`:
  each leg runs on the caller's thread inside a shard admission slot;
* ``node``    — the same statements on a one-node server session.

Workloads (a round is replayed for ``--seconds`` per trial):

* ``paper`` — study-partitioned paper round: Table 3's Q1–Q6 for every
  study, as the SQL the medical layer issues (metadata + data query,
  12 statements a study), routed; each prunes to the study's owner;
* ``mix``   — the ``python -m repro.cluster`` statement mix: one pruned
  read per study plus five broadcast/merged reads.

Result caches are off.  Each cell gets ``--pairs`` trials per setup in
alternating order.  Reported per trial: ops/s (statements), p50/p95
statement latency, process CPU ms per statement and LFM pages read per
statement.

Run::

    PYTHONPATH=src python benchmarks/bench_cluster_legs.py --pairs 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from types import SimpleNamespace

from repro.bench.workloads import scaled_box
from repro.cluster import build_demo_cluster
from repro.cluster.__main__ import _workload
from repro.medical.server import MedicalServer, QuerySpec

SETUPS = ("caller", "node")


class _Recording:
    """A database stand-in that records every ``(sql, params)`` it runs."""

    def __init__(self, db):
        self.db, self.calls = db, []

    def execute(self, sql, params=None):
        self.calls.append((sql, list(params or [])))
        return self.db.execute(sql, params)


def paper_round(node_shard, study_ids, grid_side):
    """The medical layer's SQL for Table 3's Q1–Q6 on every study."""
    lower, upper = scaled_box(grid_side)
    recording = _Recording(node_shard.db)
    medical = MedicalServer(recording)
    for sid in study_ids:
        for spec in (
            QuerySpec(study_id=sid),
            QuerySpec(study_id=sid, box=(lower, upper)),
            QuerySpec(study_id=sid, structures=("ntal",)),
            QuerySpec(study_id=sid, structures=("ntal1",)),
            QuerySpec(study_id=sid, intensity_range=(224, 255)),
            QuerySpec(study_id=sid, structures=("ntal1",),
                      intensity_range=(224, 255)),
        ):
            medical.execute(spec)
    return recording.calls


def mix_round(study_ids):
    """The statements ``python -m repro.cluster`` routes, in its order."""
    calls = []
    _workload(SimpleNamespace(
        study_ids=study_ids,
        execute=lambda sql, params=None: calls.append((sql, params or []))))
    return calls


def trial(execute, lfms, statements, seconds):
    """Replay ``statements`` for ``seconds``; one trial's metrics."""
    latencies = []
    pages0 = sum(lfm.stats.pages_read for lfm in lfms)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while time.perf_counter() - wall0 < seconds:
        for sql, params in statements:
            t0 = time.perf_counter()
            execute(sql, params)
            latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    ops = len(latencies)
    latencies.sort()
    return {
        "ops": ops,
        "ops_per_s": ops / wall,
        "op_ms_p50": latencies[ops // 2] * 1e3,
        "op_ms_p95": latencies[min(ops - 1, int(ops * 0.95))] * 1e3,
        "cpu_ms_per_op": cpu * 1e3 / ops,
        "lfm_pages_per_op":
            (sum(lfm.stats.pages_read for lfm in lfms) - pages0) / ops,
    }


def _no_cache(cluster):
    for shard in cluster.shards:
        shard.server.cache = None
    return cluster


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--grid", type=int, default=32)
    parser.add_argument("--pet", type=int, default=5)
    parser.add_argument("--mri", type=int, default=3)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=1.5)
    parser.add_argument("--out", help="write every trial here as JSON lines")
    args = parser.parse_args(argv)
    kw = dict(grid_side=args.grid, n_pet=args.pet, n_mri=args.mri)

    node_cluster = _no_cache(build_demo_cluster(n_shards=1, **kw))
    node = node_cluster.shards[0]
    workloads = {
        "paper": paper_round(node, node_cluster.study_ids, args.grid),
        "mix": mix_round(node_cluster.study_ids),
    }
    rows = []
    try:
        for n in args.shards:
            with _no_cache(build_demo_cluster(n_shards=n, **kw)) as cluster:
                lfms = [shard.lfm for shard in cluster.shards]
                runners = {
                    "caller": (cluster.router.execute, lfms),
                    "node": (node.execute, [node.lfm]),
                }
                for name, statements in workloads.items():
                    # Warm-up, and the answers must agree everywhere.
                    answers = {
                        setup: [execute(sql, params).rows
                                for sql, params in statements]
                        for setup, (execute, _) in runners.items()
                    }
                    assert answers["caller"] == answers["node"], (name, n)
                    for pair in range(args.pairs):
                        order = SETUPS if pair % 2 == 0 else SETUPS[::-1]
                        for setup in order:
                            execute, stats = runners[setup]
                            row = {"workload": name, "shards": n,
                                   "setup": setup, "trial": pair,
                                   **trial(execute, stats, statements,
                                           args.seconds)}
                            rows.append(row)
                            print(json.dumps({k: (round(v, 3)
                                                  if isinstance(v, float)
                                                  else v)
                                              for k, v in row.items()}),
                                  flush=True)
    finally:
        node_cluster.close()
    if args.out:
        with open(args.out, "w") as out:
            for row in rows:
                out.write(json.dumps(row) + "\n")
    _summary(rows)
    return 0


def _summary(rows) -> None:
    """Median (min–max) per cell."""
    print("\n| workload | shards | setup | ops/s | p50 ms | p95 ms "
          "| CPU ms/op | pages/op |")
    print("|---|---|---|---|---|---|---|---|")
    cells = {}
    for row in rows:
        cells.setdefault((row["workload"], row["shards"], row["setup"]),
                         []).append(row)
    for (workload, shards, setup), runs in cells.items():
        def cell(key, digits=2):
            values = [r[key] for r in runs]
            return (f"{statistics.median(values):.{digits}f} "
                    f"({min(values):.{digits}f}–{max(values):.{digits}f})")
        print(f"| {workload} | {shards} | {setup} | {cell('ops_per_s', 0)} "
              f"| {cell('op_ms_p50', 3)} | {cell('op_ms_p95', 3)} "
              f"| {cell('cpu_ms_per_op', 3)} | {cell('lfm_pages_per_op')} |")


if __name__ == "__main__":
    raise SystemExit(main())
