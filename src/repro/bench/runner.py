"""The bench runner behind ``python -m repro.bench``.

Builds a demo system, runs the Table 3 and Table 4 workloads from
:mod:`repro.bench.workloads`, and writes ``BENCH_table3.json`` /
``BENCH_table4.json`` — the machine-readable perf-trajectory points the
repository's CI archives per commit.

Each document follows one schema (validated by :func:`validate_bench_json`):

.. code-block:: text

    {
      "schema_version": 1,
      "workload": "table3" | "table4",
      "generated": {"git_rev", "grid_side", "paper_grid_side",
                    "seed", "n_pet", "n_mri"},
      "columns": [...measured column names...],
      "rows": {<row key>: {"label", "measured": [...], "paper": [...]}},
      "metrics": <repro.obs.metrics snapshot>
    }

``measured`` columns align with ``columns``; ``paper`` holds the reference
values from Tables 3/4 (measured at grid 128 on the 1994 testbed, so
compare shapes, not magnitudes, at reduced grids).
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

from repro.bench.harness import PAPER_TABLE3, PAPER_TABLE4
from repro.bench.workloads import (
    TABLE3_COLUMNS,
    TABLE4_COLUMNS,
    TABLE4_ENCODINGS,
    run_table3,
    run_table4,
    table3_measured,
    table4_measured,
)
from repro.errors import ValidationError

__all__ = ["main", "run_benches", "measure_recorder_overhead",
           "measure_observability_overhead",
           "validate_bench_json", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
PAPER_GRID_SIDE = 128


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _document(workload: str, generated: dict, columns, rows: dict) -> dict:
    from repro.obs import metrics

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "generated": generated,
        "columns": list(columns),
        "rows": rows,
        "metrics": metrics.snapshot(),
    }


def validate_bench_json(doc: dict) -> None:
    """Raise :class:`ValidationError` unless ``doc`` fits the BENCH schema."""
    if not isinstance(doc, dict):
        raise ValidationError("BENCH document must be a JSON object")
    for key in ("schema_version", "workload", "generated", "columns", "rows", "metrics"):
        if key not in doc:
            raise ValidationError(f"BENCH document lacks {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported BENCH schema version {doc['schema_version']!r}"
        )
    if doc["workload"] not in (
        "table3", "table4", "concurrency", "ablation_spatial_index",
    ):
        raise ValidationError(f"unknown workload {doc['workload']!r}")
    for key in ("grid_side", "paper_grid_side", "seed", "n_pet", "n_mri"):
        if key not in doc["generated"]:
            raise ValidationError(f"BENCH 'generated' lacks {key!r}")
    columns = doc["columns"]
    if not doc["rows"]:
        raise ValidationError("BENCH document has no rows")
    for key, row in doc["rows"].items():
        for part in ("label", "measured", "paper"):
            if part not in row:
                raise ValidationError(f"BENCH row {key!r} lacks {part!r}")
        if len(row["measured"]) != len(columns):
            raise ValidationError(
                f"BENCH row {key!r} has {len(row['measured'])} measured values "
                f"for {len(columns)} columns"
            )
    for kind in ("counters", "gauges", "histograms"):
        if kind not in doc["metrics"]:
            raise ValidationError(f"BENCH metrics snapshot lacks {kind!r}")


def run_benches(grid_side: int = 32, n_pet: int = 5, n_mri: int = 3,
                seed: int = 1994, out_dir: str | Path = ".",
                wal: bool = False, concurrency: bool = False,
                session_counts=(1, 4, 16), cluster: bool = False,
                shard_counts=(1, 2, 4)) -> list[Path]:
    """Build the system, run both workloads, write the BENCH JSONs.

    With ``wal`` the demo system runs through the write-ahead log — the
    measured LFM page counts must not move (journal I/O is accounted
    separately), which makes this flag a cheap durability regression probe.

    With ``concurrency`` the multi-session serving workload
    (:mod:`repro.bench.concurrency`) also runs, after the tables, and
    writes ``BENCH_concurrency.json`` with throughput at each session
    count in ``session_counts``.

    With ``cluster`` the shard-scaling trials (:mod:`repro.bench.cluster`)
    run too, adding ``shards-N`` rows to the same document — same column
    shape, throughput at each shard count over simulated per-shard disk
    heads; the CI gate requires ``shards-4`` to reach at least twice the
    ``shards-1`` throughput.
    """
    from repro.core.system import QbismSystem
    from repro.obs import metrics

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.reset()  # each run's snapshot covers exactly its own workloads
    system = QbismSystem.build_demo(
        seed=seed, grid_side=grid_side, n_pet=n_pet, n_mri=n_mri,
        band_encodings=tuple(TABLE4_ENCODINGS), wal=wal,
    )
    generated = {
        "git_rev": _git_rev(),
        "grid_side": grid_side,
        "paper_grid_side": PAPER_GRID_SIDE,
        "seed": seed,
        "n_pet": n_pet,
        "n_mri": n_mri,
        "wal": wal,
    }

    outcomes = run_table3(system)
    table3_rows = {
        key: {
            "label": outcome.timing.label,
            "measured": list(table3_measured(outcome.timing)),
            "paper": list(PAPER_TABLE3[key]),
        }
        for key, outcome in outcomes.items()
    }
    table3_doc = _document("table3", generated, TABLE3_COLUMNS, table3_rows)

    results = run_table4(system)
    table4_rows = {
        encoding: {
            "label": TABLE4_ENCODINGS[encoding],
            "measured": list(table4_measured(row)),
            "paper": list(PAPER_TABLE4[TABLE4_ENCODINGS[encoding]]),
        }
        for encoding, (_, row) in results.items()
    }
    table4_doc = _document("table4", generated, TABLE4_COLUMNS, table4_rows)

    documents = [("BENCH_table3.json", table3_doc),
                 ("BENCH_table4.json", table4_doc)]

    if concurrency or cluster:
        from repro.bench.concurrency import CONCURRENCY_COLUMNS, run_concurrency

        # The serving trials get their own metrics window so the
        # table3/table4 snapshots (already captured above) stay scoped
        # to the paper workloads and this document scopes to serving.
        metrics.reset()
        conc_rows: dict = {}
        if concurrency:
            conc_rows = run_concurrency(
                system, session_counts=session_counts, seed=seed,
            )
        if cluster:
            from repro.bench.cluster import run_shard_scaling

            # Fresh clusters per shard count; same document, rows keyed
            # shards-N with speedup_vs_1 computed against shards-1.
            conc_rows.update(run_shard_scaling(
                shard_counts=shard_counts, grid_side=grid_side, seed=seed,
            ))
        documents.append((
            "BENCH_concurrency.json",
            _document("concurrency", generated, CONCURRENCY_COLUMNS, conc_rows),
        ))

    written = []
    for name, doc in documents:
        validate_bench_json(doc)
        path = out_dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    return written


def measure_recorder_overhead(system, repeats: int = 5) -> dict:
    """Wall-time cost of the flight recorder on one serial pool pass.

    Runs the serving query pool ``repeats`` times with the recorder off
    and again with it on, taking the **minimum** wall time of each side
    (min-of-N is the standard noise filter for CI wall-clock gates), and
    returns ``{"off": s, "on": s, "overhead": ratio}`` where ``overhead``
    is the fractional slowdown recording adds.  The CI bench job asserts
    it stays within the always-on budget (<= 5%).
    """
    import time

    from repro.bench.concurrency import build_query_pool
    from repro.obs import recorder

    pool = build_query_pool(system.db)

    def one_pass() -> float:
        start = time.perf_counter()
        for sql in pool:
            system.db.execute(sql)
        return time.perf_counter() - start

    for sql in pool:  # warm caches outside both timings
        system.db.execute(sql)
    best: dict[str, float] = {}
    try:
        for state in ("off", "on"):
            if state == "on":
                recorder.enable()
            else:
                recorder.disable()
            best[state] = min(one_pass() for _ in range(max(1, repeats)))
    finally:
        recorder.enable()
    overhead = (best["on"] / best["off"] - 1.0) if best["off"] > 0 else 0.0
    return {"off": best["off"], "on": best["on"], "overhead": overhead}


def measure_observability_overhead(system, repeats: int = 3,
                                   sessions: int = 16) -> dict:
    """Wall-time cost of digests + per-node scoping + federation scrape.

    Runs a ``sessions``-session read-mostly pool pass through a fresh
    :class:`~repro.server.QueryServer` twice: baseline (digests off, no
    per-node registry) and instrumented (digests on, node-labeled server
    teeing into its node registry, plus one federated scrape + parse at
    the end of the pass — the steady-state scrape cost amortized into
    the window).  Min-of-N each side; returns ``{"off", "on",
    "overhead"}`` like :func:`measure_recorder_overhead`.  The CI bench
    job asserts the always-on budget (<= 5%).
    """
    import threading
    import time

    from repro.bench.concurrency import build_query_pool
    from repro.obs import digest, federation, promtext
    from repro.server import QueryServer

    pool = build_query_pool(system.db)
    for sql in pool:  # warm the page cache outside both timings
        system.db.execute(sql)

    def one_pass(tag: str, instrumented: bool) -> float:
        labels = {"shard": "0", "role": "primary"} if instrumented else None
        server = QueryServer(system.db, workers=min(16, sessions),
                             node_labels=labels)

        def client(k: int) -> None:
            with server.connect(name=f"obs-bench-{tag}-{k}") as session:
                for sql in pool:
                    session.execute(sql)

        threads = [
            threading.Thread(target=client, args=(k,),
                             name=f"obs-bench-{tag}-{k}")
            for k in range(sessions)
        ]
        try:
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if instrumented:
                target = federation.in_process_target(
                    "shard-0", server.node_registry, shard="0", role="primary",
                )
                promtext.parse(federation.federate([target]))
            return time.perf_counter() - start
        finally:
            server.close()

    best: dict[str, float] = {}
    try:
        for state in ("off", "on"):
            if state == "on":
                digest.enable()
            else:
                digest.disable()
            best[state] = min(
                one_pass(f"{state}-{i}", instrumented=state == "on")
                for i in range(max(1, repeats))
            )
    finally:
        digest.enable()
    overhead = (best["on"] / best["off"] - 1.0) if best["off"] > 0 else 0.0
    return {"off": best["off"], "on": best["on"], "overhead": overhead}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the Table 3/4 workloads and write BENCH_*.json",
    )
    parser.add_argument("--grid", type=int, default=32,
                        help="atlas grid side (paper: 128; default: 32)")
    parser.add_argument("--pet", type=int, default=5,
                        help="number of synthetic PET studies (default: 5)")
    parser.add_argument("--mri", type=int, default=3,
                        help="number of synthetic MRI studies (default: 3)")
    parser.add_argument("--seed", type=int, default=1994,
                        help="phantom seed (default: 1994)")
    parser.add_argument("--out", default=".",
                        help="output directory for BENCH_*.json (default: .)")
    parser.add_argument("--wal", action="store_true",
                        help="run the workloads through the write-ahead log "
                             "(LFM page counts must be unchanged)")
    parser.add_argument("--concurrency", action="store_true",
                        help="also run the multi-session serving workload "
                             "and write BENCH_concurrency.json")
    parser.add_argument("--sessions", default="1,4,16",
                        help="comma-separated session counts for "
                             "--concurrency (default: 1,4,16)")
    parser.add_argument("--cluster", action="store_true",
                        help="also run the shard-scaling trials and add "
                             "shards-N rows to BENCH_concurrency.json")
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="comma-separated shard counts for --cluster "
                             "(default: 1,2,4)")
    args = parser.parse_args(argv)
    try:
        session_counts = tuple(
            int(part) for part in args.sessions.split(",") if part.strip()
        )
    except ValueError:
        parser.error(f"--sessions must be comma-separated ints, "
                     f"got {args.sessions!r}")
    if not session_counts or any(n < 1 for n in session_counts):
        parser.error("--sessions needs at least one positive count")
    try:
        shard_counts = tuple(
            int(part) for part in args.shard_counts.split(",") if part.strip()
        )
    except ValueError:
        parser.error(f"--shard-counts must be comma-separated ints, "
                     f"got {args.shard_counts!r}")
    if not shard_counts or any(n < 1 for n in shard_counts):
        parser.error("--shard-counts needs at least one positive count")
    written = run_benches(
        grid_side=args.grid, n_pet=args.pet, n_mri=args.mri,
        seed=args.seed, out_dir=args.out, wal=args.wal,
        concurrency=args.concurrency, session_counts=session_counts,
        cluster=args.cluster, shard_counts=shard_counts,
    )
    for path in written:
        print(f"wrote {path}")
    return 0
