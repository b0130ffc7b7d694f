"""Serving admission under contention: more sessions than slots.

The ledger's served workloads never wait for a slot (``served_mixed_g32``
puts 2 sessions on 2 slots, ``served_hot_g32`` has 1).  This script runs
``served_mixed_g32`` — the same statement universe, the same one INSERT
per nine reads, the same ``QueryServer(workers=2, result_cache=False)`` —
from ``--sessions`` clients (default 4), through the ledger's own
measurement (fresh set-up, whole blocks, one pinned CPU, process CPU time
at the nominal machine speed), and prints one JSON line: statements/s,
p50 statement ms, CPU ms per statement, failed ops, the share of
statements that waited over 0.1 ms for a slot and the mean wait.

Run::

    python3 benchmarks/bench_serving_admission.py [--root TREE] [--seconds 5]

``--root`` is the checkout whose ``src`` is measured (default: this one);
its ``benchmarks/ledger`` supplies the workload, so two checkouts with the
same ledger compare run for run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1994)
    args = parser.parse_args(argv)
    sys.path[:0] = [f"{args.root}/benchmarks/ledger", f"{args.root}/src"]
    import run
    from workloads import ServedMixedG32

    from repro.obs import metrics

    class Contended(ServedMixedG32):
        clients = args.sessions

    run.pin_to_one_cpu()
    with contextlib.redirect_stdout(io.StringIO()):
        values, records, problems = run.untraced(
            Contended, args.seed, False, args.seconds, 1)
    waits = metrics.histogram("server.wait_seconds").export()
    print(json.dumps({
        "root": args.root,
        "sessions": args.sessions,
        "statements": len(records),
        "failed": sum(not op.ok for op in records) + len(problems),
        "ops_per_s": round(values["ops_per_s"], 1),
        "op_ms_p50": round(values["op_ms_p50"], 4),
        "cpu_ms_per_op": round(values["cpu_ms_per_op"], 4),
        "wait_over_0.1ms_share": round(
            1 - waits["buckets"]["0.0001"] / waits["count"]
            if waits["count"] else 0.0, 3),
        "wait_ms_mean": round(waits["mean"] * 1e3, 4),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
