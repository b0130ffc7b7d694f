"""``run.py compare BEFORE AFTER``: two sets of result files, side by side.

Each argument is a JSONL file written with ``--out`` (or a directory of
them).  For every workload x metric it prints each side's median and
quartiles and, for the end-to-end metrics, a verdict against the bound
fixed in ``BENCHMARK.json``:

* ``within bound`` - AFTER's median is not worse than BEFORE's by more
  than the bound;
* ``regressed`` - it is;
* ``unresolved`` - BEFORE's own spread (quartile distance / median) is
  wider than the bound, unless every AFTER run beats every BEFORE run.

Comparing two sets of runs of one commit is the repeatability check.
Exit status 1 when anything regressed or failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str):
    """(workload, trace) -> metric -> values, and failed-op totals."""
    source = Path(path)
    files = sorted(source.glob("*.jsonl")) if source.is_dir() else [source]
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for file in files:
        for line in file.read_text().splitlines():
            run = json.loads(line)
            key = (run["workload"], run["trace"])
            failed[key] += run["failed"]
            for name, metric in run["metrics"].items():
                values[key][name].append(metric["value"])
    return values, failed


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> str:
    q1, median, q3 = summary(before)
    if not median:
        return "within bound" if summary(after)[1] == median else "regressed"
    if (q3 - q1) / abs(median) > bound:
        clean_win = (max(after) < min(before) if better == "lower"
                     else min(after) > max(before))
        return "improved" if clean_win else "unresolved"
    worse_by = (summary(after)[1] - median) / abs(median)
    if better == "higher":
        worse_by = -worse_by
    return "regressed" if worse_by > bound else "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    (before, failed_before), (after, failed_after) = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}; "
              f"{failed_before[key]} / {failed_after[key]} failed ops) ==")
        print(f"{'metric':44s} {'before q1 / median / q3':>36s} "
              f"{'after q1 / median / q3':>36s}  runs  verdict")
        if failed_after[key] > failed_before[key]:
            status = 1
        for name in before[key]:
            if name not in after[key]:
                continue
            b, a = before[key][name], after[key][name]
            text = "-"
            if name in bounds:
                text = verdict(b, a, bounds[name]["better"], bounds[name]["bound"])
                if text == "regressed":
                    status = 1
            fmt = lambda s: " / ".join(f"{v:.4g}" for v in s)
            print(f"{name:44s} {fmt(summary(b)):>36s} {fmt(summary(a)):>36s}  "
                  f"{len(b)}/{len(a)}  {text}")
    return status
