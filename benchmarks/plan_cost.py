"""What planning costs an ad hoc statement, by the number of FROM tables.

Runs the grid-32 statement universe of the ledger's ``*_g32`` workloads
(the seed-1994 demo database, three band encodings) through
``Database.execute`` without parameters, so every statement is parsed,
checked and planned afresh, and reads each statement's flight-recorder
record: ``QueryRecord.phases["db.planner"]`` and ``wall_seconds``.  One
warm-up pass, then :data:`ROUNDS` passes; it prints, per FROM-table count,
the statements, the median ``db.planner`` µs, the median wall µs and the
planner's share of the group's summed wall time.  As in the ledger, the
process is pinned to one CPU and every time is converted to the
machine's nominal speed by the ledger's speed probe (``probe.py``): each
statement's two times are scaled by the probe's rate over it.

Run::

    python3 benchmarks/plan_cost.py [--root TREE]

``--root`` is the checkout whose ``src`` is measured (default: this one);
its ``benchmarks/ledger`` supplies the database and the universe, so two
checkouts with the same ledger compare statement for statement.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

#: timed passes over the universe, after one warm-up pass
ROUNDS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    args = parser.parse_args(argv)
    sys.path[:0] = [f"{args.root}/benchmarks/ledger", f"{args.root}/src"]
    import inputs
    import run
    from probe import SpeedSampler, clock
    from workloads import build_system

    from repro.db.sql import parse
    from repro.obs.recorder import get_recorder

    run.pin_to_one_cpu()
    db = build_system(32, wal=False).db
    universe = [(sql, len(parse(sql).tables))
                for sql in inputs.statement_universe(db)]
    recorder = get_recorder()
    samples = []  # (width, cpu start, cpu end, planner s, wall s)
    with SpeedSampler() as sampler:
        for round_ in range(ROUNDS + 1):
            for sql, width in universe:
                start = clock()
                db.execute(sql)
                if round_:  # round 0 warms up
                    record = recorder.recent(1)[0]
                    samples.append((width, start, clock(),
                                    record.phases.get("db.planner", 0.0),
                                    record.wall_seconds))
    widths, starts, ends, plan_s, wall_s = zip(*samples)
    rates = sampler.nominal_seconds(starts, ends) / np.subtract(ends, starts)
    planner: dict[int, list[float]] = defaultdict(list)
    wall: dict[int, list[float]] = defaultdict(list)
    for width, rate, plan, total in zip(widths, rates, plan_s, wall_s):
        planner[width].append(plan * rate)
        wall[width].append(total * rate)

    print(f"root {args.root}: {len(universe)} statements x {ROUNDS} rounds, "
          f"ad hoc; speed tick median {sampler.median_tick() * 1e3:.3f} ms, "
          f"times at the nominal speed")
    print(f"{'tables':>6} {'statements':>10} {'planner us p50':>14} "
          f"{'wall us p50':>11} {'planner share':>13}")
    for width in sorted(planner) + ["all"]:
        if width == "all":
            plans = [s for w in planner for s in planner[w]]
            walls = [s for w in wall for s in wall[w]]
        else:
            plans, walls = planner[width], wall[width]
        count = len(plans) // ROUNDS
        print(f"{width:>6} {count:>10} {statistics.median(plans) * 1e6:>14.1f} "
              f"{statistics.median(walls) * 1e6:>11.1f} "
              f"{sum(plans) / sum(walls):>13.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
