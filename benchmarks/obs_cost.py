"""What a statement's telemetry costs: the recorder and digest table on
against off, in alternating pairs, and the work they do, counted.

Three cases over the ledger's grid-32 statement universe (the seed-1994
demo database, three band encodings; ``benchmarks/ledger/inputs.py``):

* ``direct`` — every universe statement as bare ``Database.execute(text)``:
  ad hoc, parsed, checked and planned for its one call;
* ``hit`` — the first :data:`SERVED` statements from a ``QueryServer``
  session, all held by its result cache;
* ``miss`` — the same statements with the cache emptied before each one
  (the statement memo holds them, so a miss is cache lookup, execution
  and fill).

Timing.  A pair is one pass over the case's statements in which every
statement runs back to back once with ``recorder`` and ``digest``
disabled and once enabled, the order rotating from statement to
statement; each run is timed alone on its thread's CPU clock and
converted to the nominal machine speed by the ledger's speed probe
(``benchmarks/ledger/probe.py``), so runs made while the box is slow
read as on the same box when quiet.  The gap is the median over the
pairs of (µs on - µs off) per statement.  The
``direct`` case explains its gap by ablation, in the same pairs: two
more runs per statement, enabled with the shape and digest id already
known (``Prepared.shape`` and ``.digest`` patched to constants), and
that with the digest table disabled.  The three paired differences are
the shape and digest id, the digest table, and the scope itself (its
record, phase switches, notes and retirement).

Counts, per statement with everything on: phase switches
(``_StatementScope.switch``), counter increments (``Counter.inc``), lock
acquisitions (every lock the program creates through ``threading.Lock``
and ``threading.RLock``, counted by wrappers installed before ``repro``
is imported, in a child process) and AST unparses (``unparse``).  The
profile hook that counts calls slows the child down, so its times are
never used.

Run::

    python3 benchmarks/obs_cost.py [--root TREE] [--pairs 8] [--json]

``--root`` is the checkout whose ``src`` is measured (default: this one);
its ``benchmarks/ledger`` supplies the database and the universe, so two
checkouts compare statement for statement.  ``--counts`` prints only the
counts, as JSON (it is what the child runs).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: statements of the served cases: inside the result cache (256 entries)
#: and the statement memo (256 texts)
SERVED = 200

#: the calls counted per statement: (file, function) -> counts key
COUNTED = {
    ("recorder.py", "switch"): "switches",
    ("metrics.py", "inc"): "counter_incs",
    ("unparse.py", "unparse"): "unparses",
}

_LOCKS = [0]
_COUNTING = [False]


class _CountingLock:
    """A lock that counts its acquisitions while counting is on."""

    def __init__(self, inner):
        self._inner = inner

    def acquire(self, *args, **kwargs):
        if _COUNTING[0]:
            _LOCKS[0] += 1
        return self._inner.acquire(*args, **kwargs)

    def __enter__(self):
        return self.acquire()

    def release(self):
        self._inner.release()

    def __exit__(self, *exc):
        self._inner.release()

    def _acquire_restore(self, state):  # Condition.wait's re-acquisition
        if _COUNTING[0]:
            _LOCKS[0] += 1
        self._inner._acquire_restore(state)

    def __getattr__(self, name):  # locked(), _is_owned(), _release_save()
        return getattr(self._inner, name)


def _count_locks() -> None:
    """Wrap every lock made from here on (call before importing repro)."""
    plain, reentrant = threading.Lock, threading.RLock
    threading.Lock = lambda: _CountingLock(plain())
    threading.RLock = lambda *a, **k: _CountingLock(reentrant(*a, **k))


def build(root: str):
    """The ledger's grid-32 system, its universe, and a served session."""
    sys.path[:0] = [f"{root}/benchmarks/ledger", f"{root}/src"]
    import inputs
    from workloads import build_system

    from repro.server import QueryServer

    db = build_system(32, wal=False).db
    universe = inputs.statement_universe(db)
    server = QueryServer(db, workers=2)
    session = server.connect(name="obs-cost")
    served = universe[:SERVED]
    for _ in range(2):  # memoized, then admitted to the cache
        for sql in served:
            session.execute(sql)
    return db, universe, server, session


def cases(db, universe, server, session) -> dict:
    """``name -> (statements, run(sql), before(sql))``: ``before`` runs
    untimed ahead of each statement."""
    served = universe[:SERVED]
    return {
        "direct": (universe, db.execute, None),
        "hit": (served, session.execute, None),
        "miss": (served, session.execute, lambda sql: server.cache.clear()),
    }


def toggle(on: bool) -> None:
    from repro.obs import digest, recorder

    (recorder.enable if on else recorder.disable)()
    (digest.enable if on else digest.disable)()


def counts(db, universe, server, session) -> dict:
    """Per statement, everything on: the calls in :data:`COUNTED` and lock
    acquisitions.  Runs each case twice and counts the second pass."""
    calls = dict.fromkeys(COUNTED.values(), 0)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            key = COUNTED.get((os.path.basename(code.co_filename), code.co_name))
            if key is not None:
                calls[key] += 1

    out = {}
    for name, (statements, run, before) in cases(db, universe, server,
                                                 session).items():
        for counting in (False, True):
            for key in calls:
                calls[key] = 0
            _LOCKS[0] = 0
            for sql in statements:
                if before is not None:
                    before(sql)
                _COUNTING[0] = counting
                sys.setprofile(hook if counting else None)
                try:
                    run(sql)
                finally:
                    sys.setprofile(None)
                    _COUNTING[0] = False
        n = len(statements)
        out[name] = {key: value / n for key, value in calls.items()}
        out[name]["lock_acquisitions"] = _LOCKS[0] / n
    return out


def variants() -> dict:
    """How each timed run is set up: ``off`` and ``on`` for every case,
    and for ``direct`` two more, ``on`` with the shape and digest id
    already known, and that with the digest table disabled."""
    from repro.db.sql.prepared import Prepared
    from repro.obs import digest

    real = Prepared.shape, Prepared.digest
    known = (property(lambda self: "SELECT ? FROM t"),
             property(lambda self: "0000000000000000"))

    def setup(on: bool, shape_known: bool = False, digests: bool = True):
        def apply() -> None:
            toggle(on)
            Prepared.shape, Prepared.digest = known if shape_known else real
            if not digests:
                digest.disable()
        return apply

    return {"off": setup(False), "on": setup(True),
            "shape_known": setup(True, True),
            "shape_known_no_digest": setup(True, True, False)}


def timed(statements, run, before, pairs: int, setups: dict) -> list[dict]:
    """``pairs`` x ``{variant: µs per statement}``: in a pair every
    statement runs once under each variant, back to back, the order
    rotating from statement to statement.  Each run's CPU time on this
    thread is converted to the ledger's nominal machine speed by its
    speed probe's rate over the run."""
    import numpy as np
    from probe import SpeedSampler, clock

    names = list(setups)
    runs = []  # (pair, variant, process clock at start and end, CPU s)
    with SpeedSampler() as sampler:
        for pair in range(pairs):
            for k, sql in enumerate(statements):
                for v in range(len(names)):
                    name = names[(v + pair + k) % len(names)]
                    setups[name]()
                    if before is not None:
                        before(sql)
                    start, cpu = clock(), time.thread_time()
                    run(sql)
                    runs.append((pair, name, start, clock(),
                                 time.thread_time() - cpu))
        setups["on"]()
    _, _, starts, ends, cpu = zip(*runs)
    starts, ends = np.array(starts), np.array(ends)
    rate = sampler.nominal_seconds(starts, ends) / np.maximum(ends - starts, 1e-9)
    out = [dict.fromkeys(names, 0.0) for _ in range(pairs)]
    for (pair, name, *_), seconds in zip(runs, np.array(cpu) * rate):
        out[pair][name] += seconds / len(statements) * 1e6
    return out


def paired(samples, more: str, less: str) -> tuple[float, float, float]:
    """Quartiles over the pairs of ``more - less`` (µs per statement)."""
    gaps = [sample[more] - sample[less] for sample in samples]
    if len(gaps) < 2:
        return gaps[0], gaps[0], gaps[0]
    q1, median, q3 = statistics.quantiles(gaps, n=4)
    return q1, median, q3


def measure(db, universe, server, session, pairs: int) -> dict:
    setups = variants()
    result = {}
    for name, (statements, run, before) in cases(db, universe, server,
                                                 session).items():
        chosen = setups if name == "direct" else {k: setups[k] for k in ("off", "on")}
        samples = timed(statements, run, before, pairs, chosen)
        r = result[name] = {
            "off_us": statistics.median(s["off"] for s in samples),
            "on_us": statistics.median(s["on"] for s in samples),
        }
        r["gap_q1"], r["gap_us"], r["gap_q3"] = paired(samples, "on", "off")
        if name == "direct":
            r["shape_us"] = paired(samples, "on", "shape_known")[1]
            r["digest_table_us"] = paired(
                samples, "shape_known", "shape_known_no_digest")[1]
            r["scope_us"] = paired(samples, "shape_known_no_digest", "off")[1]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--counts", action="store_true",
                        help="print the counts per statement as JSON, only")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.counts:
        _count_locks()
        print(json.dumps(counts(*build(args.root))))
        return 0
    if hasattr(os, "sched_setaffinity"):  # as the ledger: one CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    child = subprocess.run(
        [sys.executable, __file__, "--root", args.root, "--counts"],
        check=True, capture_output=True, text=True)
    per_statement = json.loads(child.stdout.splitlines()[-1])
    db, universe, server, session = build(args.root)
    result = measure(db, universe, server, session, args.pairs)
    server.close()
    for name, counted in per_statement.items():
        result[name].update(counted)
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"# {args.root}: {args.pairs} pairs; nominal µs per statement, "
          f"medians; gap = on - off, paired (q1-q3)")
    print(f"{'case':8s} {'off':>8s} {'on':>8s} {'gap':>7s} {'q1-q3':>13s} "
          f"{'switch':>7s} {'incs':>6s} {'locks':>6s} {'unparse':>7s}")
    for name in ("direct", "hit", "miss"):
        r = result[name]
        print(f"{name:8s} {r['off_us']:8.1f} {r['on_us']:8.1f} "
              f"{r['gap_us']:7.1f} {r['gap_q1']:6.1f}-{r['gap_q3']:<6.1f} "
              f"{r['switches']:7.2f} {r['counter_incs']:6.2f} "
              f"{r['lock_acquisitions']:6.2f} {r['unparses']:7.2f}")
    r = result["direct"]
    print(f"direct gap {r['gap_us']:.1f} µs, paired medians of its parts: "
          f"shape and digest id {r['shape_us']:.1f}, digest table "
          f"{r['digest_table_us']:.1f}, scope and record {r['scope_us']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
