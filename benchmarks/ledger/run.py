"""The performance ledger: one command, five cold-path workloads.

    python3 benchmarks/ledger/run.py                      # every workload, untraced
    python3 benchmarks/ledger/run.py --trace 1            # every workload, traced
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py compare BEFORE.jsonl AFTER.jsonl

A single-workload run prints its metrics by name with their units and,
as the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced).  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from probe import TICK_NOMINAL_S, SpeedSampler, clock  # noqa: E402

POLICY = ("devices: in-memory BlockDevice, in-memory journal, "
          "flush_latency=0, no LatencyDevice; closed loop; process pinned to "
          "one CPU; latencies are this sandbox's CPU's, not a disk's")
#: workloads whose traced run also measures what recorder+digest cost
OBS_COST_WORKLOADS = ("pool_direct_g32", "served_mixed_g32")
OBS_COST_OPS = 300
#: slices per untraced run, each a set-up (setup_s is their median) and its
#: share of --seconds; one grid-64 build is 6-9 s, so more slices would
#: push a run past its share of the driver's budget
SETUP_REPEATS = 2


class Op(NamedTuple):
    """One measured op.  ``ok`` is false when it raised or answered wrong;
    ``span`` is its root span's id in a traced phase; ``start`` and
    ``seconds`` are on the clock ``measure`` was given."""

    kind: str
    seconds: float
    ok: bool
    client: int
    block: int
    span: int | None
    start: float = 0.0


def pin_to_one_cpu() -> None:
    """Every thread of the run on one CPU.  The engine is GIL-bound, so a
    second core adds no throughput, and threads migrating between cores
    made CPU per op on the two-client workloads drift by 40% within a run;
    pinned, it repeats.  (Linux only; elsewhere the run is not pinned.)"""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class BlockClock:
    """Whole blocks until the deadline, the same number for every client."""

    def __init__(self, seconds: float, first_block: int = 0):
        self._deadline = time.perf_counter() + seconds
        self._lock = threading.Lock()
        self._first = first_block
        self._end = first_block  #: one past the highest block started
        self._final = None

    def may_start(self, block: int) -> bool:
        with self._lock:
            if (self._final is None and block > self._first
                    and time.perf_counter() >= self._deadline):
                self._final = self._end
            if self._final is not None:
                return block < self._final
            self._end = max(self._end, block + 1)
            return True


class Account:
    """What the timed parts of a phase cost: the workload's counters, and
    process CPU per block."""

    def __init__(self, workload):
        self._workload = workload
        #: client 0's blocks as (start, end) on the process CPU clock
        self.block_cpu: dict[int, tuple[float, float]] = {}
        self.counts = dict.fromkeys(workload.counters(), 0)
        self._counts0 = workload.counters()

    def pause(self):
        for key, value in self._workload.counters().items():
            self.counts[key] += value - self._counts0[key]

    def untimed(self, fn):
        """Run ``fn`` (a block's preparation) without counting what it does;
        it may swap the workload's system for a fresh one."""
        self.pause()
        fn()
        self._counts0 = self._workload.counters()


def measure(workload, seconds: float, tracer=None, solo_ops: int | None = None,
            first_block: int = 0, clock=time.perf_counter):
    """Run blocks for ``seconds``; returns ``(records, account)``, the
    records being :class:`Op`, timed on ``clock``.  With ``solo_ops``,
    client 0 alone runs that many ops instead.  Blocks are numbered from
    ``first_block``.
    """
    clients = 1 if solo_ops else workload.clients
    blocks = BlockClock(seconds, first_block)
    account = Account(workload)
    records: list[list[Op]] = [[] for _ in range(clients)]
    crashed: list[BaseException] = []

    def client_loop(client: int):
        out = records[client]
        block = first_block
        while blocks.may_start(block):
            if clients == 1:
                account.untimed(lambda: workload.begin_block(client, block))
            else:
                workload.begin_block(client, block)
            cpu_start = time.process_time()
            for kind, run, check in workload.ops(client, block):
                token = tracer.begin_op() if tracer else None
                start = clock()
                try:
                    result = run()
                    failed = False
                except Exception:  # an op that raises is a failed op
                    failed = True
                    if all(op.ok for op in out):  # the first failure only
                        traceback.print_exc()
                elapsed = clock() - start
                if tracer:
                    tracer.end_op(token)
                out.append(Op(kind, elapsed,
                              not failed and bool(check(result)),
                              client, block, token[0] if token else None,
                              start))
                if len(out) == solo_ops:
                    return
            if client == 0:
                account.block_cpu[block] = (cpu_start, time.process_time())
            block += 1

    def guarded(client: int):
        try:
            client_loop(client)
        except BaseException as exc:  # re-raised on the main thread below
            crashed.append(exc)

    if clients == 1:
        client_loop(0)
    else:
        threads = [threading.Thread(target=guarded, args=(k,),
                                    name=f"ledger-client-{k}")
                   for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashed:
            raise crashed[0]
    account.pause()
    return [r for client in records for r in client], account


def timing_metrics(records, block_cpu, nominal_seconds):
    """``(ops per second, median op seconds, CPU seconds per op)`` over all
    blocks, at the machine's nominal speed.

    ``nominal_seconds(starts, ends)`` converts intervals on the clock the
    records were timed on (see probe.py).
    """
    seconds = nominal_seconds([op.start for op in records],
                              [op.start + op.seconds for op in records])
    busy: dict[int, float] = {}
    good: dict[int, int] = {}
    for op, took in zip(records, seconds):
        busy[op.client] = busy.get(op.client, 0.0) + took
        good[op.client] = good.get(op.client, 0) + op.ok
    # each client's rate over the time it spent in ops, summed over clients
    rate = sum(good[client] / busy[client] for client in busy)
    # client 0 timed the process; every client did its blocks meanwhile
    cpu = nominal_seconds(*zip(*block_cpu.values())).sum() / len(records)
    return rate, float(np.median(seconds)), cpu


def untraced(cls, seed: int, smoke: bool, seconds: float, repeats: int):
    """``repeats`` slices, each a fresh set-up and its share of ``seconds``,
    timed on the process CPU clock beside a running speed sampler.

    Returns the end-to-end values, all records and the failed checks.
    """
    setups, records, problems, block_cpu, counts = [], [], [], {}, {}
    with SpeedSampler() as sampler:
        for _ in range(repeats):
            start = clock()
            workload = cls(seed, smoke)
            try:
                workload.setup()
                setups.append((start, clock()))
                first = 1 + max(block_cpu, default=-1)
                recs, account = measure(workload, seconds / repeats,
                                        first_block=first, clock=clock)
                workload.finish()
                stored = workload.stored_bytes_per_user_byte()
            finally:
                workload.close()
            records += recs
            problems += workload.problems
            block_cpu.update(account.block_cpu)
            for key, value in account.counts.items():
                counts[key] = counts.get(key, 0) + value

    rate, median, cpu = timing_metrics(records, block_cpu,
                                       sampler.nominal_seconds)
    values = {
        "setup_s": float(np.median(sampler.nominal_seconds(*zip(*setups)))),
        "ops_per_s": rate,
        "op_ms_p50": median * 1e3,
        "cpu_ms_per_op": cpu * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "lfm_pages_read_per_op": counts["lfm_pages_read"] / len(records),
        "stored_bytes_per_user_byte": stored,
    }
    print(f"# set-up x{repeats}; speed tick median "
          f"{sampler.median_tick() * 1e3:.3f} ms (nominal "
          f"{TICK_NOMINAL_S * 1e3:.2f}): timings are process CPU time, "
          f"converted to the nominal machine speed")
    return values, records, problems


def obs_cost_us(workload) -> float:
    """CPU per op with recorder+digest on minus off: client 0 alone replays
    the same ops on both sides, alternating; the minimum of each side."""
    from repro.obs import digest, recorder

    def cpu_per_op(enabled: bool) -> float:
        (recorder.enable if enabled else recorder.disable)()
        (digest.enable if enabled else digest.disable)()
        start = time.process_time()
        records, _ = measure(workload, 0.0, solo_ops=OBS_COST_OPS)
        return (time.process_time() - start) / len(records)

    try:
        on, off = [], []
        for _ in range(4):
            off.append(cpu_per_op(False))
            on.append(cpu_per_op(True))
    finally:
        recorder.enable()
        digest.enable()
    return (min(on) - min(off)) * 1e6


def traced(cls, seed: int, smoke: bool, seconds: float):
    """One set-up, an untraced slice, then the traced phase; returns the
    per-layer values, all records and the failed checks."""
    import layers
    import tracing
    from workloads import RESULTS_DIR

    workload = cls(seed, smoke)
    try:
        workload.setup()
        with SpeedSampler() as sampler:
            plain, _ = measure(workload, seconds / 4)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                records, account = measure(workload, seconds / 2, tracer,
                                           first_block=1 + plain[-1].block)
            finally:
                tracer.uninstall()
        cost = (obs_cost_us(workload)
                if workload.name in OBS_COST_WORKLOADS else 0.0)
        workload.finish()
        values = layers.layer_metrics(tracer, records, plain, account.counts,
                                      workload.system.lfm, cost,
                                      sampler.median_tick())
    finally:
        workload.close()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{workload.name}.spans.jsonl"
    tracing.write_jsonl(tracer.spans, path)
    print(f"# {len(tracer.spans)} spans of {len(records)} traced ops -> {path}")
    survivors = tracing.Tracer.survivors()
    if survivors:
        workload.problems.append(f"wrappers survived the traced run: {survivors}")
    return values, plain + records, workload.problems


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    pin_to_one_cpu()
    spec = declared()
    cls = WORKLOADS[args.workload]
    seconds = 0.3 if args.smoke else args.seconds
    print(f"# {cls.name} seed={args.seed} trace={args.trace} "
          f"clients={cls.clients} nproc={os.cpu_count()}")
    print(f"# {POLICY}")
    if args.trace:
        kind = "per_layer"
        values, records, problems = traced(cls, args.seed, args.smoke, seconds)
    else:
        kind = "end_to_end"
        values, records, problems = untraced(
            cls, args.seed, args.smoke, seconds,
            1 if args.smoke else SETUP_REPEATS)

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(units) ^ set(values))}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    failed = sum(1 for op in records if not op.ok) + len(problems)
    result = {
        "correct": failed == 0,
        "attempted": len(records) + len(problems),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(f"# {len(records)} ops in {len({op.block for op in records})} blocks "
          f"(the sample behind every percentile), {failed} failed")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:14.4f} {unit}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"workload": cls.name, "seed": args.seed,
                                  "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Every workload in its own process, so ``peak_rss_mb`` is its own."""
    status = 0
    for workload in (w["name"] for w in declared()["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
            print(f"# {workload}: FAILED (exit {done.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one of BENCHMARK.json's workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--out", help="append the result to this JSONL file")
    args = parser.parse_args(argv)
    import repro  # noqa: F401  (fail before any output if the tree is absent)

    if args.workload is None:
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
