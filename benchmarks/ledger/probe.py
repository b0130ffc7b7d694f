"""A frozen machine-speed probe: how fast this sandbox's CPU is right now.

The sandbox is a shared box, and measured while writing the benchmark
its noise has two parts.  The hypervisor *steals* the CPU in bursts of
milliseconds (5-40% of the wall time, `steal` in /proc/stat); the process
CPU clock does not count stolen time, so the benchmark times on that
clock.  And the CPU itself flips, every 0.1 s to minutes, between a
quiet state and states in which the same instructions take 1.3-1.7x the
CPU time (a busy neighbour on the core).  No statistic of raw times
survives that, so while a run measures, a sampler thread runs a *tick* -
a fixed 0.7 ms of pure Python - every 30 ms and records the CPU time the
tick took on its own thread's clock.  The run then converts every timed
interval into the time it would have taken at the tick's nominal speed:
the metrics read as on this box in its quiet state.

The tick is a fixed mix of what the engine does most - a third of its
time bytecode arithmetic, two thirds an AST-walking evaluator over rows
of Python objects - and calls nothing in ``repro``, so no change to the
program moves it.  In the slow state the arithmetic takes 1.34x and the
evaluator 1.6x the CPU time, the workloads 1.35x (``paper_g64``, numpy)
to 1.6x; of the mixes tried on an hour of recorded noisy runs this one
was the steadiest over all five workloads.  What the tick does not
cancel is about a fifth of the machine's swing.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

#: the tick's CPU time on the reference box in its quiet state
TICK_NOMINAL_S = 0.00066
PERIOD_S = 0.030

#: the clock of the untraced run: CPU time of the whole process.  The
#: benchmark never sleeps or waits on a device and always has a runnable
#: thread, so this is the wall clock minus what the hypervisor stole.
clock = time.process_time


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b


_TREE = _Node("and", _Node("<", _Node("+", "x", 1), "y"),
              _Node("<", "z", _Node("+", "y", 7)))


def _eval(node, env):
    if type(node) is _Node:
        a, b = _eval(node.a, env), _eval(node.b, env)
        if node.op == "+":
            return a + b
        if node.op == "<":
            return a < b
        return a and b
    return env[node] if type(node) is str else node


def tick() -> float:
    """Run the tick; the CPU seconds it took on the calling thread."""
    start = time.thread_time()
    x = 0
    for i in range(4000):
        x += i * i & 7
    rows = []
    for i in range(500):
        env = {"x": i, "y": i * 3 & 255, "z": i & 63}
        if _eval(_TREE, env):
            rows.append((i, env["y"], str(i)))
    rows.sort(key=lambda row: row[1])
    assert x > 0 and rows
    return time.thread_time() - start


class SpeedSampler:
    """Ticks every :data:`PERIOD_S` on a thread of its own, from
    ``__enter__`` to ``__exit__``; afterwards :meth:`nominal_seconds`
    converts intervals on :data:`clock`."""

    def __init__(self):
        self._at: list[float] = []     #: clock reading at each tick
        self._took: list[float] = []   #: the tick's CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="ledger-probe",
                                        daemon=True)

    def _sample(self):
        took = tick()
        self._at.append(clock())
        self._took.append(took)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    def median_tick(self) -> float:
        return statistics.median(self._took)

    def nominal_seconds(self, starts, ends) -> np.ndarray:
        """For each interval ``[start, end]`` on :data:`clock`, the seconds
        its work takes at the tick's nominal speed: the machine's rate at a
        moment is nominal tick / tick (interpolated between samples), and
        the work is the rate's integral (5-point mean) over the interval.
        """
        starts, ends = np.asarray(starts, float), np.asarray(ends, float)
        points = starts[:, None] + (ends - starts)[:, None] * np.linspace(0, 1, 5)
        rate = TICK_NOMINAL_S / np.interp(points, self._at, self._took)
        return (ends - starts) * rate.mean(axis=1)
