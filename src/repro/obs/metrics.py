"""A process-wide metrics registry: counters, gauges, and histograms.

Instrumented sites across the tree feed this registry (``lfm.pages_read``,
``executor.rows_emitted``, ``rpc.messages``...), each through a handle it
binds once, at import; every ``BENCH_*.json`` carries a snapshot.
Metrics never touch :class:`~repro.storage.device.IOStats`, so the
paper-facing I/O accounting is unaffected by them (qblint's
``no-direct-iostats-mutation`` rule enforces that direction).  Exporters:
:meth:`MetricsRegistry.snapshot` (a JSON-ready dict) and
:func:`repro.obs.promtext.render` (Prometheus text).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from threading import get_ident

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "derived",
    "snapshot",
    "reset",
]


class Counter:
    """A monotonically increasing count, exact under threads.

    An increment takes no lock: each thread adds to a cell of its own,
    keyed by its thread id (an ended thread's id, and cell, pass to a
    later thread), and a read sums the cells.  Bind a counter once
    (``c = metrics.counter(name)``); one made with ``read`` is computed
    when read (:func:`derived`).
    """

    __slots__ = ("name", "_read", "_zero", "_cells")
    kind = "counter"

    def __init__(self, name: str, read=None):
        self.name = name
        self._read = read
        self._zero = 0  # what ``read`` said at the last reset
        self._cells: dict[int, list] = {}

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (non-negative) to the count."""
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease")
        try:
            self._cells[get_ident()][0] += amount
        except KeyError:  # this thread's first increment
            self._cells.setdefault(get_ident(), [0])[0] += amount

    @property
    def value(self) -> int | float:
        """The current count."""
        if self._read is not None:
            return self._read() - self._zero
        return sum(cell[0] for cell in list(self._cells.values()))

    export = value.fget

    def reset(self) -> None:
        """Zero the count in place."""
        if self._read is not None:
            self._zero = self._read()
        for cell in list(self._cells.values()):
            cell[0] = 0


class Gauge:
    """A point-in-time value that may move in either direction, or one
    computed when it is read (``read``, see :func:`derived`)."""

    __slots__ = ("name", "value", "_read")
    kind = "gauge"

    def __init__(self, name: str, read=None):
        self.name = name
        self.value = 0.0
        self._read = read

    def set(self, value: float) -> None:
        """Replace the current value (a single atomic store)."""
        self.value = value

    def export(self):
        """The current value."""
        return self.value if self._read is None else self._read()

    def reset(self) -> None:
        """Zero the value in place."""
        self.value = 0.0


#: histogram bucket upper bounds (seconds-flavored; counts land in the
#: first bucket whose bound is >= the observation, overflow in ``inf``)
_BUCKET_BOUNDS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class Histogram:
    """Distribution summary: count/sum/min/max plus coarse log buckets.
    :meth:`observe_zero` adds a 0 to a per-thread cell without the lock,
    as :meth:`Counter.inc` counts; every read folds the new zeros in."""

    __slots__ = ("name", "_count", "total", "min", "max", "_buckets", "_zeros", "_folded", "_lock")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._zeros: dict[int, list] = {}  # thread id -> [zeros observed]
        self.reset()

    def reset(self) -> None:
        """Forget every observation, in place."""
        with self._lock:
            for cell in list(self._zeros.values()):
                cell[0] = 0
            self._folded = 0  # how many of the zeros the state holds
            self._count = 0
            self.total = 0.0
            self.min: float | None = None
            self.max: float | None = None
            self._buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        with self._lock:
            self.add_locked(value)

    def observe_zero(self) -> None:
        """``observe(0.0)``, without the lock."""
        try:
            self._zeros[get_ident()][0] += 1
        except KeyError:  # this thread's first zero
            self._zeros.setdefault(get_ident(), [0])[0] += 1

    def add_locked(self, value: float) -> None:
        """:meth:`observe` for an owner that serializes every update and
        read of this histogram under a lock of its own."""
        self._count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # the first bucket whose bound is >= value; past the last, overflow
        self._buckets[bisect_left(_BUCKET_BOUNDS, value)] += 1

    def _fold_locked(self) -> None:
        """Add the zeros observed since the last fold (lock held)."""
        zeros = sum(cell[0] for cell in list(self._zeros.values())) - self._folded
        if zeros:
            self._folded += zeros
            self._count += zeros
            self._buckets[0] += zeros
            self.min = 0.0 if self.min is None else min(self.min, 0.0)
            self.max = 0.0 if self.max is None else max(self.max, 0.0)

    @property
    def count(self) -> int:
        """Observations so far."""
        with self._lock:
            self._fold_locked()
            return self._count

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) from the buckets: the
        Prometheus-style linear interpolation inside the bucket holding
        the rank, clamped to the observed ``min``/``max`` (the overflow
        bucket's upper edge), good to one bucket's width."""
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"percentile wants 0 < q <= 1, got {q}")
        with self._lock:
            self._fold_locked()
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        """Quantile estimate from a consistent state (lock held by caller)."""
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        lower = 0.0
        for bound, in_bucket in zip(_BUCKET_BOUNDS + (None,), self._buckets):
            if in_bucket and cumulative + in_bucket >= target:
                lo = max(lower, self.min if self.min is not None else lower)
                hi = self.max if self.max is not None else lower
                if bound is not None:
                    hi = min(bound, hi) if self.max is not None else bound
                if hi < lo:
                    hi = lo
                return lo + (target - cumulative) / in_bucket * (hi - lo)
            cumulative += in_bucket
            if bound is not None:
                lower = bound
        return self.max if self.max is not None else 0.0

    def export(self):
        """Summary dict: count, sum, mean, min, max, percentiles, buckets,
        all from one state (under the lock)."""
        with self._lock:
            self._fold_locked()
            count = self._count
            return {
                "count": count,
                "sum": self.total,
                "mean": self.total / count if count else 0.0,
                "min": self.min,
                "max": self.max,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
                "buckets": dict(
                    zip([str(b) for b in _BUCKET_BOUNDS] + ["inf"], self._buckets)
                ),
            }


class MetricsRegistry:
    """Name -> metric map with create-on-first-use accessors.

    Registration is thread-safe: two threads touching the same name for
    the first time get the same metric object.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise ValidationError(f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter named ``name`` (bind it once)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge named ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram named ``name``."""
        return self._get(name, Histogram)

    def items(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        """``(name, metric)`` pairs, names sorted (for exporters)."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        """Every metric's exported value, grouped by kind, names sorted."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in self.items():
            out[metric.kind + "s"][name] = metric.export()
        return out

    def derived(self, name: str, cls, read):
        """Register ``name`` as a :class:`Counter` or :class:`Gauge` whose
        value is ``read()``: the count is kept once, by whoever it asks."""
        with self._lock:
            metric = self._metrics[name] = cls(name, read)
            return metric

    def reset(self) -> None:
        """Zero every metric in place: registrations, and the handles
        callers bound to them, stay."""
        for _, metric in self.items():
            metric.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


#: get-or-create accessors of the process-wide registry
counter = _REGISTRY.counter
gauge = _REGISTRY.gauge
histogram = _REGISTRY.histogram


def snapshot() -> dict:
    """Snapshot of every metric in the process-wide registry."""
    return _REGISTRY.snapshot()


derived = _REGISTRY.derived


def reset() -> None:
    """Reset the process-wide registry."""
    _REGISTRY.reset()
