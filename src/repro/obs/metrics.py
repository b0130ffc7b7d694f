"""A process-wide metrics registry: counters, gauges, and histograms.

Instrumented sites across the tree feed this registry (``lfm.pages_read``,
``executor.rows_emitted``, ``rpc.messages``...); the bench runner
snapshots it into every ``BENCH_*.json`` so each trajectory point carries
the full resource picture, not just the headline columns.

Metrics are plain Python attribute updates on the side of the real
counters — they never touch :class:`~repro.storage.device.IOStats`, so the
paper-facing I/O accounting is unaffected by their presence (qblint's
``no-direct-iostats-mutation`` rule enforces the direction of that data
flow).  Exporters: :meth:`MetricsRegistry.snapshot` (a JSON-ready dict) and
:func:`repro.obs.promtext.render` (Prometheus text).
"""

from __future__ import annotations

import threading

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
    "snapshot",
    "reset",
]


class Counter:
    """A monotonically increasing count (updates are thread-safe)."""

    __slots__ = ("name", "value", "_lock")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (non-negative) to the count."""
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def export(self):
        """The current count."""
        return self.value


class Gauge:
    """A point-in-time value that may move in either direction."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value (a single atomic store)."""
        self.value = value

    def export(self):
        """The current value."""
        return self.value


#: histogram bucket upper bounds (seconds-flavored; counts land in the
#: first bucket whose bound is >= the observation, overflow in ``inf``)
_BUCKET_BOUNDS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class Histogram:
    """Distribution summary: count/sum/min/max plus coarse log buckets."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            for i, bound in enumerate(_BUCKET_BOUNDS):
                if value <= bound:
                    self.buckets[i] += 1
                    return
            self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) from the buckets.

        Linear interpolation inside the bucket holding the target rank,
        clamped by the observed ``min``/``max`` so estimates never leave
        the data's range.  The overflow bucket interpolates between the
        last finite bound and ``max`` like any other bucket.  Exact
        values are impossible from fixed bounds — this is the standard
        Prometheus-style estimate, good to one bucket's width.
        """
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"percentile wants 0 < q <= 1, got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        """Quantile estimate from a consistent state (lock held by caller)."""
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        # The overflow bucket (bound None) is a real bucket too: its
        # upper edge is the observed max.  Skipping it — the old code fell
        # through to a bare ``max`` — misreported every quantile whose
        # rank landed there (e.g. p50 of a distribution entirely above
        # the last finite bound collapsed to the single largest value).
        for bound, in_bucket in zip(_BUCKET_BOUNDS + (None,), self.buckets):
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
        """Summary dict: count, sum, mean, min, max, percentiles, buckets.

        Computed from one atomic snapshot under the histogram's lock, so
        a concurrent ``observe`` can never produce a dict whose mean,
        percentiles, and bucket counts disagree with ``count`` (an
        exporter mid-``observe`` used to see ``count`` and ``total`` from
        different instants).
        """
        with self._lock:
            count = self.count
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
                    zip([str(b) for b in _BUCKET_BOUNDS] + ["inf"], self.buckets)
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
                raise ValidationError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            return metric

    # A registered name is the common case and takes no lock: a dict read
    # is atomic, and a registered metric is only ever removed, not replaced.

    def counter(self, name: str) -> Counter:
        """Get or create the counter named ``name``."""
        metric = self._metrics.get(name)
        return metric if type(metric) is Counter else self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge named ``name``."""
        metric = self._metrics.get(name)
        return metric if type(metric) is Gauge else self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram named ``name``."""
        metric = self._metrics.get(name)
        return (metric if type(metric) is Histogram
                else self._get(name, Histogram))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def items(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        """``(name, metric)`` pairs, names sorted (for exporters)."""
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        """Every metric's exported value, grouped by kind, names sorted."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            metric = self._metrics.get(name)
            if metric is not None:
                out[metric.kind + "s"][name] = metric.export()
        return out

    def reset(self) -> None:
        """Forget every metric (registrations included)."""
        with self._lock:
            self._metrics.clear()


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


def reset() -> None:
    """Reset the process-wide registry."""
    _REGISTRY.reset()
