"""Statement digests: pg_stat_statements-style per-query-class accounting.

The flight recorder remembers *individual* statements; operating a server
needs the orthogonal view — "which query **shape** is burning the page-I/O
budget?".  Every completed :class:`~repro.obs.recorder.QueryRecord` is
folded into a bounded :class:`DigestTable` keyed by the record's
``digest``: the :func:`fingerprint` of its ``shape``, the statement with
its constants printed as ``?``, both noted on the record by whoever parsed
it (:class:`repro.db.sql.Prepared`).  ``SELECT v FROM t WHERE s = 'pet1'``
and ``... = 'pet2'`` share one row: calls, errors, rows, page I/O,
cache-hit rate, a latency histogram and the mean time per phase
(:data:`repro.obs.recorder.PHASES`).

The table is process-wide and bounded (top-K by calls, cold rows evicted),
served at the admin endpoint's ``/digests`` and embedded in incident
reports.  A record without a shape (its text never parsed) is filed, and
given the digest id of, its whitespace-collapsed text.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import deque

from repro.concurrency import lockdep
from repro.obs import metrics

__all__ = [
    "DigestEntry",
    "DigestTable",
    "fingerprint",
    "get_table",
    "observe",
    "enable",
    "disable",
    "is_enabled",
    "reset",
]

_WS_RE = re.compile(r"\s+")


def fingerprint(shape: str) -> str:
    """The short stable digest id of a statement shape."""
    return hashlib.sha256(shape.encode("utf-8")).hexdigest()[:16]


_EVICTIONS = metrics.counter("digest.evictions")


class DigestEntry:
    """Aggregate statistics for one normalized statement shape."""

    __slots__ = ("digest", "statement", "calls", "errors", "rows",
                 "pages_read", "pages_written", "cache_hits", "latency",
                 "phases", "last_seen_unix")

    def __init__(self, digest: str, statement: str):
        self.digest = digest
        self.statement = statement
        self.calls = 0
        self.errors = 0
        self.rows = 0
        self.pages_read = 0      # qblint: disable=no-direct-iostats-mutation
        self.pages_written = 0   # qblint: disable=no-direct-iostats-mutation
        self.cache_hits = 0
        self.latency = metrics.Histogram(f"digest.{digest}")
        self.phases: dict[str, float] = {}  #: total seconds per phase
        self.last_seen_unix = 0.0

    def to_dict(self) -> dict:
        """The row as a JSON-ready dict (stable key set)."""
        latency = self.latency.export()
        return {
            "digest": self.digest,
            "statement": self.statement,
            "calls": self.calls,
            "errors": self.errors,
            "rows": self.rows,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "cache_hit_rate": (self.cache_hits / self.calls
                               if self.calls else 0.0),
            "mean_ms": round(latency["mean"] * 1e3, 3),
            "p95_ms": round(latency["p95"] * 1e3, 3),
            "p99_ms": round(latency["p99"] * 1e3, 3),
            "total_seconds": round(latency["sum"], 6),
            "phase_mean_ms": {name: round(seconds / self.calls * 1e3, 3)
                              for name, seconds in self.phases.items()},
            "last_seen_unix": self.last_seen_unix,
        }


class DigestTable:
    """Bounded map of normalized-statement shapes to aggregate rows.

    When full, a *new* shape evicts the coldest row (fewest calls, oldest
    on ties).  :meth:`observe` queues a record without a lock, and every
    :data:`BATCH` records one lock acquisition folds them all; every
    reader folds what is pending first, so what it reads is exact.
    """

    #: records folded per lock acquisition
    BATCH = 32

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self.enabled = True
        self._entries: dict[str, DigestEntry] = {}  # guarded_by: _lock
        #: observed, not yet folded (only the lock holder pops)
        self._pending: deque = deque()
        self._folded = 0  # guarded_by: _lock
        self._lock = lockdep.instrument(threading.Lock(), "obs.digest")

    def observe(self, record) -> str | None:
        """Queue one completed :class:`~repro.obs.recorder.QueryRecord`
        (or a duck-typed equivalent) for its row; returns its digest id,
        or ``None`` while the table is disabled."""
        if not self.enabled:
            return None
        if getattr(record, "shape", None) is None:  # filed under its text
            record.digest = fingerprint(_WS_RE.sub(" ", record.sql).strip())
        pending = self._pending
        pending.append(record)
        if len(pending) >= self.BATCH:
            with self._lock:
                self._fold_locked()
        return record.digest

    def _fold_locked(self) -> None:
        """Fold every pending record into its row (lock held by caller)."""
        pending, entries = self._pending, self._entries
        now = time.time()
        while pending:
            record = pending.popleft()
            self._folded += 1
            entry = entries.get(record.digest)
            if entry is None:
                if len(entries) >= self.capacity:
                    self._evict_locked()
                entry = entries[record.digest] = DigestEntry(
                    record.digest, getattr(record, "shape", None)
                    or _WS_RE.sub(" ", record.sql).strip())
            entry.calls += 1
            if not record.ok:
                entry.errors += 1
            entry.rows += record.rows
            # Copies of deltas the recorder already accounted — same
            # contract as QueryRecord: digests never touch IOStats.
            entry.pages_read += record.pages_read       # qblint: disable=no-direct-iostats-mutation
            entry.pages_written += record.pages_written # qblint: disable=no-direct-iostats-mutation
            if record.cache_hit:
                entry.cache_hits += 1
            phases = entry.phases
            for name, seconds in record.phases.items():
                phases[name] = phases.get(name, 0.0) + seconds
            entry.last_seen_unix = now
            # The row's histogram is read and written under this lock only.
            entry.latency.add_locked(record.wall_seconds)

    def _evict_locked(self) -> None:
        """Drop the coldest row to make room (lock held by caller)."""
        coldest = min(
            self._entries.values(),
            key=lambda e: (e.calls, e.last_seen_unix),
        )
        del self._entries[coldest.digest]
        _EVICTIONS.inc()

    def top(self, n: int = 50) -> list[dict]:
        """The ``n`` busiest rows (by calls, then total time), as dicts."""
        with self._lock:
            self._fold_locked()
            entries = sorted(self._entries.values(),
                             key=lambda e: (-e.calls, -e.latency.total, e.digest))
            return [e.to_dict() for e in entries[:max(0, n)]]

    def __len__(self) -> int:
        with self._lock:
            self._fold_locked()
            return len(self._entries)

    @property
    def observed(self) -> int:
        """Records observed since the table was made (``digest.observations``)."""
        with self._lock:
            self._fold_locked()
            return self._folded

    def reset(self) -> None:
        """Forget every row (capacity/enabled untouched)."""
        with self._lock:
            self._fold_locked()
            self._entries.clear()


_TABLE = DigestTable()
metrics.derived("digest.observations", metrics.Counter,
                lambda: _TABLE.observed)


def get_table() -> DigestTable:
    """The process-wide digest table."""
    return _TABLE


def observe(record) -> str | None:
    """Fold a completed statement record into the process-wide table."""
    return _TABLE.observe(record)


def enable() -> DigestTable:
    """Turn digest accounting on (the default); returns the table."""
    _TABLE.enabled = True
    return _TABLE


def disable() -> None:
    """Turn digest accounting off (existing rows are kept)."""
    _TABLE.enabled = False


def is_enabled() -> bool:
    """Is digest accounting currently enabled?"""
    return _TABLE.enabled


def reset() -> None:
    """Clear the process-wide digest table."""
    _TABLE.reset()
