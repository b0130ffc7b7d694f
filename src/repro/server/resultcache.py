"""A shared, invalidating query-result cache for the serving layer.

The paper pushed result caching up into the DX front end ("DX caches the
results of previous queries"), keyed by the query as the user issued it;
a serving layer can do better by sharing one cache across every session.
Entries are keyed the same way: the statement's text, as the client sent
it, plus the bound parameters (:func:`cache_key`), so a repeated text is
answered before it is parsed; two formattings of one statement are two
entries.  Every entry remembers the SELECT's
:attr:`Prepared.tables <repro.db.sql.Prepared.tables>`; any write to one
of those tables drops the entry, found through a table -> keys index.
Each entry carries what answering needs without the statement: the
functions it calls, its shape and its digest id.

The map evicts in LRU order and admits by frequency
(:class:`~repro.db.admission.FrequencyAdmission`): every ``get`` counts
its key, and at full capacity a ``put`` of a new key stores its rows only
when the key has been asked for more often than the LRU entry it would
evict.  A refused ``put`` stores nothing (``server.result_cache.rejected``),
so a stream of distinct keys wider than the map cannot flush what
repeats.

Thread safety: a single mutex guards the LRU map, its counts and its
table index; :meth:`ResultCache.peek` alone reads the map without it.
Snapshot reads hold no database lock, which opens a window: a reader
executing against version N can ``put`` *after* a writer committed N+1
and invalidated.  Entries therefore carry the snapshot sequence number
they were computed from, and ``invalidate`` records a per-table
low-water mark under the same cache lock — a late ``put`` whose sequence
predates the mark is rejected instead of resurrecting stale rows (see
ARCHITECTURE.md).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.db.admission import FrequencyAdmission
from repro.errors import ValidationError
from repro.obs import metrics

__all__ = ["CachedResult", "ResultCache", "cache_key"]

_HITS = metrics.counter("server.result_cache.hits")
_MISSES = metrics.counter("server.result_cache.misses")
_STALE_PUTS = metrics.counter("server.result_cache.stale_puts")
_REJECTED = metrics.counter("server.result_cache.rejected")
_INVALIDATIONS = metrics.counter("server.result_cache.invalidations")
_ENTRIES = metrics.gauge("server.result_cache.entries")


def _hit_rate() -> float:
    """The process-wide share of lookups served, over every cache."""
    hits = _HITS.value
    lookups = hits + _MISSES.value
    return hits / lookups if lookups else 0.0


metrics.derived("server.result_cache.hit_rate", metrics.Gauge, _hit_rate)


def cache_key(sql: str, params) -> tuple:
    """The cache key for one statement text + bound parameters.

    Parameters are folded in by ``repr`` so unhashable values (and
    LongField handles, whose repr carries the stable field id) key
    correctly.
    """
    return (sql, tuple(repr(p) for p in (params or ())))


@dataclass(frozen=True)
class CachedResult:
    """One cached SELECT: the rows plus the tables they depend on.

    ``seq`` is the MVCC snapshot sequence number the rows were computed
    from.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    tables: frozenset[str]
    seq: int
    #: the functions the statement calls (a session shadowing one of
    #: them must not be answered from the shared entry)
    funcs: frozenset[str] = frozenset()
    #: the statement's shape and digest id, for a hit's flight record
    shape: str | None = None
    digest: str | None = None


class ResultCache:
    """Statement text -> result rows: LRU eviction, frequency admission,
    invalidated by writes."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValidationError("result cache needs capacity for one entry")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedResult] = OrderedDict()  # guarded_by: _lock
        #: table -> keys of the entries that depend on it
        self._keys_of: dict[str, set[tuple]] = {}  # guarded_by: _lock
        #: per-table low-water mark: entries computed from a snapshot
        #: sequence *below* the mark are stale (a write invalidated them
        #: before they arrived).  Bounded by the schema's table count.
        self._stale_below: dict[str, int] = {}
        self._admission = FrequencyAdmission(capacity)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stale_puts = 0
        self.rejected = 0

    def get(self, key: tuple) -> CachedResult | None:
        """The cached entry for ``key``, refreshing its LRU position; hit
        or miss, the lookup counts toward ``key``'s admission."""
        with self._lock:
            self._admission.touch(key)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
        (_MISSES if entry is None else _HITS).inc()
        return entry

    def peek(self, key: tuple) -> CachedResult | None:
        """The entry for ``key``, or None.  Counts nothing and moves
        nothing: a found entry becomes a hit only through :meth:`get`."""
        # Lock-free: one dict lookup on a str-tuple key, which no other
        # thread can interleave with.
        return self._entries.get(key)

    def _entry_stale_locked(self, entry: CachedResult) -> bool:
        """Was a write with a newer sequence already applied to a table
        this entry depends on?  (Lock held by caller.)"""
        for table in entry.tables:
            mark = self._stale_below.get(table)
            if mark is not None and entry.seq < mark:
                return True
        return False

    def put(self, key: tuple, entry: CachedResult) -> None:
        """Insert (or refresh) one entry.

        A late fill loses: when the entry's snapshot sequence predates an
        invalidation mark on any of its tables, or a fresher result for
        the same key is already cached, the put is dropped — both checks
        run under the cache lock, atomically with the insert they guard.
        A new key at full capacity is stored only if it is more frequent
        than the LRU entry, which it then evicts; otherwise the put is
        refused and the map is left as it was.
        """
        with self._lock:
            existing = self._entries.get(key)
            if self._entry_stale_locked(entry) or (
                    existing is not None and entry.seq < existing.seq):
                self.stale_puts += 1
                _STALE_PUTS.inc()
                return
            if existing is not None:
                self._forget_locked(key, existing)
            else:
                victim = (next(iter(self._entries.items()))
                          if len(self._entries) >= self.capacity else None)
                if not self._admission.admit(self._entries, key):
                    self.rejected += 1
                    _REJECTED.inc()
                    return
                if victim is not None:  # admitted: the LRU entry went
                    self._forget_locked(*victim)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            for table in entry.tables:
                self._keys_of.setdefault(table, set()).add(key)
            _ENTRIES.set(len(self._entries))

    def _forget_locked(self, key: tuple, entry: CachedResult) -> None:
        """Drop ``entry``'s table index rows (the caller drops the entry
        itself; lock held by caller)."""
        for table in entry.tables:
            keys = self._keys_of.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_of[table]

    def invalidate(self, tables, seq: int) -> int:
        """Drop every entry that references any of ``tables``.

        ``seq`` — the snapshot sequence published by the invalidating
        write — also becomes each table's low-water mark, so a concurrent
        lock-free reader that computed its rows against an older version
        cannot re-insert them after this call returns.  The drop and the
        marks are one atomic step under the cache lock.
        """
        written = {t.lower() for t in tables}
        with self._lock:
            stale: set[tuple] = set()
            for table in written:
                if self._stale_below.get(table, 0) < seq:
                    self._stale_below[table] = seq
                stale.update(self._keys_of.pop(table, ()))
            for key in stale:
                self._forget_locked(key, self._entries.pop(key))
            self.invalidations += len(stale)
            if stale:
                _INVALIDATIONS.inc(len(stale))
                _ENTRIES.set(len(self._entries))
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._keys_of.clear()
            _ENTRIES.set(0)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self)}/{self.capacity} entries, "
            f"hit rate {self.hit_rate:.0%})"
        )
