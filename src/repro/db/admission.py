"""Frequency admission for the serving layer's two LRU maps.

The statement memo (:meth:`Database.prepare
<repro.db.database.Database.prepare>`) and the result cache
(:class:`~repro.server.resultcache.ResultCache`) evict in LRU order.  A
plain LRU also *admits* every miss, so a stream of distinct keys wider
than the map (the served universe is 2.5x either map) evicts an entry on
every miss and keeps almost nothing long enough to hit.  TinyLFU
(Einziger, Friedman & Manes, ACM ToS 2017) keeps the eviction order and
adds one test: at full capacity a miss enters only when it has been asked
for strictly more often than the entry it would evict.

The counts are approximate: they are keyed by ``hash(key)``, so two keys
whose hashes collide share one.  They are plain ints in a dict of ints,
which the cyclic GC does not track, and every count is halved after each
``10 * capacity`` touches, so old popularity fades and the table stays
bounded (at most ``20 * capacity`` counts).  The owner calls both methods
under the lock that already guards its map.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["FrequencyAdmission"]


class FrequencyAdmission:
    """Approximate access counts that decide who enters a full LRU map."""

    __slots__ = ("capacity", "_counts", "_touches")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._counts: dict[int, int] = {}
        self._touches = 0

    def touch(self, key) -> None:
        """Count one lookup of ``key``, hit or miss."""
        counts, slot = self._counts, hash(key)
        counts[slot] = counts.get(slot, 0) + 1
        self._touches += 1
        if self._touches == 10 * self.capacity:
            self._touches = 0
            self._counts = {s: n >> 1 for s, n in counts.items() if n > 1}

    def admit(self, entries: OrderedDict, key) -> bool:
        """May ``key``, not in ``entries``, enter them?  Yes while there is
        room, or when it is more frequent than the LRU entry, which is
        then evicted.  A tie keeps the entry already held."""
        if len(entries) < self.capacity:
            return True
        victim = next(iter(entries))
        counts = self._counts
        if counts.get(hash(key), 0) <= counts.get(hash(victim), 0):
            return False
        del entries[victim]
        return True
