"""``ResultCache`` admission: LRU eviction, frequency admission.

Every test here is deterministic: it counts hits, entries and refusals on
fixed key streams and times nothing.  The serving-layer behaviour of the
cache (keying, invalidation by writes, the sequence fence under threads)
is in ``tests/test_concurrent_server.py``.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.server import CachedResult, ResultCache
from tests.test_prepared import _lru_hits, _zipf_stream

CAPACITY = 256


def _rows(seq: int = 1, table: str = "t") -> CachedResult:
    return CachedResult(("v",), ((seq,),), frozenset({table}), seq=seq)


def _serve(cache: ResultCache, keys) -> int:
    """The server's read path on ``keys``: get, and put on a miss."""
    hits = 0
    for key in keys:
        if cache.get(key) is None:
            cache.put(key, _rows())
        else:
            hits += 1
    return hits


def _full(cache: ResultCache, times: int) -> list:
    """Fill ``cache`` with keys each asked for ``times`` times."""
    keys = [(f"select v from t where k = {i}", ()) for i in range(CAPACITY)]
    for _ in range(times):
        _serve(cache, keys)
    return keys


class TestAdmissionPolicy:
    def test_a_cyclic_scan_keeps_a_stable_resident_set(self):
        n = CAPACITY * 5 // 2
        keys = [(f"q{i}", ()) for i in range(n)]
        assert _lru_hits(keys * 6, CAPACITY) == 0  # LRU: every key evicted
        cache = ResultCache(CAPACITY)
        residents, hits = [], 0
        for _ in range(6):
            hits = _serve(cache, keys)
            residents.append(set(cache._entries))
        assert residents[1] == residents[-1]
        assert hits / n >= 0.5 * CAPACITY / n

    def test_a_zipf_stream_hits_no_less_than_lru(self):
        keys = [(f"q{i}", ()) for i in _zipf_stream(CAPACITY * 5 // 2,
                                                     40_000, 7)]
        assert _serve(ResultCache(CAPACITY), keys) >= _lru_hits(keys, CAPACITY)

    def test_a_tie_is_not_admitted(self):
        cache = ResultCache(CAPACITY)
        _full(cache, times=1)
        key = ("select 1", ())
        assert _serve(cache, [key]) == 0
        assert key not in cache._entries and cache.rejected == 1
        # asked for once more than the LRU entry: admitted in its place
        lru = next(iter(cache._entries))
        assert _serve(cache, [key]) == 0
        assert key in cache._entries and lru not in cache._entries
        assert len(cache) == CAPACITY and cache.rejected == 1

    def test_the_counts_stay_bounded(self):
        cache = ResultCache(CAPACITY)
        most = 0
        for i in range(100 * CAPACITY):
            cache.get((f"q{i}", ()))
            most = max(most, len(cache._admission._counts))
        assert most <= 20 * CAPACITY


class TestRefusedPuts:
    def test_a_rejected_put_leaves_the_entries_untouched(self):
        cache = ResultCache(CAPACITY)
        _full(cache, times=2)
        before = list(cache._entries.items())
        key = ("select 2", ())
        cache.get(key)
        cache.put(key, _rows())
        assert list(cache._entries.items()) == before
        assert cache.rejected == 1 and cache.stale_puts == 0

    def test_refreshing_a_held_key_needs_no_admission(self):
        cache = ResultCache(CAPACITY)
        keys = _full(cache, times=3)
        fresher = _rows(seq=2)
        cache.put(keys[0], fresher)  # its count is no higher than the LRU's
        assert cache.get(keys[0]) is fresher and cache.rejected == 0

    def test_a_stale_put_after_invalidate_is_still_refused(self):
        cache = ResultCache(CAPACITY)
        key = ("select v from u", ())
        for _ in range(5):  # frequent enough to be admitted anywhere
            cache.get(key)
        _full(cache, times=2)
        cache.invalidate(["u"], seq=3)
        cache.put(key, _rows(seq=2, table="u"))
        assert key not in cache._entries
        assert cache.stale_puts == 1 and cache.rejected == 0
        cache.put(key, _rows(seq=3, table="u"))
        assert key in cache._entries and len(cache) == CAPACITY


def _check_index(cache: ResultCache) -> None:
    """The table index lists exactly the live entries."""
    by_table = {}
    for key, entry in cache._entries.items():
        for table in entry.tables:
            by_table.setdefault(table, set()).add(key)
    assert cache._keys_of == by_table


class TestTextIndex:
    """The entries, keyed by statement text, and the table -> keys index
    follow each other through fills, refills, evictions, invalidations
    and ``clear()``."""

    TABLES = ("a", "b", "c")

    def _entry(self, rng, seq):
        tables = frozenset(rng.sample(self.TABLES, rng.randint(1, 2)))
        return CachedResult(("v",), ((seq,),), tables, seq=seq)

    @pytest.mark.parametrize("seed", [3, 1994])
    def test_every_indexed_text_names_a_live_entry(self, seed):
        rng = random.Random(seed)
        cache = ResultCache(16)
        keys = [(f"select v from t{i}", ()) for i in range(40)]
        seq = 1
        for step in range(4000):
            roll = rng.random()
            key = rng.choice(keys[:20] if rng.random() < 0.7 else keys)
            if roll < 0.55:
                cache.get(key)
            elif roll < 0.9:
                cache.put(key, self._entry(rng, seq))
            elif roll < 0.995:
                seq += 1
                written = rng.sample(self.TABLES, rng.randint(1, 2))
                expected = sum(bool(entry.tables & set(written))
                               for entry in cache._entries.values())
                assert cache.invalidate(written, seq) == expected
                assert not any(entry.tables & set(written)
                               for entry in cache._entries.values())
            else:
                cache.clear()
                assert not cache._entries and not cache._keys_of
            _check_index(cache)
        assert cache.rejected and cache.invalidations

    def test_a_refill_keeps_only_the_filling_text(self):
        cache = ResultCache(CAPACITY)
        key, other = ("select v from t", ()), ("SELECT v FROM t", ())
        first = CachedResult(("v",), ((1,),), frozenset({"t"}), seq=1)
        second = CachedResult(("v",), ((2,),), frozenset({"t"}), seq=2)
        cache.put(key, first)
        assert cache.peek(key) is first
        assert cache.peek(other) is None  # another formatting: its own entry
        cache.put(key, second)  # a refill replaces the entry
        assert cache.peek(key) is second and len(cache) == 1
        _check_index(cache)

    def test_a_hit_on_a_replaced_entry_is_refused_and_uncounted(self):
        cache = ResultCache(CAPACITY)
        key = ("select v from t", ())
        cache.put(key, CachedResult(("v",), ((1,),), frozenset({"t"}), seq=1))
        found = cache.peek(key)
        cache.invalidate(["t"], seq=2)  # between the probe and the get
        assert cache.peek(key) is None
        assert (cache.hits, cache.misses) == (0, 0)  # a probe counts nothing
        # the get refuses the invalidated entry: a miss, never a hit
        assert cache.get(key) is None and (cache.hits, cache.misses) == (0, 1)
        cache.put(key, CachedResult(("v",), ((2,),), frozenset({"t"}), seq=2))
        assert cache.get(key) is not found and cache.hits == 1  # refilled
        _check_index(cache)


class TestProcessHitRate:
    """``server.result_cache.hit_rate`` is the process's: derived, when
    read, from the process-wide hit and miss counters, whichever cache
    looked up last."""

    def test_two_servers_one_gauge(self):
        from repro.obs import metrics
        from tests.test_concurrent_server import fresh_db
        from repro.server import QueryServer

        hits = metrics.counter("server.result_cache.hits")
        misses = metrics.counter("server.result_cache.misses")
        base = hits.value, misses.value
        hot, cold = QueryServer(fresh_db()), QueryServer(fresh_db())
        try:
            with hot.connect() as a, cold.connect() as b:
                for _ in range(4):  # one miss, then three hits
                    a.execute("select v from lookup where k = 1")
                for k in range(2):  # two misses
                    b.execute(f"select v from lookup where k = {k}")
                gauge = metrics.snapshot()["gauges"]["server.result_cache.hit_rate"]
        finally:
            hot.close()
            cold.close()
        assert (hits.value - base[0], misses.value - base[1]) == (3, 3)
        assert hot.cache.hit_rate == 0.75 and cold.cache.hit_rate == 0.0
        assert gauge == hits.value / (hits.value + misses.value)


class TestConcurrentAdmission:
    """Both maps count and admit under the lock they already hold: no
    count is lost and no map outgrows its capacity when six threads
    share it."""

    THREADS = 6

    def _race(self, work) -> None:
        barrier = threading.Barrier(self.THREADS)
        failures = []

        def run(seed: int) -> None:
            barrier.wait(timeout=30)
            try:
                work(random.Random(seed))
            except Exception as exc:  # reported below, after the join
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_result_cache(self):
        cache = ResultCache(CAPACITY)
        keys = [(f"q{i}", ()) for i in range(CAPACITY * 5 // 2)]

        def work(rng):
            for _ in range(3):
                _serve(cache, rng.sample(keys, len(keys)))

        self._race(work)
        lookups = self.THREADS * 3 * len(keys)
        assert cache.hits + cache.misses == lookups
        assert cache._admission._touches == lookups % (10 * CAPACITY)
        assert len(cache) == CAPACITY

    def test_statement_memo(self):
        from repro.db.database import Database

        db = Database()
        texts = [f"select v from kv where k = {i}"
                 for i in range(CAPACITY * 5 // 2)]

        def work(rng):
            for text in rng.sample(texts, len(texts)):
                prepared, hit = db.prepare(text)
                assert prepared.sql == text
                assert not (hit and prepared.ad_hoc)

        self._race(work)
        lookups = self.THREADS * len(texts)
        assert db._stmt_admission._touches == lookups % (10 * CAPACITY)
        assert len(db._prepared) == CAPACITY
        assert not any(p.ad_hoc for p in db._prepared.values())
