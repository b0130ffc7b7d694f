"""Concurrent serving suite: sessions, pool, cache, and crash-under-load.

Four layers of checks:

* **unit** — worker-pool backpressure policies, result-cache keying and
  invalidation, session-local UDF scoping;
* **interleaved correctness** — N sessions replay seeded mixed
  read/write scripts concurrently; every read is checked against an
  invariant while in flight (read-your-own-writes, immutable lookups)
  and the final table state must equal a serial replay of the same
  scripts;
* **crash-under-load** — a :class:`FaultSchedule` crash lands mid-commit
  while sessions are in flight; the harvested devices must reboot into a
  consistent store (committed long fields intact, byte-exact);
* **metrics** — the ``server.*`` instrumentation moves.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time

import pytest

import repro.db.database
import repro.db.sql.parser
import repro.server.server
from repro.db.database import Database
from repro.errors import (
    ResolutionError,
    ServerBusyError,
    SessionClosedError,
    SimulatedCrash,
    ValidationError,
    WalError,
)
from repro.obs import digest, metrics, recorder
from repro.server import QueryServer, ResultCache, WorkerPool
from repro.storage import (
    BlockDevice,
    FaultSchedule,
    FaultyDevice,
    LongFieldManager,
    WriteAheadLog,
)
from tests.conftest import executemany

CAPACITY = 1 << 20


def fresh_db() -> Database:
    """A small in-memory database: one mutable table, one immutable."""
    db = Database()
    db.execute("create table events (session integer, seq integer)")
    db.execute("create table lookup (k integer, v integer)")
    for k in range(20):
        db.execute("insert into lookup values (?, ?)", [k, k * k])
    return db


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #


class TestWorkerPool:
    def test_completes_all_submitted_work(self):
        pool = WorkerPool(workers=4, queue_depth=16)
        futures = [pool.submit(lambda x: x * x, i) for i in range(50)]
        assert [f.result(timeout=10) for f in futures] == [i * i for i in range(50)]
        pool.shutdown()

    def test_task_exception_lands_in_future(self):
        pool = WorkerPool(workers=1)

        def boom():
            raise ValueError("task failure")

        future = pool.submit(boom)
        with pytest.raises(ValueError, match="task failure"):
            future.result(timeout=10)
        # the pool survived the failure: its slot was freed
        assert pool.submit(lambda: 7).result(timeout=10) == 7
        pool.shutdown()

    def test_reject_policy_sheds_load_when_full(self):
        pool = WorkerPool(workers=1, queue_depth=1, policy="reject")
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10)
            return "done"

        running = pool.submit(blocker)
        assert started.wait(timeout=10)  # the only slot busy
        queued = pool.submit(lambda: "queued")  # fills the only slot
        with pytest.raises(ServerBusyError):
            pool.submit(lambda: "rejected")
        release.set()
        assert running.result(timeout=10) == "done"
        assert queued.result(timeout=10) == "queued"
        pool.shutdown()

    def test_block_policy_waits_for_a_slot(self):
        pool = WorkerPool(workers=1, queue_depth=1, policy="block")
        release = threading.Event()
        pool.submit(lambda: release.wait(timeout=10))
        pool.submit(lambda: 1)  # fills the queue
        third_done = []

        def submit_third():
            third_done.append(pool.submit(lambda: 3))

        t = threading.Thread(target=submit_third)
        t.start()
        t.join(timeout=0.2)
        assert t.is_alive()  # blocked on the full queue, not rejected
        release.set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert third_done[0].result(timeout=10) == 3
        pool.shutdown()

    def test_configuration_validated(self):
        with pytest.raises(ValidationError):
            WorkerPool(workers=0)
        with pytest.raises(ValidationError):
            WorkerPool(queue_depth=0)
        with pytest.raises(ValidationError):
            WorkerPool(policy="drop-newest")

    def test_shutdown_refuses_new_work(self):
        pool = WorkerPool(workers=1)
        pool.shutdown()
        with pytest.raises(ServerBusyError):
            pool.submit(lambda: 1)

    def test_shutdown_wakes_blocked_submitter(self):
        # Regression: a block-policy submitter parked on a full queue
        # used to sleep forever when the pool shut down underneath it
        # (the stdlib queue's put knew nothing about pool shutdown).
        # The deterministic schedule: occupy the slot, fill the queue,
        # park a submitter, then shut down — the submitter must wake and
        # fail instead of hanging.
        pool = WorkerPool(workers=1, queue_depth=1, policy="block")
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10)

        pool.submit(blocker)
        assert started.wait(timeout=10)  # the only slot busy
        queued = pool.submit(lambda: "queued")  # fills the only slot
        outcome = []

        def parked_submitter():
            try:
                pool.submit(lambda: "never admitted")
            except ServerBusyError as exc:
                outcome.append(exc)

        t = threading.Thread(target=parked_submitter)
        t.start()
        deadline = time.time() + 10
        while pool.blocked_submitters == 0 and time.time() < deadline:
            time.sleep(0.005)
        assert pool.blocked_submitters == 1  # parked exactly where the bug bit
        pool.shutdown(wait=False)
        t.join(timeout=10)
        assert not t.is_alive(), "submitter slept through shutdown"
        assert len(outcome) == 1
        release.set()
        pool.shutdown(wait=True)
        # The already-admitted statement still ran to completion.
        assert queued.result(timeout=10) == "queued"


# --------------------------------------------------------------------- #
# admission slots: blocking callers run on their own thread
# --------------------------------------------------------------------- #


def _occupy(pool: WorkerPool) -> threading.Event:
    """Hold one slot with a submitted task; set the returned event to
    free it."""
    release, started = threading.Event(), threading.Event()

    def blocker():
        started.set()
        release.wait(timeout=10)

    pool.submit(blocker)
    assert started.wait(timeout=10)
    return release


def _register_slow(db: Database):
    """Register ``slow()``: a UDF that parks its statement until released.

    Returns ``(release, started)`` events."""
    release, started = threading.Event(), threading.Event()

    def slow():
        started.set()
        release.wait(timeout=10)
        return 1

    db.functions.register("slow", slow)
    return release, started


def _in_thread(fn):
    """Run ``fn`` on a new thread; returns (thread, outcome list)."""
    outcome = []

    def body():
        try:
            outcome.append(fn())
        except ServerBusyError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    return thread, outcome


class TestAdmissionSlots:
    def test_free_slot_runs_on_the_caller_busy_slot_queues(self):
        pool = WorkerPool(workers=1)
        me = threading.get_ident()
        assert pool.run(threading.get_ident) == me
        release = _occupy(pool)
        thread, outcome = _in_thread(lambda: pool.run(threading.get_ident))
        while pool.pending == 0 and thread.is_alive():
            time.sleep(0.005)
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome[0] == thread.ident  # the waiting caller ran it
        pool.shutdown()

    def test_serving_starts_no_thread_and_runs_on_the_caller(self):
        """5 sessions on 2 slots: 2 statements hold the slots, 3 wait in
        the FIFO; the server starts no thread, and every statement runs
        on the thread that called ``Session.execute``."""
        db = fresh_db()
        release, started = threading.Event(), threading.Semaphore(0)

        def ident(hold):
            if hold:
                started.release()
                release.wait(timeout=10)
            return threading.get_ident()

        db.functions.register("ident", ident)
        before = set(threading.enumerate())
        with QueryServer(db, workers=2, result_cache=False) as server:
            assert set(threading.enumerate()) == before
            sessions = [server.connect() for _ in range(5)]
            ran = {}

            def client(k):
                ran[threading.get_ident()] = sessions[k].execute(
                    "select ident(?) from lookup where k = 0",
                    [int(k < 2)]).scalar()

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(5)]
            for t in threads[:2]:
                t.start()
                assert started.acquire(timeout=10)
            for t in threads[2:]:
                t.start()
            deadline = time.time() + 10
            while server.pool.pending < 3 and time.time() < deadline:
                time.sleep(0.005)
            assert server.pool.pending == 3
            assert set(threading.enumerate()) - before == set(threads)
            release.set()
            for t in threads:
                t.join(timeout=10)
        assert ran == {t.ident: t.ident for t in threads}

    def test_blocking_caller_never_overtakes_a_queued_task(self):
        pool = WorkerPool(workers=1)
        order = []
        release = _occupy(pool)
        queued = pool.submit(order.append, "queued first")
        thread, _ = _in_thread(lambda: pool.run(order.append, "blocking"))
        while pool.pending < 2 and thread.is_alive():
            time.sleep(0.005)
        assert pool.pending == 2  # behind the queued task, not inline
        release.set()
        thread.join(timeout=10)
        queued.result(timeout=10)
        assert order == ["queued first", "blocking"]
        pool.shutdown()

    def test_reject_policy_refuses_a_blocking_caller(self):
        pool = WorkerPool(workers=1, queue_depth=1, policy="reject")
        release = _occupy(pool)
        queued = pool.submit(lambda: "queued")  # fills the queue
        with pytest.raises(ServerBusyError, match="admission queue full"):
            pool.run(lambda: "rejected")
        release.set()
        assert queued.result(timeout=10) == "queued"
        pool.shutdown()
        with pytest.raises(ServerBusyError, match="worker pool is shut down"):
            pool.run(lambda: "too late")

    def test_block_policy_parks_a_blocking_caller_and_shutdown_wakes_it(self):
        pool = WorkerPool(workers=1, queue_depth=1, policy="block")
        release = _occupy(pool)
        queued = pool.submit(lambda: "queued")
        thread, outcome = _in_thread(lambda: pool.run(lambda: "never admitted"))
        deadline = time.time() + 10
        while pool.blocked_submitters == 0 and time.time() < deadline:
            time.sleep(0.005)
        assert pool.blocked_submitters == 1
        pool.shutdown(wait=False)
        thread.join(timeout=10)
        assert not thread.is_alive(), "blocking caller slept through shutdown"
        assert "shut down while waiting" in str(outcome[0])
        release.set()
        pool.shutdown(wait=True)
        assert queued.result(timeout=10) == "queued"

    def test_shutdown_waits_for_an_inline_statement(self):
        db = fresh_db()
        release, started = _register_slow(db)
        server = QueryServer(db, workers=2, result_cache=False)
        s = server.connect()
        client, outcome = _in_thread(
            lambda: s.execute("select slow() from lookup where k = 0").rows)
        assert started.wait(timeout=10)
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # the inline statement still holds a slot
        release.set()
        closer.join(timeout=10)
        client.join(timeout=10)
        assert not closer.is_alive() and not client.is_alive()
        assert outcome == [[(1,)]]

    def test_never_more_than_workers_statements_at_once(self):
        """6 sessions on 2 slots, so statements run both at once and after
        waiting in the FIFO; the switch interval is shortened so a lost update to
        the slot count would show."""
        db = fresh_db()
        lock = threading.Lock()
        inside = peak = 0

        def probe():
            nonlocal inside, peak
            with lock:
                inside += 1
                peak = max(peak, inside)
            time.sleep(0.001)
            with lock:
                inside -= 1
            return 1

        db.functions.register("probe", probe)
        sql = "select probe() from lookup where k = 0"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(db, workers=2, result_cache=False) as server:
                sessions = [server.connect() for _ in range(6)]
                start = threading.Barrier(len(sessions))

                def client(session):
                    start.wait(timeout=10)
                    for _ in range(12):
                        session.execute(sql)

                threads = [threading.Thread(target=client, args=(s,))
                           for s in sessions]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert sum(s.statements for s in sessions) == 6 * 12
                assert server.pool.pending == 0
        finally:
            sys.setswitchinterval(interval)
        assert peak == 2

    def test_inline_exception_is_its_own_type_and_frees_the_slot(self):
        db = fresh_db()
        with QueryServer(db, workers=1) as server:
            s = server.connect()
            with pytest.raises(ResolutionError) as inline:
                s.execute("select nope from lookup")
            # The only slot taken: the same statement waits for it in the
            # FIFO, and its exception reaches the caller all the same.
            release = _occupy(server.pool)
            pooled = []

            def queued():
                try:
                    s.execute("select nope from lookup")
                except ResolutionError as exc:
                    pooled.append(exc)

            thread = threading.Thread(target=queued)
            thread.start()
            while server.pool.pending == 0 and thread.is_alive():
                time.sleep(0.005)
            release.set()
            thread.join(timeout=10)
            assert type(inline.value) is type(pooled[0])
            # the only slot was freed: the next statement runs
            assert s.execute("select count(*) from lookup").scalar() == 20

    def test_refused_statement_is_not_counted_as_run(self):
        db = fresh_db()
        release, started = _register_slow(db)
        sql = "select slow() from lookup where k = 0"
        with QueryServer(db, workers=1, queue_depth=1, policy="reject",
                         result_cache=False) as server:
            s = server.connect()
            running, _ = _in_thread(lambda: s.execute(sql))
            assert started.wait(timeout=10)
            queued, _ = _in_thread(lambda: s.execute(sql))
            while server.pool.pending == 0 and queued.is_alive():
                time.sleep(0.005)
            with pytest.raises(ServerBusyError):
                s.execute(sql)
            release.set()
            for thread in (running, queued):
                thread.join(timeout=10)
            assert s.statements == 2

    def test_inline_and_pooled_statements_account_alike(self):
        db = fresh_db()
        recorder.enable()
        recorder.reset()
        counts = {name: metrics.counter(name).value
                  for name in ("server.tasks", "server.statements")}
        waits = metrics.histogram("server.wait_seconds").count
        with QueryServer(db, workers=1) as server:
            s = server.connect(name="accounted")
            s.execute("select v from lookup where k = 1")
            release = _occupy(server.pool)  # one more task, not a statement
            thread, _ = _in_thread(
                lambda: s.execute("select v from lookup where k = 2"))
            while server.pool.pending == 0 and thread.is_alive():
                time.sleep(0.005)
            release.set()
            thread.join(timeout=10)
            assert s.statements == 2
        assert metrics.counter("server.statements").value \
            == counts["server.statements"] + 2
        assert metrics.counter("server.tasks").value \
            == counts["server.tasks"] + 3
        assert metrics.histogram("server.wait_seconds").count == waits + 3
        pooled, inline = recorder.get_recorder().recent(2)
        assert inline.pool_wait_seconds == 0.0 <= pooled.pool_wait_seconds
        assert inline.session == pooled.session == "accounted"
        assert inline.trace_id and pooled.trace_id
        assert inline.trace_id != pooled.trace_id

    def test_inline_statement_under_an_open_scope_keeps_its_own_record(self):
        """A served statement issued from inside another statement (a UDF
        here) gets its own record, and must leave the outer statement's
        scope and wait as it found them."""
        db = fresh_db()
        recorder.enable()
        recorder.reset()
        with QueryServer(db, workers=2, result_cache=False) as server:
            inner = server.connect(name="inner")
            db.functions.register("nested", lambda: inner.execute(
                "select v from lookup where k = 3").scalar())
            outer = server.connect(name="outer")
            assert outer.execute(
                "select nested() from lookup where k = 0").rows == [(9,)]
        records = recorder.get_recorder().recent(2)
        assert [r.session for r in records] == ["outer", "inner"]
        assert [r.rows for r in records] == [1, 1]
        assert records[0].kind == "read"  # Database.execute's notes landed
        # issued under the outer statement's scope, so it joins its trace
        assert records[0].trace_id == records[1].trace_id


# --------------------------------------------------------------------- #
# result cache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_formattings_are_separate_entries_with_the_same_rows(self):
        db = fresh_db()
        texts = ("select v from lookup where k = 3",
                 "SELECT   v   FROM lookup WHERE k = 3")
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                for _ in range(2):  # two misses, then two hits
                    assert [s.execute(sql).rows for sql in texts] \
                        == [[(9,)], [(9,)]]
            assert len(server.cache) == 2
            assert server.cache.hits == 2 and server.cache.misses == 2

    def test_a_miss_of_a_new_literal_variant_unparses_nothing(
            self, monkeypatch):
        import repro.db.sql.prepared

        db = fresh_db()
        with QueryServer(db, workers=1) as server, server.connect() as s:
            s.execute("select v from lookup where k = 1")  # its shape memoized
            calls = []
            real = repro.db.sql.prepared.unparse
            monkeypatch.setattr(
                repro.db.sql.prepared, "unparse",
                lambda *args, **kw: calls.append(args) or real(*args, **kw))
            assert s.execute("select v from lookup where k = 2").rows == [(4,)]
            assert (server.cache.hits, server.cache.misses) == (0, 2)
        assert calls == []

    def test_params_distinguish_entries(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                assert s.execute("select v from lookup where k = ?", [2]).scalar() == 4
                assert s.execute("select v from lookup where k = ?", [4]).scalar() == 16
            assert server.cache.misses == 2 and server.cache.hits == 0

    def test_write_invalidates_referenced_table_only(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                s.execute("select count(*) from events")
                s.execute("select v from lookup where k = 1")
                assert len(server.cache) == 2
                s.execute("insert into events values (1, 1)")
                # the events entry dropped, the lookup entry survived
                assert len(server.cache) == 1
                assert s.execute("select count(*) from events").scalar() == 1
                assert server.cache.invalidations == 1

    def test_stale_results_never_served(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                for expected in range(1, 6):
                    s.execute("insert into events values (7, ?)", [expected])
                    got = s.execute(
                        "select count(*) from events where session = 7"
                    ).scalar()
                    assert got == expected

    def test_explain_is_not_cached(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                s.execute("explain select v from lookup where k = 1")
                assert len(server.cache) == 0

    def test_cache_disabled(self):
        db = fresh_db()
        with QueryServer(db, workers=2, result_cache=False) as server:
            with server.connect() as s:
                assert s.execute("select v from lookup where k = 5").scalar() == 25
                assert s.execute("select v from lookup where k = 5").scalar() == 25
            assert server.cache is None

    def test_lru_eviction_bounded(self):
        cache = ResultCache(capacity=2)
        from repro.server import CachedResult

        for i in range(4):
            cache.put(("q%d" % i, ()), CachedResult((), (), frozenset({"t"}), seq=1))
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ResultCache(capacity=0)

    def test_late_snapshot_fill_cannot_resurrect_stale_rows(self):
        # Regression: a lock-free MVCC reader computes rows against
        # version N, a writer commits N+1 and invalidates, and only THEN
        # the reader's put arrives.  Without the per-table low-water mark
        # the stale rows re-entered the cache and were served forever.
        from repro.server import CachedResult

        cache = ResultCache(capacity=8)
        key = ("select v from t", ())
        stale = CachedResult(("v",), ((1,),), frozenset({"t"}), seq=1)
        cache.invalidate(["t"], seq=2)  # the write beat the reader's put
        cache.put(key, stale)
        assert cache.get(key) is None
        assert cache.stale_puts == 1
        fresh = CachedResult(("v",), ((2,),), frozenset({"t"}), seq=2)
        cache.put(key, fresh)
        assert cache.get(key) is fresh
        # A second late arrival for the same key loses to the fresher one.
        cache.put(key, CachedResult(("v",), ((0,),), frozenset({"t"}), seq=1))
        assert cache.get(key) is fresh
        assert cache.stale_puts == 2

    @pytest.mark.parametrize("interleaving_seed", [7, 1994])
    def test_seeded_put_invalidate_interleaving(self, interleaving_seed):
        # A writer advancing the invalidation mark races readers that
        # capture a sequence, yield (widening the stale window), then
        # put.  Whatever interleaving the seed produces, the surviving
        # entry must never predate the final invalidation mark.
        from repro.server import CachedResult

        cache = ResultCache(capacity=8)
        key = ("select v from t", ())
        rng = random.Random(interleaving_seed)
        final_seq = 200
        yields = {i: rng.random() < 0.5 for i in range(final_seq + 1)}
        current = [0]

        def writer():
            for seq in range(1, final_seq + 1):
                current[0] = seq
                cache.invalidate(["t"], seq=seq)
                if yields[seq]:
                    time.sleep(0)

        def reader():
            for _ in range(final_seq):
                seq = current[0]
                time.sleep(0)  # the put is now late by construction
                cache.put(
                    key, CachedResult(("v",), ((seq,),), frozenset({"t"}),
                                      seq=seq)
                )

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entry = cache.get(key)
        assert entry is None or entry.seq >= final_seq


class TestTextPathHits:
    """A served hit is answered from its text: the result cache, keyed
    by it, is probed before ``Database.prepare``."""

    TEXTS = tuple(f"select v from lookup where k = {k}" for k in range(3))

    def test_a_hit_makes_no_prepare_call_and_leaves_the_memo_alone(
            self, monkeypatch):
        db = fresh_db()
        with QueryServer(db, workers=1) as server, server.connect() as s:
            for sql in self.TEXTS:
                s.execute(sql)
            order = list(db._prepared)
            admission = (dict(db._stmt_admission._counts),
                         db._stmt_admission._touches)
            memo = {name: metrics.counter(f"server.stmt_memo.{name}").value
                    for name in ("hits", "misses", "rejected")}
            prepared = []
            real = db.prepare
            monkeypatch.setattr(
                db, "prepare", lambda sql: prepared.append(sql) or real(sql))
            for k in reversed(range(len(self.TEXTS))):
                assert s.execute(self.TEXTS[k]).rows == [(k * k,)]
            assert prepared == []
            assert list(db._prepared) == order
            assert (dict(db._stmt_admission._counts),
                    db._stmt_admission._touches) == admission
            assert memo == {
                name: metrics.counter(f"server.stmt_memo.{name}").value
                for name in ("hits", "misses", "rejected")}
            assert (server.cache.hits, server.cache.misses) == (3, 3)

    def test_a_hit_leaves_the_record_a_miss_leaves(self):
        db = fresh_db()
        recorder.enable()
        with QueryServer(db, workers=1) as server, server.connect() as s:
            s.execute("select v from lookup where k = 4")
            s.execute("select v from lookup where k = 4")  # text hit
            hit, miss = recorder.get_recorder().recent(2)
        assert hit.cache_hit and not miss.cache_hit
        assert (hit.rows, hit.kind, hit.shape, hit.digest) \
            == (1, "read", miss.shape, miss.digest)

    def test_an_entry_gone_between_probe_and_get_is_one_miss(
            self, monkeypatch):
        db = fresh_db()
        sql = "select v from lookup where k = 2"
        with QueryServer(db, workers=1) as server, server.connect() as s:
            s.execute(sql)
            cache, probe = server.cache, server.cache.peek

            def probe_then_evict(key):
                entry = probe(key)
                cache.clear()
                return entry

            monkeypatch.setattr(cache, "peek", probe_then_evict)
            assert s.execute(sql).rows == [(4,)]
            assert (cache.hits, cache.misses) == (0, 2)
            assert len(cache) == 1  # filled again

    def test_a_shadowing_session_gets_its_own_answer(self):
        db = fresh_db()
        db.register_function("tag", lambda: "shared")
        sql = "select tag() from lookup where k = 0"
        with QueryServer(db, workers=2) as server:
            a = server.connect(name="a")
            b = server.connect(name="b")
            assert a.execute(sql).rows == [("shared",)]
            assert a.execute(sql).rows == [("shared",)]  # from the entry
            assert server.cache.hits == 1
            b.register_function("tag", lambda: "B", replace=True)
            assert b.execute(sql).rows == [("B",)]  # not the shared entry
            assert b.execute(sql).rows == [("B",)]
            assert a.execute(sql).rows == [("shared",)]
            assert server.cache.hits == 2
            a.close()
            b.close()

    def test_text_hits_racing_inserts_never_read_behind_an_ack(self):
        """Readers repeat the same texts, so nearly every read is a text
        hit, while a writer INSERTs into the table they read.  A read that
        starts after a write was acknowledged must see it."""
        db = fresh_db()
        writes, readers = 150, 3
        acked = [0]
        stop = threading.Event()
        behind: list[tuple] = []
        texts = ("select count(*) from events",
                 "select count(*) from events where session = 0",
                 "select max(seq) + 1 from events")

        def writer(server):
            with server.connect(name="writer") as s:
                for i in range(writes):
                    s.execute("insert into events values (0, ?)", [i])
                    acked[0] = i + 1
                    time.sleep(0)
            stop.set()

        def reader(server, seed):
            rng = random.Random(seed)
            try:
                with server.connect(name=f"reader-{seed}") as s:
                    while not stop.is_set():
                        floor = acked[0]
                        sql = rng.choice(texts)
                        got = s.execute(sql).scalar() or 0
                        if got < floor:
                            behind.append((sql, floor, got))
            except Exception as exc:  # reported below, after the join
                behind.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(db, workers=4) as server:
                threads = [threading.Thread(target=writer, args=(server,))] + [
                    threading.Thread(target=reader, args=(server, seed))
                    for seed in range(readers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                hits = server.cache.hits
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert behind == []
        assert hits > writes


# --------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------- #


class TestSessions:
    def test_local_udf_is_invisible_to_other_sessions(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            a = server.connect(name="a")
            b = server.connect(name="b")
            a.register_function("sessionTag", lambda: "A")
            assert a.execute("select sessionTag() from lookup where k = 0").rows \
                == [("A",)]
            with pytest.raises(ResolutionError):
                b.execute("select sessionTag() from lookup where k = 0")
            a.close()
            b.close()

    def test_local_udf_results_bypass_shared_cache(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            a = server.connect(name="a")
            b = server.connect(name="b")
            a.register_function("sessionTag", lambda: "A")
            b.register_function("sessionTag", lambda: "B")
            sql = "select sessionTag() from lookup where k = 0"
            assert a.execute(sql).rows == [("A",)]
            assert b.execute(sql).rows == [("B",)]  # not A's cached answer
            assert len(server.cache) == 0
            a.close()
            b.close()

    def test_closed_session_refuses_statements(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            s = server.connect()
            s.close()
            with pytest.raises(SessionClosedError):
                s.execute("select 1 from lookup where k = 0")

    def test_statement_counter_survives_concurrent_submitters(self):
        """Regression: ``statements += 1`` used to be an unlocked read-
        modify-write, so threads sharing a session lost increments."""
        db = fresh_db()
        per_thread, threads = 25, 4
        with QueryServer(db, workers=2) as server:
            s = server.connect(name="shared")
            start = threading.Barrier(threads)

            def hammer() -> None:
                start.wait()
                for k in range(per_thread):
                    s.execute("select v from lookup where k = ?", [k % 20])

            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert s.statements == per_thread * threads
            s.close()

    def test_concurrent_close_detaches_exactly_once(self):
        """Regression: close() is idempotent under racing callers — the
        server must be told about the detach exactly once, or the active-
        session count goes negative for later accounting."""
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            s = server.connect(name="doomed")
            other = server.connect(name="survivor")
            start = threading.Barrier(8)

            def slam() -> None:
                start.wait()
                s.close()

            workers = [threading.Thread(target=slam) for _ in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert s.closed
            assert server.active_sessions == 1
            other.close()
            assert server.active_sessions == 0

    def test_active_session_accounting(self):
        db = fresh_db()
        with QueryServer(db, workers=2) as server:
            assert server.active_sessions == 0
            a = server.connect()
            b = server.connect()
            assert server.active_sessions == 2
            a.close()
            assert server.active_sessions == 1
            b.close()
            assert server.active_sessions == 0

    def test_server_metrics_move(self):
        db = fresh_db()
        before = metrics.counter("server.statements").value
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                s.execute("select count(*) from lookup")
                s.execute("select count(*) from lookup")
        snap = metrics.snapshot()
        assert metrics.counter("server.statements").value == before + 2
        assert "server.wait_seconds" in snap["histograms"]
        assert "server.result_cache.hit_rate" in snap["gauges"]


# --------------------------------------------------------------------- #
# interleaved mixed workload vs serial replay
# --------------------------------------------------------------------- #

N_SESSIONS = 6
STEPS = 40


def build_script(session_id: int, seed: int) -> list[tuple]:
    """One session's seeded statement stream (mixed read/write)."""
    rng = random.Random(seed * 10_007 + session_id)
    script: list[tuple] = []
    inserts = 0
    for step in range(STEPS):
        roll = rng.random()
        if roll < 0.25:
            inserts += 1
            script.append(
                ("write", "insert into events values (?, ?)",
                 [session_id, inserts])
            )
        elif roll < 0.6:
            k = rng.randrange(20)
            script.append(
                ("lookup", "select v from lookup where k = ?", [k], k * k)
            )
        else:
            # read-your-own-writes: must equal own inserts so far
            script.append(
                ("own-count",
                 "select count(*) from events where session = ?",
                 [session_id], inserts)
            )
    return script


def replay_serial(scripts: dict[int, list[tuple]]) -> list[tuple]:
    """Run every script one session at a time; returns sorted events rows."""
    db = fresh_db()
    with QueryServer(db, workers=1) as server:
        for session_id in sorted(scripts):
            with server.connect(name=f"serial-{session_id}") as s:
                for op in scripts[session_id]:
                    s.execute(op[1], op[2])
        return sorted(db.execute("select session, seq from events").rows)


class TestInterleavedCorrectness:
    @pytest.mark.parametrize("interleaving_seed", [1, 2, 3])
    def test_mixed_workload_matches_serial_replay(self, interleaving_seed):
        scripts = {
            sid: build_script(sid, interleaving_seed)
            for sid in range(N_SESSIONS)
        }
        db = fresh_db()
        errors: list[BaseException] = []

        def client(session_id: int, server: QueryServer):
            try:
                with server.connect(name=f"c{session_id}") as s:
                    for op in scripts[session_id]:
                        result = s.execute(op[1], op[2])
                        if op[0] == "lookup":
                            assert result.scalar() == op[3]
                        elif op[0] == "own-count":
                            # sync execute + invalidation under the write
                            # lock => a session always sees its own writes
                            assert result.scalar() == op[3]
            except BaseException as exc:  # propagate to the main thread
                errors.append(exc)

        with QueryServer(db, workers=4) as server:
            threads = [
                threading.Thread(target=client, args=(sid, server))
                for sid in range(N_SESSIONS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors, errors
        concurrent_rows = sorted(db.execute("select session, seq from events").rows)
        assert concurrent_rows == replay_serial(scripts)

    def test_global_reads_are_monotone_snapshots(self):
        db = fresh_db()
        total_writes = 30
        seen: list[int] = []
        stop = threading.Event()

        def writer(server):
            with server.connect(name="writer") as s:
                for i in range(total_writes):
                    s.execute("insert into events values (0, ?)", [i])
            stop.set()

        def reader(server):
            with server.connect(name="reader") as s:
                while not stop.is_set():
                    seen.append(s.execute("select count(*) from events").scalar())

        with QueryServer(db, workers=4) as server:
            threads = [threading.Thread(target=writer, args=(server,)),
                       threading.Thread(target=reader, args=(server,))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        # every snapshot is a committed state, and they never go backwards
        assert all(0 <= c <= total_writes for c in seen)
        assert seen == sorted(seen)


# --------------------------------------------------------------------- #
# crash mid-commit under load
# --------------------------------------------------------------------- #


def _blob_payload(key: int) -> bytes:
    """A deterministic, recognizable payload for one blob id."""
    return bytes([key % 251]) * (600 + 13 * key)


def build_wal_server_stack(schedule: FaultSchedule | None = None):
    """A WAL-backed Database with a blobs table and LFM-writing UDFs."""
    data = BlockDevice(CAPACITY)
    journal = BlockDevice(CAPACITY)
    fdata, fjournal = data, journal
    if schedule is not None:
        fdata = FaultyDevice(data, schedule, name="data")
        fjournal = FaultyDevice(journal, schedule, name="journal")
    wal = WriteAheadLog(fdata, fjournal, recover=False)
    lfm = LongFieldManager(wal)
    db = Database(lfm=lfm)
    db.execute("create table blobs (id integer, payload longfield)")

    def store_blob(ctx, key):
        return ctx.lfm.create(_blob_payload(int(key)))

    def blob_bytes(ctx, handle):
        return ctx.lfm.read(handle)

    db.register_function("storeBlob", store_blob)
    db.register_function("blobBytes", blob_bytes)
    return db, wal, fdata, fjournal


def run_blob_load(server, n_sessions: int, blobs_per_session: int):
    """Mixed blob writes + reads from N sessions; returns raised errors."""
    errors: list[BaseException] = []

    def client(session_id: int):
        try:
            with server.connect(name=f"load-{session_id}") as s:
                for i in range(blobs_per_session):
                    key = session_id * 100 + i
                    s.execute(
                        "insert into blobs values (?, storeBlob(?))",
                        [key, key],
                    )
                    s.execute("select count(*) from blobs")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(sid,))
               for sid in range(n_sessions)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return errors


def count_blob_workload_writes() -> int:
    """Fault-free dry run: device write calls for the full blob load."""
    schedule = FaultSchedule(seed=0, crash_after_writes=None)
    db, _, _, _ = build_wal_server_stack(schedule)
    with QueryServer(db, workers=4) as server:
        errors = run_blob_load(server, n_sessions=4, blobs_per_session=3)
    assert not errors, errors
    return schedule.writes_seen


class TestCrashUnderLoad:
    def test_crash_mid_commit_recovers_consistent(self, test_seed):
        total_writes = count_blob_workload_writes()
        assert total_writes > 4
        crash_at = total_writes // 2
        schedule = FaultSchedule(
            seed=test_seed, crash_after_writes=crash_at, torn="prefix"
        )
        db, _, fdata, fjournal = build_wal_server_stack(schedule)
        with QueryServer(db, workers=4) as server:
            errors = run_blob_load(server, n_sessions=4, blobs_per_session=3)
        # the machine went down mid-run: at least one statement crashed —
        # in its commit, or in storeBlob()'s extent write, which surfaces
        # as the UDF's ExecutionError caused by the crash
        assert any(isinstance(e, SimulatedCrash)
                   or isinstance(e.__cause__, SimulatedCrash)
                   for e in errors), errors

        # harvest the wreck and reboot into recovery
        rdata = BlockDevice(CAPACITY)
        rdata.write(0, fdata.snapshot())
        rjournal = BlockDevice(CAPACITY)
        rjournal.write(0, fjournal.snapshot())
        recovered_wal = WriteAheadLog(rdata, rjournal, recover=True)
        meta = recovered_wal.last_committed_meta or {"next_id": 1, "fields": {}}
        recovered = LongFieldManager.restore(recovered_wal, meta)

        # every committed long field must read back byte-exact; the store
        # is at some committed prefix of the load, never torn
        field_ids = sorted(int(fid) for fid in meta["fields"])
        for field_id in field_ids:
            payload = recovered.read(recovered.handle(field_id))
            expected = {
                _blob_payload(key)
                for key in [s * 100 + i for s in range(4) for i in range(3)]
                if len(_blob_payload(key)) == len(payload)
            }
            assert bytes(payload) in expected
        assert 0 <= len(field_ids) <= 12

    def test_fault_free_load_commits_everything(self):
        db, wal, _, _ = build_wal_server_stack()
        with QueryServer(db, workers=4) as server:
            errors = run_blob_load(server, n_sessions=4, blobs_per_session=3)
        assert not errors, errors
        assert db.execute("select count(*) from blobs").scalar() == 12
        assert wal.last_committed_meta is not None
        assert len(wal.last_committed_meta["fields"]) == 12


# --------------------------------------------------------------------- #
# serving throughput sanity (tiny version of the bench workload)
# --------------------------------------------------------------------- #


class TestServingSanity:
    def test_many_threads_hammering_one_server(self):
        db = fresh_db()
        with QueryServer(db, workers=8) as server:
            errors: list[BaseException] = []

            def client(k: int):
                try:
                    with server.connect() as s:
                        for i in range(25):
                            assert s.execute(
                                "select v from lookup where k = ?", [i % 20]
                            ).scalar() == (i % 20) ** 2
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
            assert server.cache.hit_rate > 0.5

    def test_async_pipelining(self):
        """Ten statements in flight on one session at once — more than the
        slots, so some queue — each get their own answer."""
        db = fresh_db()
        with QueryServer(db, workers=4) as server:
            with server.connect() as s:
                values = [None] * 10

                def ask(k: int) -> None:
                    values[k] = s.execute(
                        "select v from lookup where k = ?", [k]).scalar()

                threads = [threading.Thread(target=ask, args=(k,))
                           for k in range(10)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            assert values == [k * k for k in range(10)]


# --------------------------------------------------------------------- #
# one parse per statement
# --------------------------------------------------------------------- #

@pytest.fixture
def parse_calls(monkeypatch):
    """Counts every call of the SQL parser, whichever module's binding of
    ``parse`` it goes through (the obs plane included: anything that
    parses behind the engine's back reaches ``repro.db.sql.parser``)."""
    calls: list[str] = []
    original = repro.db.sql.parser.parse

    def counting(sql):
        calls.append(sql)
        return original(sql)

    for module in (repro.db.database, repro.db.sql.parser):
        monkeypatch.setattr(module, "parse", counting)
    assert recorder.get_recorder().enabled and digest.is_enabled()
    return calls


class TestOneParsePerStatement:
    STATEMENTS = (
        "select v from lookup where k = 3",
        "select count(*) from lookup where k in "
        "(select seq from events)",
        "explain select v from lookup",
        "insert into events values (1, 1)",
    )

    @pytest.mark.parametrize("result_cache", [True, False])
    def test_served_statement_parses_once_then_never(self, parse_calls,
                                                     result_cache):
        db = fresh_db()
        del parse_calls[:]
        with QueryServer(db, workers=1, result_cache=result_cache) as server:
            with server.connect() as session:
                for sql in self.STATEMENTS:
                    session.execute(sql)
                    assert parse_calls == [sql], "fresh statement"
                    session.execute(sql)
                    assert parse_calls == [sql], "repeat"
                    del parse_calls[:]

    def test_direct_statement_parses_exactly_once_every_time(self,
                                                             parse_calls):
        # bare text is ad hoc: compiled for the one call, never memoized
        db = fresh_db()
        for sql in self.STATEMENTS:
            for _ in range(3):
                del parse_calls[:]
                db.execute(sql)
                assert parse_calls == [sql]

    def test_direct_template_parses_once_then_never(self, parse_calls):
        # text that comes with params goes through Database.prepare, and
        # so does Database.analyze
        db = fresh_db()
        select = "select v from lookup where k = ?"
        insert = "insert into events values (?, ?)"
        del parse_calls[:]
        for k in range(3):
            assert db.execute(select, [k]).rows == db.execute(
                "select v from lookup where k = %d" % k).rows
            db.execute(insert, [1, k])
        executemany(db, insert, [[2, 2], [2, 3]])
        assert db.analyze(select) == []
        with QueryServer(db, workers=1, result_cache=False) as server:
            with server.connect() as session:
                session.execute(select, [1])
        assert [sql for sql in parse_calls if "?" in sql] == [select, insert]

    def test_digest_accounting_loads_no_database_module(self):
        script = (
            "import sys, types\n"
            "import repro.obs.digest as digest\n"
            "record = types.SimpleNamespace(\n"
            "    sql='select 1 from t', ok=True, rows=1, pages_read=0,\n"
            "    pages_written=0, cache_hit=False, wall_seconds=0.001,\n"
            "    phases={})\n"
            "assert digest.observe(record) is not None\n"
            "print([m for m in sys.modules if m.startswith('repro.db')])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PYTHONPATH": ":".join(sys.path)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


# --------------------------------------------------------------------- #
# warm statements (memoized check + plans) racing committed DML
# --------------------------------------------------------------------- #


class TestWarmStatementsUnderWrites:
    """One reader repeats a parameterized join — directly and through a
    session — while a writer commits rows to a joined table, so the
    statement's bound slot is re-stamped under the reader's feet."""

    JOIN = ("select count(*), max(e.seq) from events e, lookup l"
            " where e.session = l.k and l.k >= ?")
    #: reader rounds the writer keeps committing through (and until they
    #: started at more than 10 versions)
    ROUNDS = 60

    def test_every_answer_matches_the_naive_oracle_on_its_snapshot(self):
        from repro.db.sql import Prepared, parse

        db = fresh_db()
        db.execute("create index ixLookup on lookup (k)")
        db.execute("insert into events values (0, 0)")
        oracle = Prepared(self.JOIN, parse(self.JOIN))  # never memoized
        failures: list = []
        rounds: list[int] = []  # the version each reader round started at
        written: list[int] = []
        done = threading.Event()

        def writer():
            # seq n lands with session n % 20: after n commits the join
            # sees rows 0..n, so count(*) = max(seq) + 1 on any snapshot
            deadline = time.monotonic() + 60
            try:
                while (len(rounds) < self.ROUNDS or len(set(rounds)) <= 10) \
                        and time.monotonic() < deadline:
                    n = len(written) + 1
                    db.execute("insert into events values (?, ?)", [n % 20, n])
                    written.append(n)
                    time.sleep(0.001)  # let the reader in between commits
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                done.set()

        def reader(session):
            try:
                while not done.is_set():
                    rounds.append(db.version_seq)
                    with db.read_view() as view:
                        warm = db.execute(self.JOIN, [0], view=view).rows
                        naive = db.execute(oracle, [0], view=view,
                                           planner="naive").rows
                    if warm != naive:
                        failures.append(("direct", warm, naive))
                    count, top = session.execute(self.JOIN, [0]).first()
                    if count != top + 1 or count < warm[0][0]:
                        failures.append(("served", count, top, warm))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with QueryServer(db, workers=2, result_cache=False) as server:
                with server.connect() as session:
                    threads = [
                        threading.Thread(target=writer),
                        threading.Thread(target=reader, args=(session,)),
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                    assert not any(thread.is_alive() for thread in threads)
                    assert failures == []
                    final = session.execute(self.JOIN, [0]).first()
        finally:
            sys.setswitchinterval(interval)
        assert final == (len(written) + 1, len(written))
        # the reader did run against many versions, not before or after
        assert len(rounds) >= self.ROUNDS and len(set(rounds)) > 10
        assert db.prepare(self.JOIN)[0].bound is not None


# --------------------------------------------------------------------- #
# publish-time cache invalidation (WAL behind the server)
# --------------------------------------------------------------------- #


class _ArmedJournal:
    """Journal whose next commit-record write fails once ``armed`` is set
    (one-shot); ``before_failing`` runs first, on the committer's thread."""

    def __init__(self, inner):
        self._inner = inner
        self.armed = False
        self.before_failing = None

    def write(self, offset, data):
        if self.armed and bytes(data[:4]) == b"QWAL":
            self.armed = False
            if self.before_failing is not None:
                self.before_failing()
            raise WalError("injected journal failure")
        return self._inner.write(offset, data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _ProbeJournal:
    """Journal that samples ``probe()`` at every write call."""

    def __init__(self, inner):
        self._inner = inner
        self.probe = None
        self.samples: list = []

    def write(self, offset, data):
        if self.probe is not None:
            self.samples.append(self.probe())
        return self._inner.write(offset, data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def wal_backed_db(journal_wrapper):
    """An MVCC database over a WAL with a wrapped journal."""
    data = BlockDevice(CAPACITY)
    journal = journal_wrapper(BlockDevice(CAPACITY))
    wal = WriteAheadLog(data, journal, recover=False)
    db = Database(lfm=LongFieldManager(wal))
    db.execute("create table events (session integer, seq integer)")
    return db, journal


class TestPublishTimeInvalidation:
    def test_cache_invalidated_at_publish_not_after_flush(self):
        # Visible implies durable: while the INSERT's journal writes are
        # in flight no new version exists, so the cache may still —
        # correctly — hold pre-write rows.  The version is published only
        # after the commit, and once the statement returns the cache is
        # fenced at exactly that sequence.
        db, journal = wal_backed_db(_ProbeJournal)
        with QueryServer(db, workers=2) as server:
            with server.connect() as s:
                assert s.execute("select count(*) from events").scalar() == 0
                assert len(server.cache) == 1
                seq_before = db.version_seq
                journal.probe = lambda: (db.version_seq, len(server.cache))
                s.execute("insert into events values (1, 1)")
                journal.probe = None
                assert journal.samples, "the INSERT must have journaled"
                assert set(journal.samples) == {(seq_before, 1)}
                assert db.version_seq == seq_before + 1
                assert len(server.cache) == 0
                assert server.cache._stale_below["events"] == db.version_seq

    def test_failed_flush_fences_cache_against_aborted_version(self):
        # The commit-record write fails: the INSERT rolls back and its
        # version was never published — so there is nothing to fence.
        # Sampled at the very moment of the failure, from other threads:
        # neither a snapshot reader, nor a served (cacheable) read, nor
        # on_publish ever observes the rolled-back row.
        db, journal = wal_backed_db(_ArmedJournal)
        count = "select count(*) from events"
        with QueryServer(db, workers=2) as server:
            with server.connect() as s, server.connect() as other:
                s.execute("insert into events values (1, 1)")
                assert s.execute(count).scalar() == 1
                assert len(server.cache) == 1
                seq_before = db.version_seq
                observed: list[tuple] = []

                def sample_from_another_thread():
                    def sample():
                        observed.append((db.execute(count).scalar(),
                                         other.execute(count).scalar(),
                                         db.version_seq))
                    thread = threading.Thread(target=sample)
                    thread.start()
                    thread.join(timeout=30)
                    assert not thread.is_alive()

                journal.before_failing = sample_from_another_thread
                published: list[int] = []
                journal.armed = True
                with pytest.raises(WalError, match="injected"):
                    with db.transaction(on_publish=published.append):
                        db.execute("insert into events values (1, 2)")
                journal.armed = True
                with pytest.raises(WalError, match="injected"):
                    s.execute("insert into events values (1, 3)")

                assert observed == [(1, 1, seq_before)] * 2
                assert published == []
                assert db.version_seq == seq_before
                # The cached pre-write result is still right, and still there.
                assert len(server.cache) == 1
                assert s.execute(count).scalar() == 1
                assert db.execute(count).scalar() == 1
