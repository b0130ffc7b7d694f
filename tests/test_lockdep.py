"""The lockdep witness and the database write lock.

The runtime half of the concurrency-safety work: the lock-order graph
(:mod:`repro.concurrency.lockdep`) must catch ABBA cycles on the second
leg — deterministically, from *sequential* thread schedules that never
actually deadlock — and it must be on, with one graph, for the whole
test run; the database's write lock stays re-entrant for its holder, as
the serving protocol assumes.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import lockdep
from repro.db.database import Database
from repro.errors import LockOrderError, PotentialDeadlockError
from repro.server import QueryServer


def own_graph(monkeypatch) -> None:
    """Swap in an empty lock-order graph until ``monkeypatch`` undoes it."""
    for name, empty in (("_EDGES", {}), ("_ADJACENCY", {}),
                        ("_VIOLATIONS", []), ("_ACQUIRES", {})):
        monkeypatch.setattr(lockdep, name, empty)
    monkeypatch.setattr(lockdep, "_HELD", threading.local())


@pytest.fixture
def witness(monkeypatch):
    """A lock-order graph of this test's own: the violations it provokes
    stay out of the process graph, which is put back whole afterwards."""
    own_graph(monkeypatch)


def run_thread(fn) -> None:
    """Run ``fn`` on a fresh thread to completion, re-raising its error."""
    box: list[BaseException] = []

    def wrapper() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to the test
            box.append(exc)

    thread = threading.Thread(target=wrapper)
    thread.start()
    thread.join()
    if box:
        raise box[0]


# --------------------------------------------------------------------- #
# witness mechanics
# --------------------------------------------------------------------- #


class TestLockdepCore:
    def test_instrument_is_free_when_disabled(self):
        was_enabled = lockdep.enabled()
        lockdep.disable()
        try:
            raw = threading.Lock()
            assert lockdep.instrument(raw, "leaf.raw") is raw
        finally:
            if was_enabled:
                lockdep.enable()

    def test_instrument_wraps_when_enabled(self, witness):
        wrapped = lockdep.instrument(threading.Lock(), "leaf.wrapped")
        assert isinstance(wrapped, lockdep.TrackedLock)
        with wrapped:
            assert lockdep.held_keys() == ("leaf.wrapped",)
        assert lockdep.held_keys() == ()

    def test_edges_record_nesting_order(self, witness):
        outer = lockdep.instrument(threading.Lock(), "leaf.outer")
        inner = lockdep.instrument(threading.Lock(), "leaf.inner")
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert lockdep.edges()[("leaf.outer", "leaf.inner")] == 3
        assert lockdep.violations() == []

    def test_recursive_nonreentrant_acquisition(self, witness):
        lock = lockdep.instrument(threading.RLock(), "leaf.once")
        with lock:
            with pytest.raises(LockOrderError, match="recursive"):
                lock.acquire()
            assert lockdep.held_keys() == ("leaf.once",)

    def test_reentrant_key_keeps_stack_balanced(self, witness):
        lock = lockdep.instrument(threading.RLock(), "wal.txn", reentrant=True)
        with lock:
            with lock:
                assert lockdep.held_keys() == ("wal.txn", "wal.txn")
            assert lockdep.held_keys() == ("wal.txn",)
        assert lockdep.held_keys() == ()

    def test_note_release_tolerates_unseen_key(self, witness):
        lockdep.note_release("leaf.never-acquired")  # must not raise

    def test_two_thread_abba_is_caught_without_deadlock(self, witness):
        a = lockdep.instrument(threading.Lock(), "leaf.a")
        b = lockdep.instrument(threading.Lock(), "leaf.b")

        def leg_one() -> None:  # A then B: records the edge a -> b
            with a:
                with b:
                    pass

        run_thread(leg_one)

        def leg_two() -> None:  # B then A: closes the cycle
            with b:
                with pytest.raises(PotentialDeadlockError, match="cycle"):
                    a.acquire()

        # The threads run strictly one after the other — no real deadlock
        # ever happens — yet the second leg is flagged deterministically.
        run_thread(leg_two)
        kinds = [v.kind for v in lockdep.violations()]
        assert kinds == ["cycle"]
        cycle = lockdep.violations()[0].cycle
        assert set(cycle) == {"leaf.a", "leaf.b"}

    def test_three_thread_cycle_via_transitive_path(self, witness):
        a = lockdep.instrument(threading.Lock(), "leaf.x")
        b = lockdep.instrument(threading.Lock(), "leaf.y")
        c = lockdep.instrument(threading.Lock(), "leaf.z")

        def t1() -> None:  # x -> y
            with a, b:
                pass

        def t2() -> None:  # y -> z
            with b, c:
                pass

        def t3() -> None:  # z -> x closes x -> y -> z -> x
            with c:
                with pytest.raises(PotentialDeadlockError, match="cycle"):
                    a.acquire()

        run_thread(t1)
        run_thread(t2)
        run_thread(t3)
        assert lockdep.violations()[0].cycle == ("leaf.x", "leaf.y", "leaf.z", "leaf.x")

    def test_rank_inversion_raises_and_releases(self, witness):
        # The witness has no rank table: an inversion that runs after the
        # declared order has run closes a cycle.
        stats = lockdep.instrument(threading.Lock(), "wal.stats")
        txn = lockdep.instrument(threading.RLock(), "wal.txn", reentrant=True)
        with txn, stats:
            pass
        with stats:
            with pytest.raises(PotentialDeadlockError, match="cycle"):
                txn.acquire()
        # The witness unwound the underlying acquisition and did not push.
        assert lockdep.held_keys() == ()
        run_thread(lambda: txn.acquire() and txn.release())
        assert [v.kind for v in lockdep.violations()] == ["cycle"]


class TestOneGraphForTheRun:
    def test_the_witness_is_on_wherever_tests_run(self):
        # conftest enables it before anything is built: turning it off
        # fails here, not silently in every ordering check.
        assert lockdep.enabled()
        db = Database()
        assert isinstance(db._rwlock, lockdep.TrackedLock)
        with QueryServer(db, workers=1) as server:
            assert isinstance(server._lock, lockdep.TrackedLock)

    def test_a_witness_test_keeps_the_process_graph(self):
        outer = lockdep.instrument(threading.Lock(), "leaf.kept-outer")
        inner = lockdep.instrument(threading.Lock(), "leaf.kept-inner")
        with outer, inner:
            pass
        kept = ("leaf.kept-outer", "leaf.kept-inner")
        with pytest.MonkeyPatch.context() as monkeypatch:
            own_graph(monkeypatch)  # what the witness fixture does
            assert kept not in lockdep.edges()
            a = lockdep.instrument(threading.Lock(), "leaf.own-a")
            b = lockdep.instrument(threading.Lock(), "leaf.own-b")
            with a, b:
                pass
            with b:
                with pytest.raises(PotentialDeadlockError):
                    a.acquire()
            assert len(lockdep.violations()) == 1
        # The edge recorded before is back; the provoked cycle is not.
        assert kept in lockdep.edges()
        assert ("leaf.own-a", "leaf.own-b") not in lockdep.edges()
        assert not any(v.key.startswith("leaf.own") for v in lockdep.violations())


# --------------------------------------------------------------------- #
# the database write lock: an instrumented RLock
# --------------------------------------------------------------------- #


class TestDatabaseWriteLock:
    def test_reentrant_and_read_under_write(self):
        # The holder re-enters freely, and reads its own open transaction
        # under that hold: the read takes no lock of its own.
        db = Database()
        with db.transaction():
            with db.transaction():
                assert lockdep.held_keys() == ("db.rwlock", "db.rwlock")
                with db.read_view() as view:
                    assert view.seq is None and view.catalog is db.catalog
                assert db.stored_cells == {}
            assert db.pin_version() is None
        assert lockdep.held_keys() == ()
        assert db.stored_cells is None
        pinned = db.pin_version()
        assert pinned is not None
        db.unpin_version(pinned)

    def test_released_on_exception(self):
        db = Database()
        with pytest.raises(ValueError):
            with db.transaction():
                raise ValueError("boom")
        assert lockdep.held_keys() == ()
        # The lock is free for another thread, whose transaction commits.
        run_thread(lambda: db.execute("create table t (k integer)"))
        assert db.table_names() == ["t"]

    def test_another_thread_reads_the_published_version(self):
        # Only the holder sees its open scope; any other thread pins.
        db = Database()
        seen = []
        with db.transaction():
            run_thread(lambda: seen.append(db.pin_version()))
            assert db.stored_cells == {}
            run_thread(lambda: seen.append(db.stored_cells))
        assert seen[0] is not None and seen[1] is None
        db.unpin_version(seen[0])


# --------------------------------------------------------------------- #
# db.rwlock taken directly, outside any transaction() scope
# --------------------------------------------------------------------- #


class TestRWLockEdgeCases:
    def test_reentrant_write_depth_and_read_under_write(self, witness):
        # The holder re-enters to any depth, each hold noted; a read under
        # the bare hold (no transaction open) pins the published version
        # and takes no lock of its own.
        db = Database()
        lock = db._rwlock
        with lock:
            with lock:
                assert lockdep.held_keys() == ("db.rwlock", "db.rwlock")
                before = lockdep.acquire_count("db.rwlock")
                with db.read_view() as view:
                    assert view.seq is not None
                assert lockdep.acquire_count("db.rwlock") == before
            assert lockdep.held_keys() == ("db.rwlock",)
        assert lockdep.held_keys() == ()
        # Fully released: another thread's statement takes it and commits.
        run_thread(lambda: db.execute("create table t (k integer)"))
        assert db.table_names() == ["t"]


class TestRWLockWithLockdep:
    def test_transition_only_noting_stays_balanced(self, witness):
        # Only the first hold of db.rwlock records edges: re-entering it
        # under a lock taken inside the hold adds no reverse edge (so no
        # false cycle), and each hold is popped by its own release.
        db = Database()
        leaf = lockdep.instrument(threading.Lock(), "leaf.inside")
        with db._rwlock:
            with leaf:
                with db._rwlock:
                    assert lockdep.held_keys() == (
                        "db.rwlock", "leaf.inside", "db.rwlock")
                assert lockdep.held_keys() == ("db.rwlock", "leaf.inside")
            assert lockdep.held_keys() == ("db.rwlock",)
        assert lockdep.held_keys() == ()
        assert ("db.rwlock", "leaf.inside") in lockdep.edges()
        assert ("leaf.inside", "db.rwlock") not in lockdep.edges()
        assert lockdep.violations() == []
