"""Lockdep witness and RWLock edge cases.

The runtime half of the concurrency-safety work: the lock-order graph
(:mod:`repro.concurrency.lockdep`) must catch rank inversions the moment
they happen and ABBA cycles on the second leg — deterministically, from
*sequential* thread schedules that never actually deadlock — while the
RWLock's re-entrancy stays exactly as the serving protocol assumes.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import RWLock, lockdep
from repro.db.database import Database
from repro.errors import (
    ConcurrencyError,
    LockOrderError,
    PotentialDeadlockError,
)


@pytest.fixture
def witness():
    """A clean, enabled lockdep graph; prior enablement state restored."""
    was_enabled = lockdep.enabled()
    lockdep.reset()
    lockdep.enable()
    yield
    if not was_enabled:
        lockdep.disable()
    lockdep.reset()


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

    def test_rank_inversion_raises_and_releases(self, witness):
        low = lockdep.instrument(threading.Lock(), "cache.lock")
        high = lockdep.instrument(threading.Lock(), "db.rwlock")
        with low:
            with pytest.raises(LockOrderError, match="lock-order violation"):
                high.acquire()
        # The witness unwound the underlying acquisition and did not push:
        # both locks are free and this thread's stack is empty.
        assert lockdep.held_keys() == ()
        assert not high.locked()
        assert [v.kind for v in lockdep.violations()] == ["order"]

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

    def test_declare_rank_applies_to_ad_hoc_keys(self, witness):
        lockdep.declare_rank("test.outer", 1)
        lockdep.declare_rank("test.inner", 2)
        inner = lockdep.instrument(threading.Lock(), "test.inner")
        outer = lockdep.instrument(threading.Lock(), "test.outer")
        with inner:
            with pytest.raises(LockOrderError):
                outer.acquire()


# --------------------------------------------------------------------- #
# RWLock semantics: the write side (reads take no lock)
# --------------------------------------------------------------------- #


class TestRWLockEdgeCases:
    def test_reentrant_write_depth_and_read_under_write(self):
        # The holder re-enters freely, and reads its own open transaction
        # under that hold: the read takes no lock of its own.
        db = Database()
        lock = db._rwlock
        with lock.write():
            with lock.write():
                assert lock.write_held and lock._writer_depth == 2
                with db.read_view() as view:
                    assert view.seq is None and view.catalog is db.catalog
                assert lock._writer_depth == 2
            assert lock.write_held
        assert not lock.write_held

    def test_release_on_exception(self):
        lock = RWLock()
        with pytest.raises(ValueError):
            with lock.write():
                raise ValueError("boom")
        assert not lock.write_held
        # The lock is fully free for another thread.
        run_thread(lambda: lock.acquire_write() or lock.release_write())

    def test_unbalanced_releases_refused(self):
        lock = RWLock()
        with pytest.raises(ConcurrencyError, match="non-writer"):
            lock.release_write()


class TestRWLockWithLockdep:
    def test_transition_only_noting_stays_balanced(self, witness):
        lock = RWLock(name="db.rwlock")
        with lock.write():
            with lock.write():
                # One logical hold per thread, however deep the re-entry.
                assert lockdep.held_keys() == ("db.rwlock",)
            assert lockdep.held_keys() == ("db.rwlock",)
        assert lockdep.held_keys() == ()

    def test_rank_inversion_rolls_the_rwlock_back(self, witness):
        leaf = lockdep.instrument(threading.Lock(), "cache.lock")
        lock = RWLock(name="db.rwlock")
        with leaf:
            with pytest.raises(LockOrderError):
                lock.acquire_write()
        # The acquisition was unwound before the error propagated.
        assert not lock.write_held
        with lock.write():
            assert lock.write_held
