"""Concurrency primitives shared by the storage, db, and server layers.

The query-serving protocol (ARCHITECTURE.md) is built on one primitive: a
reader-writer lock with writer preference.  Many concurrent SELECTs share
the read side; DDL and DML take the exclusive write side.  The package
lives at the leaf of the import graph so :mod:`repro.db` and
:mod:`repro.storage` can use it without importing the server layer above
them.

Two verification hooks live beside the lock:

* :func:`guarded_by` — a no-op decorator declaring that a callable must
  only run while the named lock is held.  The declaration is enforced
  statically by ``python -m repro.analysis --concurrency`` (the QB41x
  family) and documents the discipline in the source itself.
* :mod:`repro.concurrency.lockdep` — an opt-in runtime witness recording
  every lock-acquisition edge across threads and reporting a *potential*
  deadlock on any cycle, even when no deadlock manifests.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.concurrency import lockdep
from repro.errors import ConcurrencyError

__all__ = ["RWLock", "guarded_by", "lockdep"]


def guarded_by(*lock_names: str):
    """Declare the lock(s) a callable requires at entry (e.g. ``"_lock"``).

    Runtime no-op: the declaration is consumed by the static concurrency
    analyzer, which (a) treats the body as holding the named locks and
    (b) flags any call site that does not hold them.  Names are either an
    attribute on ``self`` (``"_lock"``), a hierarchy key from
    ARCHITECTURE.md (``"db.rwlock"``), or ``"txn"`` for a storage
    transaction scope.
    """
    def decorate(fn):
        fn.__guarded_by__ = lock_names
        return fn
    return decorate


class RWLock:
    """A writer-preferring reader-writer lock with re-entrant holders.

    Semantics, chosen for the statement-execution protocol:

    * any number of threads may hold the **read** side concurrently;
    * the **write** side is exclusive against readers and other writers;
    * a waiting writer blocks *new* readers (writer preference), so a
      stream of SELECTs cannot starve DDL — but a thread already holding
      a read lock may re-enter the read side (no self-deadlock);
    * the write holder may re-acquire both sides freely: statements
      executed inside an exclusive transaction scope nest naturally;
    * upgrading read → write is refused with :class:`ConcurrencyError`
      (two upgrading readers would deadlock each other).

    Acquisitions must nest LIFO per thread, which the ``read()`` /
    ``write()`` context managers guarantee.

    ``name`` is the lock's :mod:`~repro.concurrency.lockdep` class key
    (``"db.rwlock"`` for the database statement lock); when the witness
    is enabled every successful acquisition lands in the process-wide
    lock-order graph under that key.
    """

    def __init__(self, name: str = "rwlock") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._readers = 0              # active read holds (non-writer threads)
        self._writer: int | None = None  # ident of the write-holding thread
        self._writer_depth = 0
        self._waiting_writers = 0
        self._local = threading.local()  # per-thread read re-entrancy depth

    def _read_depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _note_acquired(self, undo) -> None:
        """Feed one successful acquisition to lockdep.

        If the witness flags it (rank inversion or a cycle-closing edge),
        ``undo`` rolls the acquisition back before the error propagates,
        so the lock state stays consistent with what the caller observes.
        """
        if not lockdep.enabled():
            return
        try:
            lockdep.note_acquire(self.name, reentrant=True)
        except ConcurrencyError:
            undo()
            raise

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #

    def acquire_read(self) -> None:
        """Take a shared hold; blocks while a writer is active or waiting."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or self._read_depth() > 0:
                # Re-entrant: the writer reads freely; an existing reader
                # may deepen its hold even past waiting writers.
                if self._writer != me:
                    self._readers += 1
                self._local.depth = self._read_depth() + 1
                return  # lockdep already saw this thread's hold
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
            self._local.depth = 1
        self._note_acquired(self.release_read)

    def release_read(self) -> None:
        """Drop one shared hold."""
        me = threading.get_ident()
        with self._cond:
            depth = self._read_depth()
            if depth <= 0:
                raise ConcurrencyError("release_read without a matching acquire")
            self._local.depth = depth - 1
            if self._writer == me:
                return  # the writer's read holds never touched _readers
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()
        if depth == 1:
            # The thread's last shared hold: pop its lockdep entry.
            lockdep.note_release(self.name)

    # ------------------------------------------------------------------ #
    # write side
    # ------------------------------------------------------------------ #

    def acquire_write(self) -> None:
        """Take the exclusive hold; re-entrant for the current writer."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return  # lockdep already saw this thread's hold
            if self._read_depth() > 0:
                raise ConcurrencyError(
                    "cannot upgrade a read lock to a write lock; release "
                    "the read hold first"
                )
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_depth = 1
        self._note_acquired(self.release_write)

    def release_write(self) -> None:
        """Drop one exclusive hold; wakes waiters when fully released."""
        with self._cond:
            if self._writer != threading.get_ident():
                raise ConcurrencyError("release_write by a non-writer thread")
            self._writer_depth -= 1
            fully_released = self._writer_depth == 0
            if fully_released:
                self._writer = None
                self._cond.notify_all()
        if fully_released:
            lockdep.note_release(self.name)

    # ------------------------------------------------------------------ #
    # context managers
    # ------------------------------------------------------------------ #

    @contextmanager
    def read(self):
        """Scope a shared hold."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Scope an exclusive hold."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------ #

    @property
    def write_held(self) -> bool:
        """Is the *current thread* the write holder?"""
        return self._writer == threading.get_ident()

    @property
    def write_active(self) -> bool:
        """Does *any* thread hold the write side right now?"""
        return self._writer is not None

    def __repr__(self) -> str:
        return (
            f"RWLock(readers={self._readers}, writer={self._writer}, "
            f"waiting_writers={self._waiting_writers})"
        )
