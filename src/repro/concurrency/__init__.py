"""Concurrency primitives shared by the storage, db, and server layers.

The query-serving protocol (ARCHITECTURE.md) is built on one primitive:
the statement-level write lock DDL and DML take (SELECTs take nothing —
they read a published snapshot version).  The package
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
    """The database's statement-level write lock, re-entrant for its holder.

    Only writers take it: every read runs on a published MVCC version
    (:mod:`repro.db.mvcc`), so there is no shared side.  The holder may
    re-acquire it freely — statements executed inside an exclusive
    transaction scope nest naturally.  Acquisitions must nest LIFO per
    thread, which the ``write()`` context manager guarantees.

    ``name`` is the lock's :mod:`~repro.concurrency.lockdep` class key
    (``"db.rwlock"`` for the database statement lock); when the witness
    is enabled every successful acquisition lands in the process-wide
    lock-order graph under that key.
    """

    def __init__(self, name: str = "rwlock") -> None:
        self.name = name
        self._cond = threading.Condition()
        self._writer: int | None = None  # ident of the write-holding thread
        self._writer_depth = 0

    def acquire_write(self) -> None:
        """Take the exclusive hold; re-entrant for the current writer."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return  # lockdep already saw this thread's hold
            while self._writer is not None:
                self._cond.wait()
            self._writer = me
            self._writer_depth = 1
        if lockdep.enabled():
            try:
                lockdep.note_acquire(self.name, reentrant=True)
            except ConcurrencyError:
                # The witness flagged the acquisition (rank inversion or a
                # cycle-closing edge): roll it back before it propagates.
                self.release_write()
                raise

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

    @contextmanager
    def write(self):
        """Scope an exclusive hold."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    @property
    def write_held(self) -> bool:
        """Is the *current thread* the write holder?"""
        return self._writer == threading.get_ident()

    def __repr__(self) -> str:
        return f"RWLock(writer={self._writer}, depth={self._writer_depth})"
