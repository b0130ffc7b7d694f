"""The lock-discipline hooks shared by the storage, db, and server layers.

The locks themselves are ``threading`` locks, placed in the hierarchy of
ARCHITECTURE.md ("The lock hierarchy").  The package lives at the leaf
of the import graph so :mod:`repro.db` and :mod:`repro.storage` can use
it without importing the server layer above them.  Two verification
hooks:

* :func:`guarded_by` — a no-op decorator declaring that a callable must
  only run while the named lock is held.  The declaration is enforced
  statically by ``python -m repro.analysis`` (the QB41x family) and
  documents the discipline in the source itself.
* :mod:`repro.concurrency.lockdep` — a runtime witness, on in every test
  run, recording every lock-acquisition edge across threads and
  reporting a *potential* deadlock on any cycle, even when no deadlock
  manifests.
"""

from __future__ import annotations

from repro.concurrency import lockdep

__all__ = ["guarded_by", "lockdep"]


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
