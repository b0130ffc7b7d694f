"""MVCC snapshot versions of the catalog + LFM field table.

The published version is the database's one committed state.  At each
DML/DDL commit (the same points where the result cache invalidates) the
writer publishes an immutable :class:`DatabaseVersion` — the catalog's
tables (a bare :class:`~repro.db.catalog.CatalogView`: DDL on it fails
fast with ``AttributeError``) plus the long-field table.  A SELECT pins
the latest published version, runs entirely against it with **no lock**,
and unpins when done.  Readers never block on writers and never observe
a partial transaction, because a version only ever exists for fully
committed state.

A published table is never written again (:meth:`Table.freeze
<repro.db.table.Table.freeze>`): a write scope's first write to one puts
a copy in its place in the live catalog
(:meth:`~repro.db.catalog.Catalog.writable`) and writes that.  So
publishing copies no table — the version takes the live table dict as it
is — and neither does a failed scope, which puts the latest version's
tables back (:meth:`VersionManager.reinstate`): nothing it did survives.
:meth:`VersionManager.changes` names the tables a scope replaced, by
identity, for its commit record.

Extents deleted by a transaction are not freed eagerly: a pinned reader
may still be streaming their bytes.  ``defer_free`` parks the free on the
version chain; when every version published up to and including the
delete has been released, the free runs — on the *writer* thread, at
publish time, so the buddy allocator is only ever touched under the
database write lock.

Lock class: the manager's mutex is ``db.version`` (ARCHITECTURE.md, "The
lock hierarchy") — acquired under ``db.rwlock`` and ``wal.txn`` by
writers, and bare by readers pinning/unpinning.  It is never held while
acquiring any other tracked lock except leaf mutexes.
"""

from __future__ import annotations

import operator
import threading
from collections import deque

from repro.concurrency import lockdep
from repro.db.catalog import CatalogView
from repro.obs import metrics

__all__ = ["DatabaseVersion", "RetireToken", "VersionManager"]

_VERSIONS = metrics.gauge("db.versions")


class RetireToken:
    """A cancellable deferred free parked on the version chain.

    ``run`` is invoked at most once, when the protecting versions are
    gone; ``cancel`` (from a transaction rollback) turns it into a no-op
    — the extent was never deallocated, so nothing needs re-carving.
    """

    __slots__ = ("_fn", "cancelled")

    def __init__(self, fn):
        self._fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Disarm the deferred free (transaction rolled back)."""
        self.cancelled = True

    def run(self) -> None:
        """Execute the free unless cancelled."""
        if not self.cancelled:
            self._fn()


class DatabaseVersion:
    """One immutable published version of the database's read state."""

    __slots__ = ("seq", "catalog", "fields", "pins", "frees")

    def __init__(self, seq: int, catalog: CatalogView,
                 fields: dict | None):
        self.seq = seq
        #: read-only; every table in it is published (frozen)
        self.catalog = catalog
        #: frozen LFM field table (id -> (offset, length)), or None
        self.fields = fields
        #: pin count and parked frees: VersionManager updates both under
        #: its ``db.version`` lock
        self.pins = 0
        self.frees: list[RetireToken] = []

    def __repr__(self) -> str:
        return f"DatabaseVersion(seq={self.seq}, pins={self.pins})"


class VersionManager:
    """Publishes, pins, and garbage-collects :class:`DatabaseVersion` s.

    The chain is ordered oldest→latest.  GC runs only inside ``publish``
    — i.e. on the writer thread, under the database write lock — popping
    fully released versions from the old end and running their deferred
    frees in order.  A version's frees protect data visible in versions
    up to and including itself, so popping strictly from the left is
    exactly the release order the frees require.
    """

    def __init__(self) -> None:
        self._lock = lockdep.instrument(threading.Lock(), "db.version")
        self._chain: deque[DatabaseVersion] = deque()
        self._pending: list[RetireToken] = []  # frees of the txn being built
        self._seq = 0

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #

    def defer_free(self, fn) -> RetireToken:
        """Park ``fn`` (an allocator free) until superseded versions die.

        Called by the LFM from inside a write transaction.  The token is
        attached to the *currently latest* version at the next publish:
        that version is the newest one that can still see the deleted
        field.
        """
        token = RetireToken(fn)
        with self._lock:
            self._pending.append(token)
        return token

    def publish(self, catalog, lfm) -> DatabaseVersion:
        """Publish the live state as the next version; GC old versions.

        Must be called with the database write lock held: the live
        catalog and field table cannot move underneath it.  The version
        holds the live tables themselves; those not yet published are
        frozen here, so no write reaches them again.
        """
        tables = dict(catalog._tables)
        for table in tables.values():
            if not table.published:
                table.freeze()
        with self._lock:
            prev = self._chain[-1] if self._chain else None
            snapshot = CatalogView(tables, dict(catalog._indexes),
                                   dict(catalog._spatial))
            fields = dict(lfm._fields) if lfm is not None else None
            self._seq += 1
            version = DatabaseVersion(self._seq, snapshot, fields)
            if prev is not None:
                prev.frees.extend(self._pending)
            else:
                # First publish: nothing older can be pinned, run eagerly.
                for token in self._pending:
                    token.run()
            self._pending.clear()
            self._chain.append(version)
            self._gc_locked()
            _VERSIONS.set(len(self._chain))
        return version

    def reinstate(self, catalog) -> None:
        """Make the latest version the live catalog's state again: its
        tables and index definitions.  Called under the database write
        lock when a write scope fails; the tables are the published ones,
        which no write reached.  The long-field table is the storage
        layer's to unwind.
        """
        version = self.latest.catalog
        catalog._tables = dict(version._tables)
        catalog._indexes = dict(version._indexes)
        catalog._spatial = dict(version._spatial)

    def changes(self, catalog, lfm) -> tuple[list, list, bool]:
        """What the live state changed since the latest version: per table
        not the published one ``(live, rows it appended to the published
        ones, or None if it does not start with them)``, the dropped
        tables' names, and whether the field table moved.  Called at a
        write scope's commit, under its lock."""
        version = self.latest
        old, moved = version.catalog._tables, []
        for key, live in catalog._tables.items():
            table, rows = old.get(key), live._rows
            if live is not table:
                prefix = (table is not None and table.uid == live.uid
                          and len(table._rows) <= len(rows)
                          and all(map(operator.is_, table._rows, rows)))
                moved.append((live, rows[len(table._rows):] if prefix else None))
        dropped = [t.name for key, t in old.items() if key not in catalog._tables]
        return moved, dropped, lfm._fields != version.fields

    def discard_pending(self) -> None:
        """Drop deferred frees of a rolled-back transaction.

        The rollback path cancels its tokens individually (via the LFM
        undo actions); this merely clears the cancelled tokens out of the
        pending list so they never attach to a version.
        """
        with self._lock:
            self._pending = [t for t in self._pending if not t.cancelled]

    def _gc_locked(self) -> None:
        """Pop released versions from the old end, running their frees."""
        while len(self._chain) > 1 and self._chain[0].pins == 0:
            for token in self._chain.popleft().frees:
                token.run()

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #

    def pin_latest(self) -> DatabaseVersion | None:
        """Pin and return the latest published version (None if none)."""
        with self._lock:
            if not self._chain:
                return None
            version = self._chain[-1]
            version.pins += 1
            return version

    def unpin(self, version: DatabaseVersion) -> None:
        """Release one pin.  Frees run later, at the next publish."""
        with self._lock:
            version.pins -= 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def latest(self) -> DatabaseVersion:
        """The most recently published version."""
        with self._lock:
            return self._chain[-1]

    @property
    def latest_seq(self) -> int:
        """Sequence number of the most recently published version (0 if none)."""
        with self._lock:
            return self._seq

    @property
    def chain_length(self) -> int:
        """Number of live versions (latest plus still-pinned older ones)."""
        with self._lock:
            return len(self._chain)

    @property
    def pending_frees(self) -> int:
        """Deferred frees parked on live versions or the open transaction."""
        with self._lock:
            return len(self._pending) + sum(
                len(v.frees) for v in self._chain
            )

    def __repr__(self) -> str:
        return f"VersionManager(seq={self.latest_seq}, chain={self.chain_length})"
