"""MVCC snapshot versions of the catalog + LFM field table.

The published version is the database's one committed state.  At each
DML/DDL commit (the same points where the result cache invalidates) the
writer publishes an immutable :class:`DatabaseVersion` — a snapshot of
the catalog's tables plus the long-field table.  A SELECT pins the latest
published version, runs entirely against it with **no lock**, and unpins
when done.  Readers never block on writers and never observe a partial
transaction, because a version only ever exists for fully committed
state.  A write scope that fails puts the latest version back as the
live state (:meth:`VersionManager.reinstate`): nothing it did survives.

Both directions rest on the stamp every :class:`~repro.db.table.Table`
carries, ``(uid, mutations)``.  Publish clones only the tables whose stamp
moved since the previous version (copy-on-write at table granularity);
reinstate replaces only those.

Extents deleted by a transaction are not freed eagerly: a pinned reader
may still be streaming their bytes.  ``defer_free`` parks the free on the
version chain; when every version published up to and including the
delete has been released, the free runs — on the *writer* thread, at
publish time, so the buddy allocator is only ever touched under the
database write lock.

Lock class: the manager's mutex is ``db.version`` (rank 25) — acquired
under ``db.rwlock`` (10) and ``wal.txn`` (20) by writers, and bare by
readers pinning/unpinning.  It is never held while acquiring any other
tracked lock except leaf mutexes.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.concurrency import lockdep
from repro.errors import CatalogError
from repro.obs import metrics

__all__ = ["CatalogSnapshot", "DatabaseVersion", "RetireToken", "VersionManager"]


class CatalogSnapshot:
    """A frozen, read-only view over one version's tables.

    Mirrors the read surface of :class:`~repro.db.catalog.Catalog`
    (``table``, ``in``, ``table_names``, ``index_names``) so the semantic
    checker, planner, and executor run against it unchanged.  There are
    deliberately no ``create_*``/``drop_*`` methods: DDL on a snapshot is
    a programming error and fails fast with ``AttributeError``.
    """

    __slots__ = ("_tables", "_indexes", "_spatial")

    def __init__(self, tables: dict, indexes: dict, spatial: dict):
        self._tables = tables      # lowercased name -> snapshot Table
        self._indexes = indexes    # index name -> (table, column)
        self._spatial = spatial    # spatial index name -> (table, column)

    def table(self, name: str):
        """Look up a snapshot table by case-insensitive name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """All table names in the snapshot, sorted."""
        return sorted(t.name for t in self._tables.values())

    def index_names(self) -> list[str]:
        """All index names in the snapshot, sorted."""
        return sorted(self._indexes)

    def stamp_of(self, names) -> list:
        """Per lower-cased table name its :attr:`Table.stamp`, ``None``
        for a name the snapshot does not hold."""
        tables = self._tables
        return [None if (table := tables.get(name)) is None else table.stamp
                for name in names]

    def __repr__(self) -> str:
        return f"CatalogSnapshot({', '.join(self.table_names()) or 'empty'})"


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

    __slots__ = ("seq", "catalog", "fields", "stamps", "pins", "frees")

    def __init__(self, seq: int, catalog: CatalogSnapshot,
                 fields: dict | None, stamps: dict):
        self.seq = seq
        self.catalog = catalog
        #: frozen LFM field table (id -> (offset, length)), or None
        self.fields = fields
        #: lowercased table name -> (uid, mutations) at publish time
        self.stamps = stamps
        self.pins = 0                   # guarded_by: db.version
        self.frees: list[RetireToken] = []  # guarded_by: db.version

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
        """Snapshot the live state as the next version; GC old versions.

        Must be called with the database write lock held: the live
        catalog and field table cannot move underneath the clone.  Only
        tables whose ``(uid, mutations)`` stamp changed since the
        previous version are cloned; unchanged snapshot tables are
        shared between versions.
        """
        with self._lock:
            prev = self._chain[-1] if self._chain else None
            tables: dict = {}
            stamps: dict = {}
            for key, live in catalog._tables.items():
                stamp = (live.uid, live.mutations)
                stamps[key] = stamp
                if prev is not None and prev.stamps.get(key) == stamp:
                    tables[key] = prev.catalog._tables[key]
                else:
                    tables[key] = live.snapshot()
            snapshot = CatalogSnapshot(tables, dict(catalog._indexes),
                                       dict(catalog._spatial))
            fields = dict(lfm._fields) if lfm is not None else None
            self._seq += 1
            version = DatabaseVersion(self._seq, snapshot, fields, stamps)
            if prev is not None:
                prev.frees.extend(self._pending)
            else:
                # First publish: nothing older can be pinned, run eagerly.
                for token in self._pending:
                    token.run()
            self._pending.clear()
            self._chain.append(version)
            self._gc_locked()
            metrics.gauge("db.versions").set(len(self._chain))
        return version

    def reinstate(self, catalog) -> None:
        """Make the latest version the live catalog's state again.

        Called under the database write lock when a write scope fails.
        Each live table whose ``(uid, mutations)`` stamp moved since the
        version is replaced by :meth:`~repro.db.table.Table.reinstated`
        of the version's table; tables the scope created are dropped,
        tables it dropped come back, and so do the index definitions.
        The long-field table is the storage layer's to unwind.
        """
        with self._lock:
            version = self._chain[-1]
        live, tables = catalog._tables, {}
        for key, table in version.catalog._tables.items():
            current = live.get(key)
            unchanged = (current is not None and
                         (current.uid, current.mutations) == version.stamps[key])
            tables[key] = current if unchanged else table.reinstated(current)
        catalog._tables = tables
        catalog._indexes = dict(version.catalog._indexes)
        catalog._spatial = dict(version.catalog._spatial)

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
