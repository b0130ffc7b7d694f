"""Read replicas: committed WAL transactions shipped over RPC and replayed.

The primary's :class:`~repro.storage.wal.WriteAheadLog` already produces
exactly the stream a replica needs: committed transactions, in txn-id
order, each carrying the dirty page images and the LFM field table that
matches them.  :class:`ReplicaLink` registers as a WAL **ship hook**
(called by the committer once the transaction is durable, its version
published, and every lock of the commit path released), wraps the
transaction in a :class:`ShipEnvelope`, ships it through the cluster's
:class:`~repro.net.rpc.RpcChannel`, and replays it on the attached
:class:`Replica`.

**What page images cannot carry:** scalar catalog rows live in memory
(``catalog.json`` at rest), not on the block device, so the envelope
also carries full-table snapshots of every scalar table whose MVCC
``(uid, mutations)`` stamp changed since the last ship — captured from a
pinned snapshot, so the export is immutable and consistent.

**Consistency contract** (documented in ARCHITECTURE.md): a replica read
observes a *committed prefix* of the primary's transaction stream — it
may lag (staleness is the ``cluster.replica.lag`` gauge), and its scalar
rows may be up to one envelope *fresher* than its device pages (the
catalog snapshot is taken at ship time), but it never observes an
uncommitted or torn write.  After the primary quiesces and the link
drains, replica state equals primary state byte for byte.

**Crash safety:** ``last_applied_txn`` advances only after an envelope
is fully applied, and page replay is idempotent — a replica that crashed
mid-apply re-attaches and replays from its last completed transaction
(the demo link retains the full envelope history, standing in for a
bounded log plus snapshot bootstrap).
"""

from __future__ import annotations

import base64
import json
import threading
from dataclasses import dataclass, field

from repro.concurrency import lockdep
from repro.db.database import Database
from repro.db.persist import export_catalog, restore_catalog
from repro.db.spatial import register_spatial_functions
from repro.net.rpc import RpcChannel
from repro.obs import metrics
from repro.storage.device import PAGE_SIZE, BlockDevice
from repro.storage.lfm import LongFieldManager

__all__ = ["Replica", "ReplicaLink", "ShipEnvelope"]

_EMPTY_LFM_STATE = {"next_id": 1, "fields": {}}


@dataclass(frozen=True)
class ShipEnvelope:
    """One committed WAL transaction, packaged for the wire."""

    txn_id: int
    #: committed page images, ``(page_no, payload)``
    pages: tuple = ()
    #: the LFM field table matching the pages (the transaction's WAL meta)
    lfm_state: dict | None = None
    #: full snapshots of scalar tables whose stamps changed since the
    #: last ship: ``{name: {"columns": [[name, type]], "rows": [...]}}``
    tables: dict = field(default_factory=dict)
    #: spatial index DDL the replica must re-derive
    spatial_indexes: tuple = ()
    #: were optimizer statistics built (ANALYZE) on the primary?
    analyzed: bool = False

    def to_bytes(self) -> bytes:
        """Serialize for the RPC hop (JSON; pages as base64)."""
        doc = {
            "txn_id": self.txn_id,
            "pages": [
                [page_no, base64.b64encode(bytes(payload)).decode("ascii")]
                for page_no, payload in self.pages
            ],
            "lfm": self.lfm_state,
            "tables": self.tables,
            "spatial": list(self.spatial_indexes),
            "analyzed": self.analyzed,
        }
        return json.dumps(doc).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShipEnvelope":
        """Decode one wire envelope."""
        doc = json.loads(blob.decode("utf-8"))
        return cls(
            txn_id=int(doc["txn_id"]),
            pages=tuple(
                (int(page_no), base64.b64decode(payload))
                for page_no, payload in doc["pages"]
            ),
            lfm_state=doc["lfm"],
            tables=doc["tables"],
            spatial_indexes=tuple(tuple(s) for s in doc["spatial"]),
            analyzed=bool(doc["analyzed"]),
        )


class ReplicaLink:
    """The primary side: builds, retains, and delivers ship envelopes.

    Register with ``wal.add_ship_hook(link.ship)``; attach a replica with
    :meth:`attach` (which resyncs it from the retained history first).
    """

    def __init__(self, db: Database, wal, rpc: RpcChannel | None = None,
                 name: str = "replica-link"):
        self.db = db
        self.wal = wal
        self.rpc = rpc if rpc is not None else RpcChannel()
        self.name = name
        # Outer cluster lock (rank above the db/wal hierarchy): held
        # across envelope build + delivery so ship and attach serialize.
        self._lock = lockdep.instrument(threading.Lock(), "cluster.link")
        self._stamps: dict[str, tuple] = {}  # guarded_by: _lock
        self._envelopes: list[ShipEnvelope] = []  # guarded_by: _lock
        self._replica: "Replica | None" = None  # guarded_by: _lock
        self.last_shipped_txn = 0  # guarded_by: _lock

    # ------------------------------------------------------------------ #
    # the WAL ship hook
    # ------------------------------------------------------------------ #

    def ship(self, txn) -> None:
        """Package one committed transaction and deliver it (the WAL hook)."""
        with self._lock:
            envelope = self._build_envelope(txn)
            self._envelopes.append(envelope)
            self.last_shipped_txn = envelope.txn_id
            metrics.counter("cluster.replica.shipped").inc()
            blob = envelope.to_bytes()
            self.rpc.send(blob)
            replica = self._replica
            if replica is not None:
                try:
                    # Scope the apply to the replica's node registry: the
                    # ship hook runs on the primary's commit thread, but
                    # the work (and its metrics) belong to the replica.
                    with metrics.scoped(replica.registry):
                        replica.apply(ShipEnvelope.from_bytes(blob))
                # A dead replica must never fail the primary's commit
                # path: detach it and let a later attach() resync.
                except BaseException:  # qblint: disable=no-broad-except
                    self._replica = None
                    metrics.counter("cluster.replica.detached").inc()
            self._update_lag_locked()

    def _build_envelope(self, txn) -> ShipEnvelope:
        """One envelope from one ``CommittedTxn`` (holding ``_lock``)."""
        tables, spatial, analyzed = self._catalog_state(changed_only=True)
        return ShipEnvelope(
            txn_id=txn.txn_id,
            pages=tuple((page_no, bytes(payload))
                        for page_no, payload in txn.pages),
            lfm_state=txn.meta,
            tables=tables,
            spatial_indexes=spatial,
            analyzed=analyzed,
        )

    def _catalog_state(self, changed_only: bool) -> tuple:
        """Scalar-table exports + index defs as of *now* (hold ``_lock``).

        ``changed_only`` is the incremental ship stream: only tables whose
        ``(uid, mutations)`` stamp moved since the last ship are exported,
        and ``_stamps`` advances.  An attach-time sync exports everything
        and leaves ``_stamps`` alone.  The result is the catalog image
        (:func:`repro.db.persist.export_catalog`) as envelope fields.
        """
        with self.db.read_view() as view:
            tables = []
            for name in view.catalog.table_names():
                table = view.catalog.table(name)
                if changed_only:
                    stamp = (table.uid, table.mutations)
                    if self._stamps.get(name.lower()) == stamp:
                        continue
                    self._stamps[name.lower()] = stamp
                tables.append(table)
            image = export_catalog(self.db.catalog, tables)
        return (
            {spec.pop("name"): spec for spec in image["tables"]},
            tuple(
                (spec["name"], spec["table"], spec["column"])
                for spec in image.get("spatial_indexes", ())
            ),
            image.get("analyzed", False),
        )

    # ------------------------------------------------------------------ #
    # attach / resync
    # ------------------------------------------------------------------ #

    def attach(self, replica: "Replica") -> None:
        """Attach a replica, replaying retained envelopes it has not seen.

        Safe after a replica crash: envelopes at or below the replica's
        ``last_applied_txn`` are skipped, page replay is idempotent, and
        a half-applied transaction is simply re-applied in full.
        """
        with self._lock:
            for envelope in self._envelopes:
                if envelope.txn_id > replica.last_applied_txn:
                    replica.apply(envelope)
            # Scalar-only commits (no device pages, hence no WAL
            # transaction) never ship on their own; an attach is a full
            # sync point, so the primary's *current* scalar state rides
            # along here and any rows registered since the last shipped
            # transaction become visible.
            replica.absorb(*self._catalog_state(changed_only=False))
            self._replica = replica
            self._update_lag_locked()

    def detach(self) -> "Replica | None":
        """Stop delivering to the current replica (it keeps its state)."""
        with self._lock:
            replica, self._replica = self._replica, None
        return replica

    @property
    def replica(self) -> "Replica | None":
        """The currently attached replica, if any."""
        with self._lock:
            return self._replica

    def envelopes_since(self, txn_id: int) -> list[ShipEnvelope]:
        """Retained envelopes newer than ``txn_id`` (resync material)."""
        with self._lock:
            return [e for e in self._envelopes if e.txn_id > txn_id]

    def _update_lag_locked(self) -> None:
        """Refresh the staleness gauge (holding ``_lock``)."""
        if self._replica is None:
            return
        lag = max(0, (self.wal.next_txn_id - 1) - self._replica.last_applied_txn)
        metrics.gauge("cluster.replica.lag").set(lag)

    def __repr__(self) -> str:
        return (
            f"ReplicaLink({self.name!r}, shipped={self.last_shipped_txn}, "
            f"attached={self.replica is not None})"
        )


class Replica:
    """The replica side: applies envelopes, serves snapshot reads.

    Pages land on the replica's own device; scalar tables accumulate
    from the shipped snapshots; the queryable :class:`Database` view is
    rebuilt lazily (it is derived state — rebuilt by the same
    ``restore_catalog`` that ``load_database`` runs over ``catalog.json``).
    """

    def __init__(self, capacity: int, page_size: int = PAGE_SIZE,
                 device=None, name: str = "replica"):
        self.device = device if device is not None else BlockDevice(
            capacity, page_size=page_size
        )
        self.name = name
        #: per-node registry for metrics federation: apply/serve work on
        #: this replica tees here via the scoped-registry mechanism
        self.registry = metrics.MetricsRegistry()
        self._lock = lockdep.instrument(threading.Lock(), "cluster.replica")
        self._lfm_state: dict = dict(_EMPTY_LFM_STATE)  # guarded_by: _lock
        self._tables: dict[str, dict] = {}  # guarded_by: _lock
        self._spatial: tuple = ()  # guarded_by: _lock
        self._analyzed = False  # guarded_by: _lock
        self._db: Database | None = None  # guarded_by: _lock
        self._dirty = True  # guarded_by: _lock
        self.last_applied_txn = 0  # guarded_by: _lock
        self.applied_envelopes = 0  # guarded_by: _lock

    # ------------------------------------------------------------------ #
    # apply
    # ------------------------------------------------------------------ #

    def apply(self, envelope: ShipEnvelope) -> bool:
        """Replay one envelope; returns False when it was already applied.

        ``last_applied_txn`` advances only after every page and every
        table snapshot landed, so a crash mid-apply leaves the envelope
        "not applied" and the resync replays it idempotently.
        """
        with self._lock:
            if envelope.txn_id <= self.last_applied_txn:
                return False
            page_size = self.device.page_size
            for page_no, payload in envelope.pages:
                # Physical page replay IS the replication transport: the
                # shipped images land verbatim, exactly as the primary's
                # WAL checkpoint wrote them.
                self.device.write(  # qblint: disable=no-raw-device-io
                    page_no * page_size, bytes(payload)
                )
            if envelope.lfm_state is not None:
                self._lfm_state = envelope.lfm_state
            for name, export in envelope.tables.items():
                self._tables[name] = export
            self._spatial = envelope.spatial_indexes
            self._analyzed = envelope.analyzed
            self._dirty = True
            self.last_applied_txn = envelope.txn_id
            self.applied_envelopes += 1
            metrics.counter("cluster.replica.applied").inc()
            metrics.gauge("cluster.replica.applied_txn").set(envelope.txn_id)
        return True

    def absorb(self, tables: dict, spatial_indexes: tuple,
               analyzed: bool) -> None:
        """Take a scalar catch-up from the primary (no txn advances).

        Used at attach time for state that exists outside the shipped
        transaction stream: table snapshots replace the accumulated exports,
        but ``last_applied_txn`` is untouched — the paged state is still
        exactly as of the last applied envelope.
        """
        with self._lock:
            for name, export in tables.items():
                self._tables[name] = export
            self._spatial = spatial_indexes
            self._analyzed = analyzed
            self._dirty = True
            metrics.counter("cluster.replica.synced").inc()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    @property
    def database(self) -> Database:
        """The queryable view, rebuilt if anything applied since last read."""
        with self._lock:
            if self._dirty or self._db is None:
                self._db = self._rebuild_locked()
                self._dirty = False
            return self._db

    def execute(self, sql: str, params: list | None = None):
        """Serve one read against the replica's current view.

        Runs inside the replica's metrics scope, so a failover read
        issued from the router thread attributes its work to this node
        in the federated page, not to the router.
        """
        with metrics.scoped(self.registry):
            return self.database.execute(sql, params)

    def _rebuild_locked(self) -> Database:
        """Derive a fresh Database from device + shipped catalog state."""
        lfm = LongFieldManager.restore(self.device, self._lfm_state)
        db = Database(lfm=lfm)
        register_spatial_functions(db)
        restore_catalog(db, {
            "tables": [
                {"name": name, **export} for name, export in self._tables.items()
            ],
            "spatial_indexes": [
                {"name": name, "table": table, "column": column}
                for name, table, column in self._spatial
            ],
            "analyzed": self._analyzed,
        })
        return db

    def state_fingerprint(self) -> dict:
        """A comparable digest of replica state (tests diff it vs primary)."""
        import hashlib

        db = self.database
        with self._lock:
            device_hash = hashlib.sha256()
            page_size = self.device.page_size
            for start in range(0, self.device.capacity, 1 << 20):
                length = min(1 << 20, self.device.capacity - start)
                chunk = self.device.read(start, length)  # qblint: disable=no-raw-device-io
                device_hash.update(chunk)
        rows = {
            name: [tuple(str(v) for v in row)
                   for row in db.catalog.table(name).scan()]
            for name in db.table_names()
        }
        return {"device_sha256": device_hash.hexdigest(), "rows": rows}

    def close(self) -> None:
        """Release the replica's device."""
        self.device.close()

    def __repr__(self) -> str:
        return (
            f"Replica({self.name!r}, txn={self.last_applied_txn}, "
            f"{self.applied_envelopes} envelopes)"
        )
