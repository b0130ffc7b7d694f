"""One shard: a complete single-node stack plus its cluster identity.

A shard is exactly the single-node system ARCHITECTURE.md documents —
its own block device, WAL, Long Field Manager, catalog,
:class:`~repro.server.QueryServer`, and
:class:`~repro.medical.server.MedicalServer` — wrapped with the
declustering metadata the router needs: which studies it owns and the
bounding boxes of its stored REGION columns (from the PR 8 optimizer
statistics) for probe pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.errors import CatalogError, ClusterError
from repro.medical.server import MedicalServer
from repro.server.server import QueryServer

__all__ = ["Shard"]


@dataclass
class Shard:
    """One cluster member and everything it owns."""

    shard_id: int
    device: object
    lfm: object
    db: Database
    server: QueryServer
    medical: MedicalServer
    #: global study ids this shard owns (load order preserved)
    study_ids: list[int] = field(default_factory=list)
    #: admin endpoint, if started
    admin: object | None = None

    def __post_init__(self) -> None:
        # One long-lived router session per shard: the router runs
        # scatter legs through it, so shard-side admission, tracing, and
        # metrics all see cluster traffic as ordinary session traffic.
        self._session = self.server.connect(name=f"router-shard-{self.shard_id}")

    # ------------------------------------------------------------------ #
    # query surface the router uses
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: list | None = None):
        """Run one statement on this shard, on the caller's thread inside
        one of the shard's admission slots (queued when none is free)."""
        return self._session.execute(sql, params)

    @property
    def node_registry(self):
        """The shard primary's per-node metrics registry (may be None).

        Populated by the scoped-registry tee while the shard's server
        executes legs; the router's fleet page merges it in as the
        ``shard=<id>,role="primary"`` node.
        """
        return self.server.node_registry

    @property
    def node_labels(self) -> dict:
        """The shard primary's federation identity labels."""
        return dict(self.server.node_labels)

    def region_bbox(self, table: str, column: str = "region"):
        """Union bounding box of a stored REGION column, from the ANALYZE
        stats of the committed state.

        Returns ``(lower, upper)`` (half-open), or ``None`` when the
        table has no analyzed spatial statistics (the router then cannot
        prune this shard on geometry and must include it).
        """
        with self.db.read_view() as view:
            try:
                stored = view.catalog.table(table)
                position = stored.schema.position(column)
            except CatalogError:  # unknown table or column
                return None
            return stored.stats.bounding_box(position)

    def row_count(self, table: str) -> int:
        """Committed rows this shard stores in ``table`` (0 prunes the shard)."""
        with self.db.read_view() as view:
            try:
                return view.catalog.table(table).row_count
            except CatalogError:  # unknown table
                return 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start_admin(self, host: str = "127.0.0.1", port: int = 0):
        """Start this shard's admin/metrics endpoint."""
        self.admin = self.server.start_admin(host=host, port=port)
        return self.admin

    def close(self) -> None:
        """Close the serving stack (sessions drain first)."""
        try:
            self._session.close()
        except ClusterError:
            pass
        self.server.close()

    def __repr__(self) -> str:
        return f"Shard({self.shard_id}, {len(self.study_ids)} studies)"
