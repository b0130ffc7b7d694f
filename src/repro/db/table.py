"""Heap tables: row storage with type checking and declared indexes.

Rows live in memory as plain lists; long-field payloads are *not* here —
LONGFIELD cells hold handles into the Long Field Manager, so table scans
stay cheap and large objects are only read when a function dereferences
them.  This mirrors the paper's division between relational data (an AIX
file system in their setup) and long-field data (a raw logical volume).

``CREATE INDEX`` declares a column indexed; the paper's experiments ran
without relational indexes ("We did not create indexes on any of the
relation columns").  Nothing is maintained on a write: the planner probes
a declared column whenever an equality predicate on it is available at a
join level, and the probe reads the published version's
:meth:`Table.equal_buckets`, built once per version on first use.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.db.schema import TableSchema
from repro.db.stats import SpatialIndex, TableStats
from repro.errors import CatalogError, DatabaseError

__all__ = ["Table"]


def _buckets(rows: list[list], key) -> dict:
    """``{key(row): [rows]}``, each bucket in row order (every stored
    value hashes: :func:`~repro.db.types.coerce_value` admits no other)."""
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(key(row), []).append(row)
    return buckets


#: process-wide table identity source; ``itertools.count`` is GIL-atomic
_TABLE_UIDS = itertools.count(1)

#: process-wide source of :attr:`Table.mutations` values
_MUTATIONS = itertools.count(1)


class Table:
    """A heap of typed rows with declared single-column indexes.

    Every table carries a stamp: ``uid``, shared by a table and its
    :meth:`copy`, and ``mutations``, which :meth:`touch` — the one place
    it moves — takes from a process-wide counter before every row or
    index mutation.  So a stamp never names two states, and plans and
    statistics can be held to it.  A table a version has published
    (:meth:`freeze`) is never written again: a write scope writes a copy
    it puts in its place (:meth:`~repro.db.catalog.Catalog.writable`).
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.uid = next(_TABLE_UIDS)
        self.mutations = 0
        #: set once, by the publish that makes this table a version's
        self.published = False
        self._rows: list[list] = []
        #: positions of the columns CREATE INDEX declared
        self._indexed: frozenset[int] = frozenset()
        #: published only: positions -> {values: [rows]} (:meth:`equal_buckets`)
        self._equal: dict[tuple, dict] = {}
        #: optimizer statistics and the region-cell directories the spatial
        #: indexes read; stale (stamp mismatch) until the executor maintains
        #: them or ANALYZE recomputes them
        self.stats = TableStats(schema)
        self.stats.restamp(self)
        #: lower-cased column name -> SpatialIndex over that column
        self.spatial: dict[str, SpatialIndex] = {}

    @property
    def stamp(self) -> tuple:
        """What a memoized semantic check or plan of this table stays
        valid for: its identity, its mutation count and the state its
        statistics describe."""
        return self.uid, self.mutations, self.stats.stamp

    @property
    def name(self) -> str:
        """The table's name."""
        return self.schema.table_name

    @property
    def row_count(self) -> int:
        """Number of stored rows."""
        return len(self._rows)

    # ------------------------------------------------------------------ #
    # row maintenance
    # ------------------------------------------------------------------ #

    def touch(self) -> None:
        """Move the stamp before a mutation; refuses a published table."""
        if self.published:
            raise DatabaseError(
                f"table {self.name!r} is published: write its catalog.writable() copy"
            )
        self.mutations = next(_MUTATIONS)

    def insert(self, values: list) -> list:
        """Append one row, coercing values against the schema; returns it."""
        row = self.schema.validate_row(list(values))
        self.touch()
        self._rows.append(row)
        return row

    def insert_named(self, **values) -> list:
        """Append one row given by column name; missing columns become NULL."""
        row = [None] * len(self.schema)
        for name, value in values.items():
            row[self.schema.position(name)] = value
        return self.insert(row)

    def scan(self) -> Iterator[list]:
        """Iterate rows (each a list aligned with the schema's columns)."""
        return iter(self._rows)

    def delete_where(self, predicate) -> int:
        """Delete rows for which ``predicate(row)`` is true; returns the count."""
        before = len(self._rows)
        self.touch()
        self._rows = [row for row in self._rows if not predicate(row)]
        return before - len(self._rows)

    def update_where(self, predicate, apply) -> int:
        """Rewrite rows in place: ``apply(row) -> new values list`` where
        ``predicate(row)`` is true; returns the count."""
        touched = 0
        for i, row in enumerate(self._rows):
            if predicate(row):
                new_row = self.schema.validate_row(apply(row))
                if not touched:
                    # before the first rewrite: one that fails part-way
                    # leaves the stamp moved with the rows
                    self.touch()
                self._rows[i] = new_row
                touched += 1
        return touched

    def truncate(self) -> None:
        """Delete every row."""
        self.touch()
        self._rows.clear()

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #

    def create_index(self, column: str) -> None:
        """Declare an index on one column."""
        position = self.schema.position(column)
        if position in self._indexed:
            raise CatalogError(
                f"table {self.name!r} already has an index on {column!r}"
            )
        self.touch()
        self._indexed |= {position}

    def drop_index(self, column: str) -> None:
        """Remove the index declared on one column."""
        position = self.schema.position(column)
        if position not in self._indexed:
            raise CatalogError(f"table {self.name!r} has no index on {column!r}")
        self.touch()
        self._indexed -= {position}

    def has_index(self, column: str) -> bool:
        """True when an equality probe on ``column`` can use an index."""
        try:
            return self.schema.position(column) in self._indexed
        except CatalogError:
            return False

    def equal_buckets(self, positions: tuple[int, ...]) -> dict:
        """``{values at positions: rows}`` of a published table, built on
        first use and kept: the version never changes, so neither does the
        map (racing first uses each build one; all read the one that landed)."""
        if not self.published:
            raise DatabaseError(f"table {self.name!r} is not published: scan it")
        found = self._equal.get(positions)
        if found is None:
            found = self._equal.setdefault(positions, _buckets(
                self._rows, lambda row: tuple(row[p] for p in positions)))
        return found

    def spatial_index_on(self, column: str) -> SpatialIndex | None:
        """The spatial index over ``column``, if one exists."""
        return self.spatial.get(column.lower())

    def fresh_stats(self) -> TableStats | None:
        """The table's statistics, but only while they match its state."""
        return self.stats if self.stats.fresh(self) else None

    def copy(self) -> "Table":
        """A writable copy of this table, with its stamp.

        Rows are shared by reference: mutators replace row lists wholesale
        (``update_where`` builds a fresh validated list; ``insert`` appends
        a new one), so sharing is safe.  The copy is unpublished, so it
        has no :meth:`equal_buckets`: an equality probe of it scans.
        """
        clone = Table.__new__(Table)
        clone.schema = self.schema
        clone.uid = self.uid
        clone.mutations = self.mutations
        clone.published = False
        clone._equal = {}
        clone._rows = list(self._rows)
        clone._indexed = self._indexed
        clone.stats = self.stats.copy()
        clone.spatial = {
            column: SpatialIndex(index.name, clone, index.column)
            for column, index in self.spatial.items()
        }
        return clone

    def freeze(self) -> None:
        """Make this table a published version's: refuse every later write."""
        self.published = True

    def __repr__(self) -> str:
        return f"Table({self.name}, {self.row_count} rows)"
