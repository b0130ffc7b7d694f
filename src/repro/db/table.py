"""Heap tables: row storage with type checking and optional hash indexes.

Rows live in memory as plain lists; long-field payloads are *not* here —
LONGFIELD cells hold handles into the Long Field Manager, so table scans
stay cheap and large objects are only read when a function dereferences
them.  This mirrors the paper's division between relational data (an AIX
file system in their setup) and long-field data (a raw logical volume).

Hash indexes (``CREATE INDEX``) accelerate equality probes; the paper's
experiments ran without relational indexes ("We did not create indexes on
any of the relation columns"), but the system supports them, and the
planner uses one whenever an equality predicate on an indexed column is
available at a join level.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from operator import itemgetter

from repro.db.schema import TableSchema
from repro.db.stats import SpatialIndex, TableStats
from repro.errors import CatalogError, DatabaseError

__all__ = ["Table"]


#: bucket key for values that cannot hash (probed by linear fallback)
_UNHASHABLE = object()


def _index_key(value):
    try:
        hash(value)
        return value
    except TypeError:
        return _UNHASHABLE


def _buckets(rows: list[list], key) -> dict:
    """``{key(row): [rows]}``, each bucket in row order; a key that cannot
    hash buckets its rows under ``_UNHASHABLE``."""
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(_index_key(key(row)), []).append(row)
    return buckets


#: process-wide table identity source; ``itertools.count`` is GIL-atomic
_TABLE_UIDS = itertools.count(1)

#: process-wide source of :attr:`Table.mutations` values
_MUTATIONS = itertools.count(1)


class Table:
    """A heap of typed rows with optional single-column hash indexes.

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
        #: column position -> {value: [rows]}
        self._indexes: dict[int, dict] = {}
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
        for position, buckets in self._indexes.items():
            buckets.setdefault(_index_key(row[position]), []).append(row)
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
        self._rebuild_indexes()
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
        if touched:
            self._rebuild_indexes()
        return touched

    def truncate(self) -> None:
        """Delete every row (indexes are rebuilt empty)."""
        self.touch()
        self._rows.clear()
        self._rebuild_indexes()

    # ------------------------------------------------------------------ #
    # indexes
    # ------------------------------------------------------------------ #

    def create_index(self, column: str) -> None:
        """Build a hash index over one column."""
        position = self.schema.position(column)
        if position in self._indexes:
            raise CatalogError(
                f"table {self.name!r} already has an index on {column!r}"
            )
        buckets = _buckets(self._rows, itemgetter(position))
        self.touch()
        self._indexes[position] = buckets

    def drop_index(self, column: str) -> None:
        """Remove the hash index on one column."""
        position = self.schema.position(column)
        if position not in self._indexes:
            raise CatalogError(f"table {self.name!r} has no index on {column!r}")
        self.touch()
        del self._indexes[position]

    def has_index(self, column: str) -> bool:
        """True when an equality probe on ``column`` can use an index."""
        try:
            return self.schema.position(column) in self._indexes
        except CatalogError:
            return False

    def probe(self, column: str, value) -> list[list]:
        """Index lookup: the rows whose ``column`` equals ``value``."""
        position = self.schema.position(column)
        buckets = self._indexes[position]
        key = _index_key(value)
        if key is _UNHASHABLE:
            # Unhashable probe value: fall back to the matching scan.
            return [row for row in self._rows if row[position] == value]
        return buckets.get(key, [])

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
        a new one), so sharing is safe.  Index buckets *are* appended to in
        place by ``insert``, so each bucket list is copied.
        """
        clone = Table.__new__(Table)
        clone.schema = self.schema
        clone.uid = self.uid
        clone.mutations = self.mutations
        clone.published = False
        clone._equal = {}
        clone._rows = list(self._rows)
        clone._indexes = {
            position: {key: list(rows) for key, rows in buckets.items()}
            for position, buckets in self._indexes.items()
        }
        clone.stats = self.stats.copy()
        clone.spatial = {
            column: SpatialIndex(index.name, clone, index.column)
            for column, index in self.spatial.items()
        }
        return clone

    def freeze(self) -> None:
        """Make this table a published version's: refuse every later write."""
        self.published = True

    def _rebuild_indexes(self) -> None:
        for position in list(self._indexes):
            self._indexes[position] = _buckets(self._rows, itemgetter(position))

    def __repr__(self) -> str:
        return f"Table({self.name}, {self.row_count} rows)"
