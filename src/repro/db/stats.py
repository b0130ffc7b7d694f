"""Catalog-resident statistics and spatial indexes (the optimizer's food).

Both hang off :class:`~repro.db.table.Table`, and a write scope writes
them on its own copy of the table, never on a published one:

* :class:`TableStats` — per-column statistics.  Scalar columns keep exact
  value counters (the tables are small metadata relations; a counter *is*
  the histogram).  A LONGFIELD column that has a spatial index, or whose
  table was ``ANALYZE``d, keeps a **region-cell directory**: per distinct
  stored value its :class:`RegionCellStats` (bounding box, run count,
  voxel count, payload size, Hilbert packing key) and the rows holding
  it.  One function builds a cell (:func:`region_cell`); a stored
  payload is read and parsed for it — here and nowhere else, once per
  distinct value — only when the database did not watch the region
  being stored (``repro.db.spatial.store_region``).  DML maintains
  everything incrementally; a from-scratch ``ANALYZE`` must always
  reproduce the incremental state (tests/test_stats_properties.py and
  tests/test_load_unit.py hold the engine to that).

* :class:`SpatialIndex` — a named index over one column's directory,
  which keeps its non-empty cells' bounding boxes as one immutable column
  in Hilbert order.  ``probe(lower, upper)`` is one vectorised overlap
  test over it and returns the rows of every cell whose MBR overlaps the
  box; the caller re-checks the exact predicate, so false positives cost
  time, never correctness.

Freshness is one stamp: the stats record the owning table's
``(uid, mutations)`` after maintenance, and an index is fresh when they
are.  Any mutation that bypassed maintenance (direct ``Table`` pokes,
crash-recovery reload) leaves the stamp behind, the planner sees
``fresh() == False`` and falls back to default selectivities and plain
scans, and the next ``ANALYZE`` repairs everything.  Mutable state is
guarded by the stats' lock, ranked below every storage-layer lock —
region payloads are always parsed *before* it is taken, so maintenance
never holds it across LFM reads.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import ChainMap, Counter
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.concurrency import lockdep
from repro.curves import curve_for_grid
from repro.db.schema import TableSchema
from repro.db.types import SqlType
from repro.regions.region import Region

__all__ = [
    "RegionCellStats",
    "TableStats",
    "SpatialIndex",
    "region_cell",
    "region_cell_stats",
    "run_count_bucket",
    "PAGE_SIZE",
]

#: long-field page size, for translating payload bytes into page I/Os
PAGE_SIZE = 4096


def run_count_bucket(runs: int) -> int:
    """The log2 histogram bucket of a run count (0, 1, 2-3, 4-7, ...)."""
    return int(runs).bit_length()


@dataclass(frozen=True)
class RegionCellStats:
    """Spatial metadata of one *distinct* region value (immutable)."""

    lower: tuple[int, ...]      #: bounding box lower corner (inclusive)
    upper: tuple[int, ...]      #: bounding box upper corner (exclusive)
    runs: int                   #: run-list length
    voxels: int                 #: member voxel count
    nbytes: int                 #: serialized payload length
    hilbert: int                #: Hilbert key: the directory's box order

    @property
    def pages(self) -> int:
        """Page I/Os one read of this payload costs (at least one)."""
        return max(1, -(-self.nbytes // PAGE_SIZE))


def hilbert_sort_key(region: Region) -> int:
    """The Hilbert key of one region, which orders a directory's boxes.

    For regions already linearized along the Hilbert curve this is the
    midpoint of the curve-id interval (no geometry needed).  Other
    linearizations map their (memoized) bounding-box center through the
    grid's Hilbert curve — every grid a region's own curve covers has one.
    """
    intervals = region.intervals
    if not intervals.run_count:
        return 0
    if region.curve.name == "hilbert":
        return (int(intervals.min_index) + int(intervals.max_index)) // 2
    lower, upper = region.bounding_box()
    center = [(lo + up - 1) // 2 for lo, up in zip(lower, upper)]
    return curve_for_grid(region.grid, "hilbert").index_point(*center)


def region_cell(region: Region, nbytes: int) -> RegionCellStats | None:
    """The directory cell of a region whose payload is ``nbytes`` long — the
    one function that builds a cell, of a region just decoded or still in
    hand.  None for an empty region (no bounding box, nothing to index)."""
    if not region.voxel_count:
        return None
    lower, upper = region.bounding_box()
    return RegionCellStats(lower, upper, region.run_count, region.voxel_count,
                           nbytes, hilbert_sort_key(region))


def region_cell_stats(data: bytes) -> RegionCellStats | None:
    """:func:`region_cell` of one serialized payload, decoded first — the
    path of every payload the database did not watch being made.  Raises
    whatever :meth:`Region.from_bytes` raises for non-region payloads —
    callers decide whether that disables stats for the column."""
    return region_cell(Region.from_bytes(data), len(data))


#: parse outcome of a payload that is not a region
_FAILED = object()

#: the sort key of a directory's box column (ties keep insertion order)
_box_key = attrgetter("hilbert", "lower", "upper")

#: the box column of a directory without a non-empty cell
_NO_BOXES = ((), np.empty((0, 3), np.int64), np.empty((0, 3), np.int64))


def _cells(column: "_SpatialColumn | None") -> dict:
    """A directory's cells; a column never collected has none."""
    return column.cells if column is not None else {}


class _SpatialColumn:
    """The region-cell directory of one LONGFIELD column.

    ``cells`` maps each distinct stored cell value (a LongField handle or
    a bytes payload — both hashable) to its immutable
    :class:`RegionCellStats` (None for an empty region); ``rows`` holds,
    per non-empty cell, the table rows storing it — what a probe returns.
    Aggregates (bounding box, run totals, histogram) are derived from the
    cells on demand: distinct-region populations are small, and deriving
    instead of tracking makes incremental == recomputed true by
    construction.  ``boxes`` is what a :class:`SpatialIndex` probe tests:
    ``(values, lower, upper)``, the non-empty cells' values in
    ``(hilbert, lower, upper)`` order and their corners as two aligned
    ``(n, 3)`` int64 arrays.  It is never mutated — maintenance builds a
    new one — so a copy shares it and a probe reads it without a lock.
    """

    __slots__ = ("cells", "rows", "empty_rows", "failed", "boxes")

    def __init__(self):
        self.cells: dict = {}
        self.rows: dict = {}
        #: rows holding an empty region (no box; still counted rows)
        self.empty_rows = 0
        #: a stored payload is not a region: the column is neither read
        #: nor usable until a recompute finds the offending rows gone
        self.failed = False
        self.boxes = _NO_BOXES

    @property
    def counts(self) -> Counter:
        """Per-cell row counts (non-empty cells only)."""
        return Counter({value: len(rows) for value, rows in self.rows.items()})

    def copy(self) -> "_SpatialColumn":
        """A clone for a table's writable copy: inserts append to the row
        lists in place, so those are copied; the cell metadata and the box
        column are immutable, so those are shared."""
        clone = _SpatialColumn()
        clone.cells = dict(self.cells)
        clone.rows = {value: list(rows) for value, rows in self.rows.items()}
        clone.empty_rows = self.empty_rows
        clone.failed = self.failed
        clone.boxes = self.boxes
        return clone

    def add_boxes(self, added: list) -> None:
        """A new box column with the new non-empty cells ``added`` merged
        in at once, each after its equals: a tie keeps insertion order."""
        cells = self.cells

        def key(value):
            return _box_key(cells[value])

        added = sorted(added, key=key)  # stable: equal new keys keep order
        values, lower, upper = self.boxes
        at = [bisect_right(values, key(value), key=key) for value in added]
        new_lower = np.array([cells[v].lower for v in added], np.int64)
        new_upper = np.array([cells[v].upper for v in added], np.int64)
        if values:
            lower = np.insert(lower, at, new_lower, axis=0)
            upper = np.insert(upper, at, new_upper, axis=0)
        else:  # the first cells set the corners' dimension
            lower, upper = new_lower, new_upper
        merged = list(values)
        for shift, (i, value) in enumerate(zip(at, added)):
            merged.insert(i + shift, value)
        self.boxes = (tuple(merged), lower, upper)

    def rebox(self) -> None:
        """The box column of every non-empty cell, built at once."""
        cells = self.cells
        values = sorted((v for v, meta in cells.items() if meta is not None),
                        key=lambda v: _box_key(cells[v]))
        self.boxes = (tuple(values),
                      np.array([cells[v].lower for v in values], np.int64),
                      np.array([cells[v].upper for v in values], np.int64),
                      ) if values else _NO_BOXES


class TableStats:
    """Per-column statistics of one table, incrementally maintained.

    Scalar columns are tracked from table creation (pure CPU); a
    LONGFIELD column's directory starts with the first ``CREATE SPATIAL
    INDEX`` on it or ``ANALYZE`` of the table, at one region-payload read
    per distinct cell value.  All mutation goes through
    ``apply_inserts``/``recompute`` under the internal lock; region
    payload parsing always happens before the lock is taken.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._lock = lockdep.instrument(threading.Lock(), "db.stats")
        #: identity stamp of the table state the stats describe
        self.stamp: tuple[int, int] | None = None  # guarded_by: _lock
        #: total rows accounted for
        self.row_total = 0  # guarded_by: _lock
        #: per-position non-null value counters (None for LONGFIELD)
        self._values: list[Counter | None] = [  # guarded_by: _lock
            None if c.sql_type is SqlType.LONGFIELD else Counter()
            for c in schema.columns
        ]
        #: per-position NULL counts
        self._nulls: list[int] = [0] * len(schema)  # guarded_by: _lock
        #: True once ANALYZE ran: every LONGFIELD column is collected and
        #: the spatial estimators answer
        self.spatial_enabled = False  # guarded_by: _lock
        #: per-position region-cell directory (collected positions only)
        self._spatial: dict[int, _SpatialColumn] = {}  # guarded_by: _lock

    # -------------------------------------------------------------- #
    # freshness
    # -------------------------------------------------------------- #

    def fresh(self, table) -> bool:
        """Do the stats still describe the live table state?"""
        return self.stamp == (table.uid, table.mutations)

    def restamp(self, table) -> None:
        """Mark the stats as describing the table's current state."""
        with self._lock:
            self.stamp = (table.uid, table.mutations)

    def copy(self) -> "TableStats":
        """An independent clone for a table's writable copy (same stamp)."""
        clone = TableStats.__new__(TableStats)
        clone.schema = self.schema
        clone._lock = lockdep.instrument(threading.Lock(), "db.stats")
        with self._lock:
            clone.stamp = self.stamp
            clone.row_total = self.row_total
            clone._values = [
                None if c is None else Counter(c) for c in self._values
            ]
            clone._nulls = list(self._nulls)
            clone.spatial_enabled = self.spatial_enabled
            clone._spatial = {
                pos: col.copy() for pos, col in self._spatial.items()
            }
        return clone

    # -------------------------------------------------------------- #
    # maintenance
    # -------------------------------------------------------------- #

    def _collected(self, table, analyzed: bool) -> list[int]:
        """The LONGFIELD positions whose directory is kept: all of them
        once the table was ANALYZEd, else the spatially indexed ones."""
        indexed = {index.position for index in table.spatial.values()}
        return [
            i for i, c in enumerate(self.schema.columns)
            if c.sql_type is SqlType.LONGFIELD and (analyzed or i in indexed)
        ]

    @staticmethod
    def _resolve_cells(rows, known, reader) -> dict[tuple[int, object], object]:
        """Region metadata of every cell ``rows`` store, without the lock.

        ``known`` maps each position to read to the cells already on hand
        for it — parsed before, or built by ``store_region`` from the
        object; only never-seen values are dereferenced — this is the one
        place a stored payload is read (``reader(value) -> bytes`` is the
        execution context's ``read_longfield``), and only for a region the
        database did not watch being stored.  Returns a map from
        ``(position, cell value)`` to :class:`RegionCellStats`, None (an
        empty region) or ``_FAILED``; a column is not read past its first
        payload that is not a region.
        """
        resolved: dict[tuple[int, object], object] = {}
        for pos, cells in known.items():
            for row in rows:
                value = row[pos]
                if value is None or (pos, value) in resolved:
                    continue
                if value in cells:
                    resolved[(pos, value)] = cells[value]
                    continue
                try:
                    resolved[(pos, value)] = region_cell_stats(reader(value))
                except Exception:  # qblint: disable=no-broad-except
                    resolved[(pos, value)] = _FAILED
                    break
        return resolved

    def _fold_locked(self, rows, collected, resolved) -> dict:
        """Account ``rows``; ``_lock`` must be held.  Returns each
        directory's non-empty cells it added, in insertion order."""
        added: dict = {}
        self.row_total += len(rows)
        for row in rows:
            for pos, value in enumerate(row):
                if value is None:
                    self._nulls[pos] += 1
                elif self._values[pos] is not None:
                    self._values[pos][value] += 1
            for pos in collected:
                value = row[pos]
                if value is None:
                    continue
                column = self._spatial.setdefault(pos, _SpatialColumn())
                if column.failed:
                    continue
                if value not in column.cells:
                    meta = resolved.get((pos, value), _FAILED)
                    if meta is _FAILED:
                        column.failed = True
                        continue
                    column.cells[value] = meta
                    if meta is not None:
                        added.setdefault(column, []).append(value)
                if column.cells[value] is None:
                    column.empty_rows += 1
                else:
                    column.rows.setdefault(value, []).append(row)
        return added

    def apply_inserts(self, table, rows: list, reader, watched) -> None:
        """Fold newly inserted (stored, already coerced) rows into the
        stats and stamp them to the table's state; ``watched`` is the
        execution context's ``stored_cells``, consulted before ``reader``."""
        with self._lock:
            collected = self._collected(table, self.spatial_enabled)
            known = {}
            for pos in collected:
                column = self._spatial.get(pos)
                if column is None or not column.failed:
                    known[pos] = ChainMap(_cells(column), watched)
        resolved = self._resolve_cells(rows, known, reader)
        with self._lock:
            for column, values in self._fold_locked(rows, collected, resolved).items():
                column.add_boxes(values)
            self.stamp = (table.uid, table.mutations)

    def recompute(self, table, reader, spatial: bool | None = None) -> None:
        """Rebuild everything from the table's current rows (= ANALYZE).

        ``spatial=True`` (the ANALYZE path) collects every LONGFIELD
        column; ``None`` keeps the current setting (the resync-after-DML
        and CREATE SPATIAL INDEX paths).  Previously parsed cells are
        reused as a cache, so only never-seen region values are read.
        """
        rows = list(table.scan())
        with self._lock:
            analyzed = self.spatial_enabled if spatial is None else spatial
            old = self._spatial
        collected = self._collected(table, analyzed)
        resolved = self._resolve_cells(
            rows, {pos: _cells(old.get(pos)) for pos in collected}, reader
        )
        with self._lock:
            self.row_total = 0
            self._values = [
                None if c.sql_type is SqlType.LONGFIELD else Counter()
                for c in self.schema.columns
            ]
            self._nulls = [0] * len(self.schema)
            self.spatial_enabled = analyzed
            self._spatial = {}
            self._fold_locked(rows, collected, resolved)
            for column in self._spatial.values():
                column.rebox()
            self.stamp = (table.uid, table.mutations)

    # -------------------------------------------------------------- #
    # estimator accessors (read-only; tolerate concurrent staleness)
    # -------------------------------------------------------------- #

    def null_count(self, position: int) -> int:
        """Stored NULLs in one column."""
        return self._nulls[position]

    def n_distinct(self, position: int) -> int | None:
        """Distinct non-null values of one column (None when unknown)."""
        counter = self._values[position]
        if counter is not None:
            return len(counter)
        column = self._spatial.get(position)
        if self.spatial_enabled and column is not None and not column.failed:
            return len(column.cells) + (1 if column.empty_rows else 0)
        return None

    def eq_fraction(self, position: int, value) -> float | None:
        """Exact fraction of rows equal to a known literal value."""
        counter = self._values[position]
        if counter is None or not self.row_total:
            return None
        try:
            return counter[value] / self.row_total
        except TypeError:
            return None

    def range_fraction(self, position: int, op: str, value) -> float | None:
        """Exact fraction of rows satisfying ``column <op> literal``."""
        counter = self._values[position]
        if counter is None or not self.row_total:
            return None
        try:
            if op == "<":
                hits = sum(n for v, n in counter.items() if v < value)
            elif op == "<=":
                hits = sum(n for v, n in counter.items() if v <= value)
            elif op == ">":
                hits = sum(n for v, n in counter.items() if v > value)
            elif op == ">=":
                hits = sum(n for v, n in counter.items() if v >= value)
            else:
                return None
        except TypeError:
            return None
        return hits / self.row_total

    def spatial_column(self, position: int) -> "_SpatialColumn | None":
        """The spatial accounting of one LONGFIELD position, if collected."""
        if not self.spatial_enabled:
            return None
        column = self._spatial.get(position)
        if column is None or column.failed:
            return None
        return column

    def region_rows(self, position: int) -> int:
        """Rows with a non-empty region in one LONGFIELD column."""
        column = self.spatial_column(position)
        if column is None:
            return 0
        return sum(len(rows) for rows in column.rows.values())

    def bounding_box(self, position: int):
        """Union bounding box over one column's regions, or None."""
        column = self.spatial_column(position)
        if column is None:
            return None
        boxes = [column.cells[v] for v in column.rows]
        if not boxes:
            return None
        ndim = len(boxes[0].lower)
        lower = tuple(min(b.lower[d] for b in boxes) for d in range(ndim))
        upper = tuple(max(b.upper[d] for b in boxes) for d in range(ndim))
        return lower, upper

    def total_runs(self, position: int) -> int:
        """Sum of run counts across one column's stored regions."""
        column = self.spatial_column(position)
        if column is None:
            return 0
        return sum(
            column.cells[v].runs * len(rows) for v, rows in column.rows.items()
        )

    def run_histogram(self, position: int) -> Counter:
        """log2 run-count histogram (bucket -> rows) for one column."""
        histogram: Counter = Counter()
        column = self.spatial_column(position)
        if column is None:
            return histogram
        for value, rows in column.rows.items():
            histogram[run_count_bucket(column.cells[value].runs)] += len(rows)
        if column.empty_rows:
            histogram[run_count_bucket(0)] += column.empty_rows
        return histogram

    def avg_region_pages(self, position: int) -> float | None:
        """Mean page I/Os one region read in this column costs."""
        column = self.spatial_column(position)
        if column is None:
            return None
        rows = pages = 0
        for value, held in column.rows.items():
            rows += len(held)
            pages += column.cells[value].pages * len(held)
        return pages / rows if rows else None

    def __repr__(self) -> str:
        return (f"TableStats({self.schema.table_name}, {self.row_total} rows, "
                f"spatial={'on' if self.spatial_enabled else 'off'})")


class SpatialIndex:
    """A named spatial index over one LONGFIELD column.

    The index owns no structure: the boxes a probe tests and the rows it
    returns are the column's directory in the table's :class:`TableStats`,
    whose maintenance keeps the directory's box column in Hilbert order.
    A probe reads that immutable column without a lock, runs one
    vectorised overlap test over it and concatenates the matching cells'
    rows — candidates only, the caller re-evaluates the exact predicate.
    """

    def __init__(self, name: str, table, column: str):
        self.name = name
        self.table_name = table.name
        self.column = column
        self.position = table.schema.position(column)
        self._stats: TableStats = table.stats

    def _directory(self) -> _SpatialColumn | None:
        return self._stats._spatial.get(self.position)

    def _boxes(self) -> tuple:
        """The directory's ``(values, lower, upper)`` box column."""
        column = self._directory()
        return column.boxes if column is not None else _NO_BOXES

    def fresh(self, table) -> bool:
        """Does the index still reflect the live table state?"""
        column = self._directory()
        return (self._stats.fresh(table)
                and not (column is not None and column.failed))

    @property
    def null_rows(self) -> int:
        """Rows whose cell is NULL — the planner refuses to probe then,
        because a probe would skip rows the exact predicate would have
        raised on, changing observable behavior."""
        return self._stats.null_count(self.position)

    def probe_safe(self, table) -> bool:
        """May the planner substitute a probe for a full scan?

        Requires freshness *and* no NULL cells: rows the probe would skip
        must be exactly the rows the refined predicate rejects.
        """
        return self.fresh(table) and self.null_rows == 0

    def probe(self, lower, upper) -> list:
        """Candidate rows whose region MBR overlaps the half-open box, in
        the box column's (Hilbert) order."""
        column = self._directory()
        values, low, up = column.boxes if column is not None else _NO_BOXES
        if not values:
            return []
        overlap = ((low < np.asarray(upper)) & (up > np.asarray(lower))).all(axis=1)
        return [row for i in np.flatnonzero(overlap)
                for row in column.rows.get(values[i], ())]

    def cell_count(self) -> int:
        """Number of distinct indexed region values."""
        return len(self._boxes()[0])

    def __repr__(self) -> str:
        return (f"SpatialIndex({self.name} on "
                f"{self.table_name}.{self.column}, {self.cell_count()} cells)")
