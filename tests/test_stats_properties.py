"""Property tests for optimizer statistics and the spatial index.

Two invariants hold the incremental machinery to the ground truth:

* **incremental == recomputed** — after *any* interleaving of INSERT /
  DELETE / UPDATE statements, the incrementally maintained
  :class:`~repro.db.stats.TableStats` must be indistinguishable (through
  every estimator accessor) from a from-scratch ``ANALYZE`` over the same
  rows, and its internal invariants must hold: the run-count histogram
  totals the non-NULL rows, the per-cell bounding boxes are contained in
  the column's union box, and the stamp matches the live table.

  The same holds for the directory's box column, which each INSERT keeps
  in Hilbert order by merging its new cells in at once: seen by the live index or
  through a snapshot, it is exactly the column a recompute builds.

* **probe == brute force** — for any population of regions and any probe
  box, :class:`~repro.db.stats.SpatialIndex` returns exactly the rows
  whose bounding boxes overlap the box, in the recomputed cells'
  ``(hilbert, lower, upper)`` order.

DML interleavings are generated from per-test seeded RNGs (the conftest
pins the module-level ``random`` per node id, so failures replay).
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.curves import GridSpec
from repro.db import stats as stats_module
from repro.db.database import Database
from repro.db.stats import (
    PAGE_SIZE,
    TableStats,
    region_cell_stats,
    run_count_bucket,
)
from repro.regions.region import Region
from repro.storage import BlockDevice, LongFieldManager

GRID_SIDE = 8
GRID = GridSpec((GRID_SIDE,) * 3)


def _box_region(rng: random.Random) -> bytes:
    lower = tuple(rng.randrange(0, GRID_SIDE - 1) for _ in range(3))
    upper = tuple(lo + rng.randrange(1, GRID_SIDE - lo) for lo in lower)
    curve = rng.choice(["hilbert", "morton", "rowmajor"])
    return Region.from_box(GRID, lower, upper, curve=curve).to_bytes("naive")


def _fresh_db() -> Database:
    db = Database()
    db.execute("create table blobs (id integer, tag text, region longfield)")
    return db


def _read_cell(value):
    """The test tables store raw bytes payloads; reads are pass-through."""
    return value


def _apply_random_dml(db: Database, rng: random.Random, ops: int) -> int:
    """Apply a random INSERT/DELETE/UPDATE interleaving; returns next id."""
    next_id = 0
    for _ in range(ops):
        kind = rng.random()
        if kind < 0.55 or next_id == 0:
            region = None if rng.random() < 0.15 else _box_region(rng)
            db.execute(
                "insert into blobs values (?, ?, ?)",
                [next_id, rng.choice(["pet", "mri", "atlas"]), region],
            )
            next_id += 1
        elif kind < 0.8:
            db.execute("delete from blobs where id = ?",
                       [rng.randrange(next_id)])
        else:
            region = None if rng.random() < 0.15 else _box_region(rng)
            db.execute(
                "update blobs set region = ?, tag = ? where id = ?",
                [region, rng.choice(["pet", "mri"]), rng.randrange(next_id)],
            )
    return next_id


def _assert_stats_equal(incremental: TableStats, reference: TableStats,
                        table) -> None:
    """Every estimator accessor must agree between the two stat sets."""
    assert incremental.fresh(table)
    assert reference.fresh(table)
    assert incremental.row_total == reference.row_total == table.row_count
    schema = incremental.schema
    for pos, column in enumerate(schema.columns):
        assert incremental.null_count(pos) == reference.null_count(pos)
        assert incremental.n_distinct(pos) == reference.n_distinct(pos)
    # scalar counters drive eq/range selectivity: spot-check every stored
    # value plus one absent value per scalar column
    for pos, column in enumerate(schema.columns):
        if column.name == "region":
            continue
        values = sorted(
            {row[pos] for row in table.scan() if row[pos] is not None},
            key=repr,
        )
        for value in values + ["<absent-value>"]:
            assert incremental.eq_fraction(pos, value) == reference.eq_fraction(
                pos, value
            )
    # spatial accessors
    pos = schema.position("region")
    assert incremental.region_rows(pos) == reference.region_rows(pos)
    assert incremental.bounding_box(pos) == reference.bounding_box(pos)
    assert incremental.total_runs(pos) == reference.total_runs(pos)
    assert incremental.run_histogram(pos) == reference.run_histogram(pos)
    assert incremental.avg_region_pages(pos) == reference.avg_region_pages(pos)
    # the box column the index probes is the one a recompute builds
    index = table.spatial_index_on("region")
    if index is not None and index._stats is incremental:
        _assert_boxes_equal(index._boxes(), _recomputed_boxes(reference, pos))


def _recomputed_boxes(stats: TableStats, pos: int) -> tuple:
    """One column's box column as ``stats`` (a recompute) holds it."""
    column = stats._spatial.get(pos)
    return column.boxes if column is not None else stats_module._NO_BOXES


def _assert_boxes_equal(boxes: tuple, reference: tuple) -> None:
    """Two box columns hold the same cells, corners and order."""
    assert boxes[0] == reference[0]
    assert np.array_equal(boxes[1], reference[1])
    assert np.array_equal(boxes[2], reference[2])


def _overlaps(cell, lower, upper) -> bool:
    return all(cell.lower[d] < upper[d] and cell.upper[d] > lower[d]
               for d in range(3))


def _hilbert_ordered(column) -> list:
    """A directory's non-empty cell values, stably sorted by
    ``(hilbert, lower, upper)``: the order a probe answers in."""
    return sorted((v for v, meta in column.cells.items() if meta is not None),
                  key=lambda v: (column.cells[v].hilbert, column.cells[v].lower,
                                 column.cells[v].upper))


def _assert_internal_invariants(stats: TableStats, table) -> None:
    """Accounting identities that must hold for any row population."""
    pos = stats.schema.position("region")
    column = stats.spatial_column(pos)
    assert column is not None
    non_null = table.row_count - stats.null_count(pos)
    # every non-NULL row is either a counted region or an empty-region row
    assert sum(column.counts.values()) + column.empty_rows == non_null
    # histogram buckets total the non-NULL rows too
    assert sum(stats.run_histogram(pos).values()) == non_null
    # each cell's box is contained in the union bounding box
    union = stats.bounding_box(pos)
    for value, count in column.counts.items():
        if not count:
            continue
        cell = column.cells[value]
        assert all(union[0][d] <= cell.lower[d] for d in range(3))
        assert all(cell.upper[d] <= union[1][d] for d in range(3))
    # total runs decomposes over the cells
    assert stats.total_runs(pos) == sum(
        column.cells[v].runs * n for v, n in column.counts.items()
    )


class TestIncrementalEqualsRecomputed:
    @pytest.mark.parametrize("seed", [1, 7, 1994, 20260_808])
    def test_any_dml_interleaving(self, seed):
        db = _fresh_db()
        db.execute("create spatial index sxBlobs on blobs (region)")
        db.execute("analyze")  # enable spatial stats before the DML storm
        rng = random.Random(seed)
        _apply_random_dml(db, rng, ops=60)
        table = db.catalog.table("blobs")
        assert table.stats.fresh(table), "DML left the stats stale"
        reference = TableStats(table.schema)
        reference.recompute(table, _read_cell, spatial=True)
        _assert_stats_equal(table.stats, reference, table)
        _assert_internal_invariants(table.stats, table)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_analyze_midstream_changes_nothing(self, seed):
        """ANALYZE in the middle of a workload is a no-op on the values
        (it re-derives what incremental maintenance already knew)."""
        db = _fresh_db()
        db.execute("analyze")
        rng = random.Random(seed)
        _apply_random_dml(db, rng, ops=25)
        table = db.catalog.table("blobs")
        before = {
            "rows": table.stats.row_total,
            "bbox": table.stats.bounding_box(2),
            "runs": table.stats.total_runs(2),
            "hist": table.stats.run_histogram(2),
        }
        db.execute("analyze")
        after = {
            "rows": table.stats.row_total,
            "bbox": table.stats.bounding_box(2),
            "runs": table.stats.total_runs(2),
            "hist": table.stats.run_histogram(2),
        }
        assert before == after
        _apply_random_dml(db, rng, ops=25)
        reference = TableStats(table.schema)
        reference.recompute(table, _read_cell, spatial=True)
        _assert_stats_equal(table.stats, reference, table)

    def test_direct_table_poke_goes_stale_and_analyze_repairs(self):
        db = _fresh_db()
        db.execute("analyze")
        db.execute("insert into blobs values (0, 'pet', ?)",
                   [Region.full(GRID, "hilbert").to_bytes("naive")])
        table = db.catalog.writable("blobs")
        assert table.stats.fresh(table)
        # bypass the SQL layer: the executor's maintenance never runs
        table.insert([1, "rogue", None])
        assert not table.stats.fresh(table)
        db.execute("analyze")
        assert table.stats.fresh(table)
        assert table.stats.row_total == 2


class TestSpatialIndexAgainstBruteForce:
    def _populated(self, seed, rows=40):
        db = _fresh_db()
        rng = random.Random(seed)
        for i in range(rows):
            db.execute("insert into blobs values (?, 'x', ?)",
                       [i, _box_region(rng)])
        db.execute("create spatial index sxBlobs on blobs (region)")
        return db, rng

    def _brute_force(self, table, lower, upper):
        hits = []
        for row in table.scan():
            if row[2] is None:
                continue
            region = Region.from_bytes(row[2])
            if not region.voxel_count:
                continue
            lo, up = region.bounding_box()
            if all(lo[d] < upper[d] and up[d] > lower[d] for d in range(3)):
                hits.append(row)
        return hits

    @pytest.mark.parametrize("seed", [2, 13, 99])
    def test_probe_equals_brute_force_scan(self, seed):
        db, rng = self._populated(seed)
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index is not None and index.probe_safe(table)
        for _ in range(25):
            lower = tuple(rng.randrange(0, GRID_SIDE) for _ in range(3))
            upper = tuple(lo + rng.randrange(1, GRID_SIDE - lo + 1)
                          for lo in lower)
            probed = index.probe(lower, upper)
            expected = self._brute_force(table, lower, upper)
            assert sorted(probed, key=repr) == sorted(expected, key=repr)

    def test_probe_stays_correct_through_dml(self):
        db, rng = self._populated(5, rows=20)
        _apply_random_dml(db, rng, ops=30)
        # every write went to a copy: fetch the table the DML published
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.fresh(table)
        reference = TableStats(table.schema)
        reference.recompute(table, _read_cell, spatial=True)
        column = reference._spatial[index.position]
        ordered = _hilbert_ordered(column)
        for _ in range(10):
            lower = tuple(rng.randrange(0, GRID_SIDE) for _ in range(3))
            upper = tuple(lo + rng.randrange(1, GRID_SIDE - lo + 1)
                          for lo in lower)
            probed = index.probe(lower, upper)
            expected = self._brute_force(table, lower, upper)
            assert sorted(probed, key=repr) == sorted(expected, key=repr)
            assert probed == [
                row for value in ordered
                if _overlaps(column.cells[value], lower, upper)
                for row in column.rows[value]
            ]

    def test_null_cells_disable_probing_but_not_freshness(self):
        db, _ = self._populated(8, rows=5)
        db.execute("insert into blobs values (100, 'null-cell', ?)", [None])
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.fresh(table)
        assert index.null_rows == 1
        assert not index.probe_safe(table)
        db.execute("delete from blobs where id = ?", [100])
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.probe_safe(table)


WHOLE_GRID = ((0, 0, 0), (GRID_SIDE,) * 3)


class TestBoxColumn:
    """An INSERT merges its new cells into the directory's box column; every
    version reads its own immutable column, publish builds none, and a
    probe of any of them answers as a from-scratch recompute."""

    def _indexed(self, seed, rows=12):
        db = _fresh_db()
        db.execute("create spatial index sxBlobs on blobs (region)")
        db.execute("analyze")
        rng = random.Random(seed)
        for i in range(rows):
            db.execute("insert into blobs values (?, 'x', ?)",
                       [i, _box_region(rng)])
        return db, rng

    @staticmethod
    def _boxes(rng, n=20):
        for _ in range(n):
            lower = tuple(rng.randrange(0, GRID_SIDE) for _ in range(3))
            yield lower, tuple(lo + rng.randrange(1, GRID_SIDE - lo + 1)
                               for lo in lower)

    def _assert_probes_as_recomputed(self, table, rng):
        """``table``'s index answers as a from-scratch directory."""
        reference = TableStats(table.schema)
        reference.recompute(table, _read_cell, spatial=True)
        index = table.spatial_index_on("region")
        column = reference._spatial[index.position]
        _assert_boxes_equal(index._boxes(), column.boxes)
        ordered = _hilbert_ordered(column)
        assert index.cell_count() == len(ordered)
        for lower, upper in self._boxes(rng):
            expected = [row for value in ordered
                        if _overlaps(column.cells[value], lower, upper)
                        for row in column.rows[value]]
            assert index.probe(lower, upper) == expected

    @pytest.mark.parametrize("seed", [4, 21])
    def test_live_later_and_earlier_snapshots_each_see_their_state(self, seed):
        db, rng = self._indexed(seed)
        with db.read_view() as earlier:
            assert earlier.seq is not None
            with db.transaction():
                for i in range(100, 108):
                    db.execute("insert into blobs values (?, 'y', ?)",
                               [i, _box_region(rng)])
                live = db.catalog.table("blobs")
                assert live.spatial_index_on("region").probe_safe(live)
                self._assert_probes_as_recomputed(live, rng)       # (a)
            with db.read_view() as later:
                assert later.seq == earlier.seq + 1
                table = later.catalog.table("blobs")
                assert table.row_count == 20
                self._assert_probes_as_recomputed(table, rng)      # (b)
            table = earlier.catalog.table("blobs")
            assert table.row_count == 12
            self._assert_probes_as_recomputed(table, rng)          # (c)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_a_multi_row_insert_merges_its_cells_as_a_recompute_orders_them(
            self, seed):
        """One INSERT of many rows merges its new cells in at once: among
        themselves and with the cells already held, equal keys (one region
        under two codecs) keep insertion order, as ``rebox()`` orders them."""
        db, rng = self._indexed(seed)
        table = db.catalog.table("blobs")
        pos = table.schema.position("region")
        held = [Region.from_bytes(row[pos]) for row in table.scan()]
        payloads = []
        for region in held[:3] + [Region.from_bytes(_box_region(rng))
                                  for _ in range(5)]:
            payloads += [region.to_bytes("elias"), region.to_bytes("naive")]
        rng.shuffle(payloads)
        db.execute("insert into blobs values "
                   + ", ".join(["(?, 'm', ?)"] * len(payloads)),
                   [v for i, p in enumerate(payloads) for v in (100 + i, p)])
        table = db.catalog.table("blobs")
        column = table.stats._spatial[pos]
        keys = [stats_module._box_key(column.cells[v]) for v in column.boxes[0]]
        assert len(set(keys)) < len(keys)  # the ties are there
        reference = TableStats(table.schema)
        reference.recompute(table, _read_cell, spatial=True)
        _assert_boxes_equal(column.boxes, reference._spatial[pos].boxes)
        self._assert_probes_as_recomputed(table, rng)

    def test_publish_does_no_spatial_work(self):
        db, rng = self._indexed(6)
        with db.transaction():
            for i in range(100, 110):
                db.execute("insert into blobs values (?, 'y', ?)",
                           [i, _box_region(rng)])
            boxes = db.catalog.table("blobs").spatial_index_on("region")._boxes()
        published = db.catalog.table("blobs")
        assert published.published
        assert published.spatial_index_on("region")._boxes() is boxes
        assert len(boxes[0]) == len({row[2] for row in published.scan()})
        with db.read_view() as view:
            pinned = view.catalog.table("blobs").spatial_index_on("region")
            assert pinned._boxes() is boxes

    def test_threads_probing_a_live_index_agree(self):
        db, rng = self._indexed(9)
        answers, errors = [], []
        start = threading.Barrier(6)

        def prober():
            try:
                start.wait(timeout=10)
                answers.append(
                    [sorted(r[0] for r in index.probe(*WHOLE_GRID)),
                     index.cell_count(), id(index._boxes())])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with db.transaction():
                for i in range(100, 106):
                    db.execute("insert into blobs values (?, 'y', ?)",
                               [i, _box_region(rng)])
                live = db.catalog.table("blobs")
                index = live.spatial_index_on("region")
                threads = [threading.Thread(target=prober) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                self._assert_probes_as_recomputed(live, rng)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(answers) == 6 and all(a == answers[0] for a in answers)
        table = db.catalog.table("blobs")
        assert answers[0][:2] == [list(range(12)) + list(range(100, 106)),
                                  len({row[2] for row in table.scan()})]


def _stored_db(indexed: bool = True):
    """An LFM-backed ``blobs`` table (handles, not bytes, in ``region``)."""
    lfm = LongFieldManager(BlockDevice(8 << 20))
    db = Database(lfm=lfm)
    db.execute("create table blobs (id integer, tag text, region longfield)")
    if indexed:
        db.execute("create spatial index sxBlobs on blobs (region)")
    db.execute("analyze")
    return db, lfm


class TestOneRegionDirectory:
    """The stats' directory is the only reader of stored REGION payloads:
    the index, the estimators and MVCC snapshots all read it."""

    def test_each_new_payload_is_dereferenced_exactly_once(self):
        db, lfm = _stored_db()
        rng = random.Random(14)
        handles = [lfm.create(_box_region(rng)) for _ in range(12)]
        for i, handle in enumerate(handles):
            io = db.execute("insert into blobs values (?, 'x', ?)",
                            [i, handle]).io
            assert io.read_calls == 1
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.probe_safe(table)
        assert index.cell_count() == len(set(handles)) == 12
        assert table.stats.region_rows(2) == 12

    def test_reinserting_a_known_cell_reads_nothing(self):
        db, lfm = _stored_db()
        handle = lfm.create(_box_region(random.Random(15)))
        db.execute("insert into blobs values (0, 'x', ?)", [handle])
        io = db.execute("insert into blobs values (1, 'x', ?)", [handle]).io
        assert io.read_calls == 0 and io.pages_read == 0
        table = db.catalog.table("blobs")
        assert len(table.spatial_index_on("region").probe(*WHOLE_GRID)) == 2

    def test_pinned_snapshot_probe_does_not_see_later_inserts(self):
        db, lfm = _stored_db()
        rng = random.Random(16)
        known = lfm.create(_box_region(rng))
        db.execute("insert into blobs values (0, 'x', ?)", [known])
        with db.read_view() as view:
            assert view.seq is not None  # a pinned snapshot, not the lock
            pinned = view.catalog.table("blobs").spatial_index_on("region")
            # a known cell appends to the live rows only; the boxes are shared
            db.execute("insert into blobs values (1, 'x', ?)", [known])
            live = db.catalog.table("blobs").spatial_index_on("region")
            assert pinned._boxes() is live._boxes()
            # a new cell gives the live version a new box column; the
            # snapshot keeps its own
            db.execute("insert into blobs values (2, 'x', ?)",
                       [lfm.create(_box_region(rng))])
            live = db.catalog.table("blobs").spatial_index_on("region")
            assert pinned._boxes() is not live._boxes()
            assert [row[0] for row in pinned.probe(*WHOLE_GRID)] == [0]
            assert pinned.cell_count() == 1
        assert sorted(row[0] for row in live.probe(*WHOLE_GRID)) == [0, 1, 2]

    def test_drop_and_recreate_index_on_analyzed_table_reads_nothing(self):
        db, lfm = _stored_db()
        rng = random.Random(17)
        for i in range(6):
            db.execute("insert into blobs values (?, 'x', ?)",
                       [i, lfm.create(_box_region(rng))])
        db.execute("drop index sxBlobs")
        io = db.execute("create spatial index sxBlobs on blobs (region)").io
        assert io.read_calls == 0
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.probe_safe(table) and index.cell_count() == 6
        assert len(index.probe(*WHOLE_GRID)) == 6

    def test_index_without_analyze_collects_but_estimators_stay_silent(self):
        lfm = LongFieldManager(BlockDevice(8 << 20))
        db = Database(lfm=lfm)
        db.execute("create table blobs (id integer, tag text, region longfield)")
        db.execute("create spatial index sxBlobs on blobs (region)")
        db.execute("insert into blobs values (0, 'x', ?)",
                   [lfm.create(_box_region(random.Random(18)))])
        table = db.catalog.table("blobs")
        assert table.spatial_index_on("region").probe_safe(table)
        assert len(table.spatial_index_on("region").probe(*WHOLE_GRID)) == 1
        assert table.stats.spatial_column(2) is None
        assert table.stats.n_distinct(2) is None
        assert table.stats.avg_region_pages(2) is None


class TestNonRegionLongfieldColumn:
    """A LONGFIELD column holding something other than regions (a raw
    volume, a mesh) is marked failed by ANALYZE and never read again."""

    PAYLOAD = b"not a region payload " * 1000  # ~5 pages

    def test_insert_into_failed_column_reads_nothing(self):
        db, lfm = _stored_db(indexed=False)
        db.execute("insert into blobs values (0, 'raw', ?)",
                   [lfm.create(self.PAYLOAD)])
        db.execute("analyze blobs")
        io = db.execute("insert into blobs values (1, 'raw', ?)",
                        [lfm.create(self.PAYLOAD)]).io
        assert io.pages_read == 0
        table = db.catalog.table("blobs")
        assert table.stats.fresh(table)
        assert table.stats.spatial_column(2) is None
        assert table.stats.row_total == 2

    def test_analyze_reads_at_most_one_non_region_payload(self):
        db, lfm = _stored_db(indexed=False)
        table = db.catalog.writable("blobs")
        for i in range(5):  # behind the executor's back: nothing is parsed
            table.insert([i, "raw", lfm.create(self.PAYLOAD)])
        io = db.execute("analyze blobs").io
        assert io.read_calls <= 1
        assert table.stats.fresh(table)
        assert table.stats.spatial_column(2) is None

    def test_deleting_the_offending_rows_clears_the_failure(self):
        db, lfm = _stored_db()
        rng = random.Random(19)
        db.execute("insert into blobs values (0, 'ok', ?)",
                   [lfm.create(_box_region(rng))])
        db.execute("insert into blobs values (1, 'raw', ?)",
                   [lfm.create(self.PAYLOAD)])
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert table.stats.fresh(table) and not index.fresh(table)
        db.execute("insert into blobs values (2, 'ok', ?)",
                   [lfm.create(_box_region(rng))])
        db.execute("delete from blobs where id = 1")
        table = db.catalog.table("blobs")
        index = table.spatial_index_on("region")
        assert index.probe_safe(table)
        assert sorted(r[0] for r in index.probe(*WHOLE_GRID)) == [0, 2]
        reference = TableStats(table.schema)
        reference.recompute(table, lfm.read, spatial=True)
        _assert_stats_equal(table.stats, reference, table)


class TestCellStats:
    def test_cell_stats_match_region_geometry(self):
        region = Region.from_box(GRID, (1, 2, 3), (4, 5, 6), curve="hilbert")
        payload = region.to_bytes("naive")
        cell = region_cell_stats(payload)
        assert cell.lower == (1, 2, 3) and cell.upper == (4, 5, 6)
        assert cell.voxels == region.voxel_count == 3 * 3 * 3
        assert cell.runs == region.run_count
        assert cell.nbytes == len(payload)
        assert cell.pages == max(1, -(-len(payload) // PAGE_SIZE))

    def test_empty_region_has_no_cell_stats(self):
        payload = Region.empty(GRID, "hilbert").to_bytes("naive")
        assert region_cell_stats(payload) is None

    def test_run_count_buckets_are_log2(self):
        assert [run_count_bucket(n) for n in (0, 1, 2, 3, 4, 7, 8)] == [
            0, 1, 2, 2, 3, 3, 4,
        ]
