"""Unit tests for the spatial SQL functions (§3.2) against a real LFM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import Database, register_spatial_functions
from repro.errors import ExecutionError
from repro.regions import Region
from repro.storage import BlockDevice, LongFieldManager
from repro.volumes import DataRegion, Volume
from tests.conftest import ball


@pytest.fixture
def env(rng):
    device = BlockDevice(16 << 20)
    lfm = LongFieldManager(device)
    db = Database(lfm=lfm)
    register_spatial_functions(db)
    db.execute("create table shapes (shapeId integer, region longfield)")
    db.execute("create table vols (volId integer, data longfield)")
    grid = __import__("repro").GridSpec((16, 16, 16))
    sphere = ball(grid, (8, 8, 8), 5.0)
    box = Region.from_box(grid, (6, 6, 6), (16, 16, 16))
    db.execute("insert into shapes values (?, ?)", [1, lfm.create(sphere.to_bytes("naive"))])
    db.execute("insert into shapes values (?, ?)", [2, lfm.create(box.to_bytes("elias"))])
    arr = rng.integers(0, 256, grid.shape).astype(np.uint8)
    volume = Volume.from_array(arr)
    db.execute("insert into vols values (?, ?)", [1, lfm.create(volume.to_bytes(align=4096))])
    return db, lfm, grid, sphere, box, arr


class TestRegionOperators:
    def test_intersection(self, env):
        db, _, _, sphere, box, _ = env
        result = db.execute(
            "select intersection(a.region, b.region) from shapes a, shapes b "
            "where a.shapeId = 1 and b.shapeId = 2"
        )
        region = Region.from_bytes(result.scalar())
        assert region == sphere.intersection(box)

    def test_union(self, env):
        db, _, _, sphere, box, _ = env
        result = db.execute(
            "select regionUnion(a.region, b.region) from shapes a, shapes b "
            "where a.shapeId = 1 and b.shapeId = 2"
        )
        assert Region.from_bytes(result.scalar()) == sphere.union(box)

    def test_difference(self, env):
        db, _, _, sphere, box, _ = env
        result = db.execute(
            "select regionDifference(a.region, b.region) from shapes a, shapes b "
            "where a.shapeId = 1 and b.shapeId = 2"
        )
        assert Region.from_bytes(result.scalar()) == sphere.difference(box)

    def test_contains_in_where_clause(self, env):
        db, lfm, grid, sphere, _, _ = env
        # A small ball near the sphere's edge: inside shape 1, outside shape 2.
        inner = ball(grid, (5, 8, 8), 1.0)
        assert sphere.contains(inner)
        db.execute("insert into shapes values (?, ?)", [3, lfm.create(inner.to_bytes("naive"))])
        result = db.execute(
            "select a.shapeId from shapes a, shapes b "
            "where b.shapeId = 3 and contains(a.region, b.region) = true "
            "order by a.shapeId"
        )
        assert result.column("shapeId") == [1, 3]

    def test_voxel_and_run_count(self, env):
        db, _, _, sphere, _, _ = env
        result = db.execute(
            "select voxelCount(region), runCount(region) from shapes where shapeId = 1"
        )
        assert result.rows == [(sphere.voxel_count, sphere.run_count)]

    def test_reencode(self, env):
        db, _, _, sphere, _, _ = env
        result = db.execute(
            "select reencode(region, 'elias') from shapes where shapeId = 1"
        )
        payload = result.scalar()
        assert Region.from_bytes(payload) == sphere
        assert len(payload) < len(sphere.to_bytes("naive"))


class TestExtractVoxels:
    def test_values_correct(self, env):
        db, _, _, sphere, _, arr = env
        result = db.execute(
            "select extractVoxels(v.data, s.region) from vols v, shapes s "
            "where v.volId = 1 and s.shapeId = 1"
        )
        data = DataRegion.from_bytes(result.scalar())
        coords = sphere.coords()
        assert np.array_equal(data.values, arr[coords[:, 0], coords[:, 1], coords[:, 2]])

    def test_reads_only_needed_pages(self, env, rng):
        db, lfm, _, _, _, _ = env
        # A 32^3 volume spans 8 data pages; a corner box touches far fewer.
        from repro.curves import GridSpec

        big_grid = GridSpec((32, 32, 32))
        arr = rng.integers(0, 256, big_grid.shape).astype(np.uint8)
        volume_lf = lfm.create(Volume.from_array(arr).to_bytes(align=4096))
        db.execute("insert into vols values (?, ?)", [2, volume_lf])
        small = Region.from_box(big_grid, (0, 0, 0), (4, 4, 4))
        full = db.execute("select extractAll(v.data) from vols v where v.volId = 2")
        partial = db.execute(
            "select extractVoxels(v.data, ?) from vols v where v.volId = 2",
            [small.to_bytes("naive")],
        )
        assert full.io.pages_read == 9  # 1 header page + 8 aligned data pages
        assert partial.io.pages_read < full.io.pages_read

    def test_nested_intersection_then_extract(self, env):
        db, _, _, sphere, box, arr = env
        result = db.execute(
            "select extractVoxels(v.data, intersection(a.region, b.region)) "
            "from vols v, shapes a, shapes b "
            "where v.volId = 1 and a.shapeId = 1 and b.shapeId = 2"
        )
        data = DataRegion.from_bytes(result.scalar())
        inter = sphere.intersection(box)
        assert data.region == inter

    def test_transient_volume_payload(self, env):
        db, _, grid, sphere, _, arr = env
        volume_bytes = Volume.from_array(arr).to_bytes()
        result = db.execute(
            "select extractVoxels(?, ?) from vols v where v.volId = 1",
            [volume_bytes, sphere.to_bytes("naive")],
        )
        data = DataRegion.from_bytes(result.scalar())
        assert data.voxel_count == sphere.voxel_count

    def test_rejects_non_longfield(self, env):
        db, _, _, _, _, _ = env
        with pytest.raises(ExecutionError):
            db.execute("select extractVoxels(1, 2) from vols")

    def test_grid_mismatch_rejected(self, env):
        db, _, _, _, _, _ = env
        from repro.curves import GridSpec

        wrong = Region.full(GridSpec((8, 8, 8)))
        with pytest.raises(ExecutionError):
            db.execute(
                "select extractVoxels(v.data, ?) from vols v where v.volId = 1",
                [wrong.to_bytes("naive")],
            )

    def test_curve_mismatch_rejected(self, env):
        db, _, grid, sphere, _, _ = env
        z_region = sphere.reorder("morton")
        with pytest.raises(ExecutionError):
            db.execute(
                "select extractVoxels(v.data, ?) from vols v where v.volId = 1",
                [z_region.to_bytes("naive")],
            )


class TestDataRegionFunctions:
    def test_data_mean_min_max(self, env):
        db, _, _, sphere, _, arr = env
        result = db.execute(
            "select dataMean(extractVoxels(v.data, s.region)), "
            "dataMin(extractVoxels(v.data, s.region)), "
            "dataMax(extractVoxels(v.data, s.region)) "
            "from vols v, shapes s where v.volId = 1 and s.shapeId = 1"
        )
        mean, lo, hi = result.first()
        coords = sphere.coords()
        values = arr[coords[:, 0], coords[:, 1], coords[:, 2]]
        assert mean == pytest.approx(float(values.mean()))
        assert lo == float(values.min())
        assert hi == float(values.max())

    def test_data_voxels(self, env):
        db, _, _, sphere, _, _ = env
        result = db.execute(
            "select dataVoxels(extractVoxels(v.data, s.region)) "
            "from vols v, shapes s where v.volId = 1 and s.shapeId = 1"
        )
        assert result.scalar() == sphere.voxel_count

    def test_data_band(self, env):
        db, _, _, sphere, _, arr = env
        result = db.execute(
            "select dataBand(extractVoxels(v.data, s.region), 100, 150) "
            "from vols v, shapes s where v.volId = 1 and s.shapeId = 1"
        )
        data = DataRegion.from_bytes(result.scalar())
        assert ((data.values >= 100) & (data.values <= 150)).all()
        coords = sphere.coords()
        values = arr[coords[:, 0], coords[:, 1], coords[:, 2]]
        assert data.voxel_count == int(((values >= 100) & (values <= 150)).sum())

    def test_data_mean_in_predicate(self, env):
        db, _, _, _, _, _ = env
        result = db.execute(
            "select s.shapeId from vols v, shapes s "
            "where v.volId = 1 and dataMean(extractVoxels(v.data, s.region)) >= 0 "
            "order by s.shapeId"
        )
        assert result.column("shapeId") == [1, 2]


class TestWorkAccounting:
    def test_extract_counts_voxels(self, env):
        db, _, _, sphere, _, _ = env
        result = db.execute(
            "select extractVoxels(v.data, s.region) from vols v, shapes s "
            "where v.volId = 1 and s.shapeId = 1"
        )
        assert result.work.voxels_extracted == sphere.voxel_count
        assert result.work.runs_processed >= sphere.run_count

    def test_io_delta_per_query(self, env):
        db, _, _, _, _, _ = env
        first = db.execute("select voxelCount(region) from shapes where shapeId = 1")
        second = db.execute("select voxelCount(region) from shapes where shapeId = 1")
        assert first.io.pages_read == second.io.pages_read  # deltas, not cumulative


class TestServerIntegration:
    """``CREATE SPATIAL INDEX`` (the box column) behind the medical server."""

    def test_indexed_and_naive_agree(self, demo_system):
        box = ((10, 10, 8), (20, 20, 16))
        names_indexed, r_indexed = demo_system.server.structures_intersecting_box(*box)
        names_naive, r_naive = demo_system.server.structures_intersecting_box(
            *box, use_index=False
        )
        assert names_indexed == names_naive
        assert r_indexed.io.pages_read <= r_naive.io.pages_read

    def test_miss_costs_almost_nothing(self, demo_system):
        corner = ((0, 0, 0), (2, 2, 2))  # outside the brain envelope
        names, result = demo_system.server.structures_intersecting_box(*corner)
        assert names == []
        assert result.io.pages_read <= 2
