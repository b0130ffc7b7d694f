"""Tests for region morphology (dilate / erode / shells / margins)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.regions import (
    Region,
    boundary_shell,
    dilate,
    erode,
    margin,
)
from tests.conftest import ball


class TestDilate:
    def test_superset(self, blob_region):
        assert dilate(blob_region, 1).contains(blob_region)

    def test_matches_scipy(self, blob_region):
        expected = ndimage.binary_dilation(blob_region.to_mask())
        assert np.array_equal(dilate(blob_region, 1).to_mask(), expected)

    def test_radius_grows_monotonically(self, sphere_region):
        d1 = dilate(sphere_region, 1)
        d2 = dilate(sphere_region, 2)
        assert d2.contains(d1)
        assert d2.voxel_count > d1.voxel_count

    def test_clipped_at_grid_boundary(self, grid3):
        corner = Region.from_box(grid3, (0, 0, 0), (2, 2, 2))
        grown = dilate(corner, 3)
        assert grown.voxel_count <= grid3.size
        lower, _ = grown.bounding_box()
        assert lower == (0, 0, 0)

    def test_invalid_radius(self, sphere_region):
        with pytest.raises(ValueError):
            dilate(sphere_region, 0)


class TestErode:
    def test_subset(self, blob_region):
        assert blob_region.contains(erode(blob_region, 1))

    def test_sphere_radius_shrinks(self, grid3):
        big = ball(grid3, (8, 8, 8), 6.0)
        small = erode(big, 2)
        approx = ball(grid3, (8, 8, 8), 4.0)
        # Erosion of a ball by a ball is close to the smaller ball.
        overlap = small.intersection(approx).voxel_count
        assert overlap > 0.8 * max(small.voxel_count, approx.voxel_count)

    def test_erosion_can_empty(self, grid3):
        tiny = Region.from_box(grid3, (5, 5, 5), (6, 6, 6))
        assert erode(tiny, 1).voxel_count == 0

    def test_dilate_then_erode_is_closing_superset(self, blob_region):
        closed = erode(dilate(blob_region, 1), 1)
        assert closed.contains(blob_region)  # closing fills gaps, never removes


class TestShellsAndMargins:
    def test_shell_plus_core_partitions_region(self, sphere_region):
        shell = boundary_shell(sphere_region, 1)
        core = erode(sphere_region, 1)
        assert shell.isdisjoint(core)
        assert shell.union(core) == sphere_region

    def test_shell_touches_outside(self, sphere_region):
        shell = boundary_shell(sphere_region, 1)
        outside = sphere_region.complement()
        assert dilate(shell, 1).intersection(outside).voxel_count > 0

    def test_margin_disjoint_from_target(self, sphere_region):
        m = margin(sphere_region, 2)
        assert m.isdisjoint(sphere_region)
        assert m.union(sphere_region) == dilate(sphere_region, 2)

    def test_margin_finds_endangered_structures(self, grid3):
        """The treatment-planning workflow: what lies in the safety margin?"""
        target = ball(grid3, (7, 8, 8), 3.0)
        neighbor = ball(grid3, (13, 8, 8), 2.0)
        assert target.isdisjoint(neighbor)
        endangered = margin(target, 3).intersection(neighbor)
        assert endangered.voxel_count > 0


class TestSqlFunctions:
    def test_dilate_udf(self, demo_system):
        db = demo_system.db
        result = db.execute(
            "select regionDilate(s.region, 1), s.region from atlasStructure s, "
            "neuralStructure ns where s.structureId = ns.structureId "
            "and ns.structureName = 'thalamus'"
        )
        grown_payload, original = result.first()
        grown = Region.from_bytes(grown_payload)
        base = Region.from_bytes(demo_system.lfm.read(original))
        assert grown.contains(base)
        assert grown.voxel_count > base.voxel_count

    def test_margin_udf_composes_with_intersection(self, demo_system):
        db = demo_system.db
        result = db.execute(
            "select voxelCount(intersection(regionMargin(a.region, 2), b.region)) "
            "from atlasStructure a, neuralStructure na, "
            "     atlasStructure b, neuralStructure nb "
            "where a.structureId = na.structureId and na.structureName = 'thalamus' "
            "and b.structureId = nb.structureId and nb.structureName = 'ntal1'"
        )
        assert result.scalar() >= 0  # endangered hemisphere voxels, computed in-DB

    def test_erode_udf(self, demo_system):
        db = demo_system.db
        result = db.execute(
            "select voxelCount(regionErode(s.region, 1)), voxelCount(s.region) "
            "from atlasStructure s, neuralStructure ns "
            "where s.structureId = ns.structureId and ns.structureName = 'cerebellum'"
        )
        eroded, original = result.first()
        assert eroded < original
