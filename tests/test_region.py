"""Unit tests for the Region type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves import GridSpec, HilbertCurve, MortonCurve
from repro.errors import CodecError, CurveMismatchError, GridMismatchError, ValidationError
from repro.regions import IntervalSet, Region


class TestConstruction:
    def test_empty_and_full(self, grid3):
        empty = Region.empty(grid3)
        full = Region.full(grid3)
        assert empty.voxel_count == 0
        assert not empty
        assert full.voxel_count == grid3.size
        assert full.run_count == 1  # a cube grid is one curve run

    def test_full_non_cube_grid(self):
        grid = GridSpec((8, 8, 4))
        full = Region.full(grid)
        assert full.voxel_count == 8 * 8 * 4

    @pytest.mark.parametrize("shape", [(1,), (1, 1, 1)])
    def test_full_single_voxel_grid(self, shape):
        # GridSpec.bits was 0 here, so no curve could be built for a legal grid
        full = Region.full(GridSpec(shape))
        assert full.voxel_count == 1
        assert full.run_count == 1
        assert full.to_mask().shape == shape
        assert full.to_mask().all()

    def test_from_coords(self, grid3):
        coords = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        region = Region.from_coords(coords, grid3)
        assert region.voxel_count == 3
        assert np.array_equal(np.sort(region.coords(), axis=0), coords)

    def test_from_coords_out_of_grid(self, grid3):
        with pytest.raises(ValueError):
            Region.from_coords(np.array([[16, 0, 0]]), grid3)

    def test_non_integer_coords_are_not_truncated(self, grid3):
        # a pre-cast to int64 used to turn (0.9, 1.7, 2.2) into voxel (0, 1, 2)
        with pytest.raises(ValidationError):
            Region.from_coords(np.array([[0.9, 1.7, 2.2]]), grid3)
        with pytest.raises(ValidationError):
            Region.full(grid3).contains_points(np.array([[0.9, 1.7, 2.2]]))
        assert Region.from_coords(np.empty((0, 3)), grid3).voxel_count == 0

    def test_from_mask_roundtrip(self, grid3, rng):
        mask = rng.random(grid3.shape) < 0.2
        region = Region.from_mask(mask, grid3)
        assert region.voxel_count == int(mask.sum())
        assert np.array_equal(region.to_mask(), mask)

    def test_from_mask_shape_mismatch(self, grid3):
        with pytest.raises(ValueError):
            Region.from_mask(np.zeros((4, 4, 4), dtype=bool), grid3)

    def test_from_mask_infers_grid(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, 3] = True
        region = Region.from_mask(mask)
        assert region.grid.shape == (8, 8)
        assert region.voxel_count == 1

    def test_from_box(self, grid3):
        region = Region.from_box(grid3, (2, 2, 2), (5, 5, 5))
        assert region.voxel_count == 27
        lower, upper = region.bounding_box()
        assert lower == (2, 2, 2)
        assert upper == (5, 5, 5)

    def test_from_box_clips_to_grid(self, grid3):
        region = Region.from_box(grid3, (-5, 0, 0), (100, 1, 1))
        assert region.voxel_count == 16

    def test_from_box_empty(self, grid3):
        assert Region.from_box(grid3, (5, 5, 5), (5, 9, 9)).voxel_count == 0

    @pytest.mark.parametrize("corner", [(1.5, 0, 0), ("1", 0, 0), (1.0, 0, 0), (0, 0)])
    def test_from_box_rejects_what_from_coords_rejects(self, grid3, corner):
        with pytest.raises(ValidationError):
            Region.from_coords([corner], grid3)
        with pytest.raises(ValidationError):
            Region.from_box(grid3, corner, (4, 4, 4))
        with pytest.raises(ValidationError):
            Region.from_box(grid3, (0, 0, 0), corner)

    def test_from_runs(self, grid2):
        region = Region.from_runs([(3, 9)], grid2, "hilbert")
        assert region.voxel_count == 7

    def test_runs_past_curve_end_rejected(self, grid2):
        with pytest.raises(ValueError):
            Region(IntervalSet.from_runs([(0, 64)]), grid2)

    def test_curve_too_small_rejected(self):
        grid = GridSpec((16, 16))
        with pytest.raises(CurveMismatchError):
            Region(IntervalSet.empty(), grid, HilbertCurve(2, 2))


def _meshgrid_box(grid, lower, upper, curve):
    """The oracle ``from_box`` is held to: every voxel of the clipped box
    meshgridded and encoded one by one."""
    lower = np.maximum(lower, 0)
    upper = np.minimum(upper, grid.shape)
    if (lower >= upper).any():
        return Region.empty(grid, curve)
    mesh = np.meshgrid(*map(np.arange, lower, upper), indexing="ij")
    return Region.from_coords(np.stack([axis.ravel() for axis in mesh], axis=1), grid, curve)


class TestFromBoxAgainstMeshgrid:
    """``from_box`` slices the curve's position table, or runs the index
    kernel on a curve past ``TABLE_MAX_LENGTH`` (the last grid)."""

    @pytest.mark.parametrize("curve", ["hilbert", "morton", "rowmajor"])
    @pytest.mark.parametrize("shape", [
        (16, 16, 16), (12, 5, 9), (37,), (20, 7), (129, 3, 2)])
    def test_random_boxes(self, rng, shape, curve):
        from repro.curves.base import TABLE_MAX_LENGTH

        grid = GridSpec(shape)
        if shape == (129, 3, 2):
            assert Region.empty(grid, curve).curve.length > TABLE_MAX_LENGTH
        shape = np.asarray(shape)
        corner = rng.integers(0, shape)
        boxes = [
            ((0,) * grid.ndim, tuple(shape)),                   # full
            (tuple(corner), tuple(corner + 1)),                  # one voxel
            (tuple(corner), tuple(corner)),                      # empty
            (tuple(-shape), tuple(2 * shape)),                   # clipped to full
            ((-3,) * grid.ndim, tuple(corner + 2)),              # clipped below
            (tuple(shape), tuple(shape + 4)),                    # clipped away
        ]
        for _ in range(25):
            a, b = rng.integers(-2, shape + 3, size=(2, grid.ndim))
            boxes.append((tuple(np.minimum(a, b)), tuple(np.maximum(a, b) + 1)))
        for lower, upper in boxes:
            expected = _meshgrid_box(grid, np.asarray(lower), np.asarray(upper), curve)
            assert Region.from_box(grid, lower, upper, curve) == expected, (lower, upper)


class TestGeometryAccessors:
    def test_centroid(self, grid3):
        region = Region.from_box(grid3, (4, 4, 4), (6, 6, 6))
        assert region.centroid() == (4.5, 4.5, 4.5)

    def test_centroid_empty_raises(self, grid3):
        with pytest.raises(ValueError):
            Region.empty(grid3).centroid()

    def test_bounding_box_empty_raises(self, grid3):
        with pytest.raises(ValueError):
            Region.empty(grid3).bounding_box()

    def test_coords_in_curve_order(self, sphere_region):
        coords = sphere_region.coords()
        idx = sphere_region.curve.index(coords)
        assert np.all(np.diff(idx) > 0)

    def test_contains_points(self, sphere_region):
        inside = np.array([[8, 8, 8]])
        outside = np.array([[0, 0, 0], [15, 15, 15], [20, 3, 3]])
        assert sphere_region.contains_points(inside).all()
        assert not sphere_region.contains_points(outside).any()


class TestSetOperations:
    """Region algebra must agree with boolean mask algebra."""

    def test_intersection_matches_masks(self, sphere_region, blob_region):
        expected = sphere_region.to_mask() & blob_region.to_mask()
        assert np.array_equal(sphere_region.intersection(blob_region).to_mask(), expected)

    def test_union_matches_masks(self, sphere_region, blob_region):
        expected = sphere_region.to_mask() | blob_region.to_mask()
        assert np.array_equal(sphere_region.union(blob_region).to_mask(), expected)

    def test_difference_matches_masks(self, sphere_region, blob_region):
        expected = sphere_region.to_mask() & ~blob_region.to_mask()
        assert np.array_equal(sphere_region.difference(blob_region).to_mask(), expected)

    def test_complement(self, sphere_region):
        comp = sphere_region.complement()
        assert comp.voxel_count == sphere_region.grid.size - sphere_region.voxel_count
        assert comp.isdisjoint(sphere_region)

    def test_operators(self, sphere_region, blob_region):
        assert (sphere_region & blob_region) == sphere_region.intersection(blob_region)
        assert (sphere_region | blob_region) == sphere_region.union(blob_region)
        assert (sphere_region - blob_region) == sphere_region.difference(blob_region)

    def test_contains(self, grid3):
        big = Region.from_box(grid3, (0, 0, 0), (10, 10, 10))
        small = Region.from_box(grid3, (2, 2, 2), (5, 5, 5))
        assert big.contains(small)
        assert not small.contains(big)

    def test_n_way_intersection(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (10, 10, 10))
        b = Region.from_box(grid3, (5, 0, 0), (16, 10, 10))
        c = Region.from_box(grid3, (0, 5, 0), (16, 16, 10))
        result = a.intersection(b, c)
        expected = a.to_mask() & b.to_mask() & c.to_mask()
        assert np.array_equal(result.to_mask(), expected)

    def test_grid_mismatch_rejected(self):
        a = Region.full(GridSpec((8, 8, 8)))
        b = Region.full(GridSpec((16, 16, 16)))
        with pytest.raises(GridMismatchError):
            a.intersection(b)

    def test_curve_mismatch_rejected(self, grid3):
        a = Region.full(grid3, "hilbert")
        b = Region.full(grid3, "morton")
        with pytest.raises(CurveMismatchError):
            a.intersection(b)


class TestReorder:
    def test_reorder_preserves_voxels(self, blob_region):
        z = blob_region.reorder("morton")
        assert z.voxel_count == blob_region.voxel_count
        assert np.array_equal(z.to_mask(), blob_region.to_mask())
        assert isinstance(z.curve, MortonCurve)

    def test_reorder_same_curve_is_identity(self, blob_region):
        assert blob_region.reorder("hilbert") is blob_region

    def test_reorder_empty(self, grid3):
        z = Region.empty(grid3).reorder("morton")
        assert z.voxel_count == 0
        assert z.curve.name == "morton"

    def test_hilbert_fewer_runs_than_z_for_blobs(self, blob_region):
        """The clustering claim of §4.1/§4.2 on a compact 3-D shape."""
        z = blob_region.reorder("morton")
        assert blob_region.run_count < z.run_count


class TestSerialization:
    @pytest.mark.parametrize("codec", ["naive", "elias", "octant", "oblong"])
    def test_roundtrip(self, blob_region, codec):
        data = blob_region.to_bytes(codec)
        back = Region.from_bytes(data)
        assert back == blob_region
        assert back.curve == blob_region.curve
        assert back.grid.shape == blob_region.grid.shape

    def test_roundtrip_empty(self, grid3):
        empty = Region.empty(grid3)
        assert Region.from_bytes(empty.to_bytes("elias")) == empty

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            Region.from_bytes(b"XXXX" + b"\0" * 60)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            Region.from_bytes(b"RG")

    def test_elias_smaller_than_naive(self, blob_region):
        assert len(blob_region.to_bytes("elias")) < len(blob_region.to_bytes("naive"))

    def test_2d_region_roundtrip(self, grid2, figure3_cells):
        region = Region.from_coords(figure3_cells, GridSpec((4, 4)))
        assert Region.from_bytes(region.to_bytes("naive")) == region


class TestDunder:
    def test_equality(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (3, 3, 3))
        b = Region.from_box(grid3, (0, 0, 0), (3, 3, 3))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_voxels(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (3, 3, 3))
        b = Region.from_box(grid3, (0, 0, 0), (4, 3, 3))
        assert a != b

    def test_repr(self, sphere_region):
        text = repr(sphere_region)
        assert "voxels" in text and "hilbert" in text
