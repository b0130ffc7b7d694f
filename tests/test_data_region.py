"""Unit tests for the DATA_REGION type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves import GridSpec
from repro.errors import CodecError, ValidationError
from repro.regions import IntervalSet, Region
from repro.volumes import DataRegion, Volume
from tests.conftest import ball


@pytest.fixture
def volume(rng):
    return Volume.from_array(rng.integers(0, 256, (16, 16, 16)).astype(np.uint8))


@pytest.fixture
def data_region(volume):
    region = ball(volume.grid, (8, 8, 8), 5.0)
    return volume.extract(region)


class TestConstruction:
    def test_value_count_must_match(self, volume):
        region = ball(volume.grid, (8, 8, 8), 3.0)
        with pytest.raises(ValueError):
            DataRegion(region, np.zeros(region.voxel_count + 1, dtype=np.uint8))

    def test_values_readonly(self, data_region):
        with pytest.raises(ValueError):
            data_region.values[0] = 1

    def test_nbytes(self, data_region):
        assert data_region.nbytes == data_region.voxel_count  # uint8


class TestProbes:
    def test_value_at_member(self, volume, data_region):
        assert data_region.value_at(8, 8, 8) == volume.value_at(8, 8, 8)

    def test_value_at_non_member_raises(self, data_region):
        with pytest.raises(ValueError):
            data_region.value_at(0, 0, 0)


class TestRestriction:
    def test_restrict_to_subregion(self, volume, data_region):
        sub = Region.from_box(volume.grid, (6, 6, 6), (11, 11, 11))
        restricted = data_region.restrict(sub)
        inter = data_region.region.intersection(sub)
        assert restricted.region == inter
        coords = inter.coords()
        expected = volume.to_array()[coords[:, 0], coords[:, 1], coords[:, 2]]
        assert np.array_equal(restricted.values, expected)

    def test_restrict_disjoint_is_empty(self, volume, data_region):
        far = Region.from_box(volume.grid, (0, 0, 0), (1, 1, 1))
        assert data_region.restrict(far).voxel_count == 0

    def test_band_filter(self, data_region):
        banded = data_region.band(100, 200)
        assert ((banded.values >= 100) & (banded.values <= 200)).all()
        expected = int(((data_region.values >= 100) & (data_region.values <= 200)).sum())
        assert banded.voxel_count == expected

    def test_band_then_values_locate_correctly(self, volume, data_region):
        banded = data_region.band(0, 127)
        coords = banded.region.coords()
        dense = volume.to_array()
        assert np.array_equal(banded.values, dense[coords[:, 0], coords[:, 1], coords[:, 2]])


class TestStatistics:
    def test_min_max_mean(self, data_region):
        assert data_region.min() == data_region.values.min()
        assert data_region.max() == data_region.values.max()
        assert data_region.mean() == pytest.approx(float(data_region.values.mean()))

    def test_empty_statistics(self, volume):
        empty = volume.extract(Region.empty(volume.grid))
        assert empty.min() is None
        assert empty.max() is None
        with pytest.raises(ValueError):
            empty.mean()

    def test_histogram(self, data_region):
        counts, _ = data_region.histogram(bins=8, value_range=(0, 256))
        assert counts.sum() == data_region.voxel_count


class TestDense:
    def test_to_array_fill(self, data_region):
        dense = data_region.to_array(fill=0)
        mask = data_region.region.to_mask()
        assert (dense[~mask] == 0).all()
        coords = data_region.region.coords()
        assert np.array_equal(dense[coords[:, 0], coords[:, 1], coords[:, 2]], data_region.values)


    def test_dense_forms_on_a_non_cube_grid(self, rng):
        """A 5x6x7 grid sits inside the 8^3 curve cube: cube offsets are not
        array offsets there, so the scatter has to go through coordinates."""
        grid = GridSpec((5, 6, 7))
        mask = rng.random(grid.shape) < 0.4
        region = Region.from_mask(mask, grid)
        values = rng.integers(1, 200, region.voxel_count).astype(np.uint8)
        coords = region.curve.coords(region.intervals.indices())
        expected = np.full(grid.shape, 255, dtype=np.uint8)
        for (x, y, z), value in zip(coords.tolist(), values.tolist()):
            expected[x, y, z] = value
        assert np.array_equal(DataRegion(region, values).to_array(fill=255), expected)
        assert np.array_equal(region.to_mask(), mask)
        assert np.array_equal(region.to_mask(), expected != 255)


class TestStackLayout:
    """``to_array(first_axis=a)`` is the dense array with axis ``a`` moved to
    the front, C-contiguous: on the curve's cube (stack tables) and on an
    embedded grid (re-raveled coordinates) alike."""

    @pytest.mark.parametrize("shape", [(16, 16, 16), (5, 7, 3), (8, 8), (4, 2, 4, 4)])
    @pytest.mark.parametrize("curve", ["hilbert", "morton", "rowmajor"])
    def test_stack_is_the_moved_array(self, shape, curve, rng):
        grid = GridSpec(shape)
        region = Region.from_mask(rng.random(shape) < 0.5, grid, curve)
        data = DataRegion(region, rng.integers(1, 256, region.voxel_count).astype(np.uint8))
        dense = data.to_array(fill=0)
        for axis in range(grid.ndim):
            stack = data.to_array(fill=0, first_axis=axis)
            assert stack.flags.c_contiguous
            assert np.array_equal(stack, np.ascontiguousarray(np.moveaxis(dense, axis, 0)))
            mask = np.zeros(stack.shape, dtype=bool)
            mask.reshape(-1)[region.offsets(axis)] = True
            assert np.array_equal(mask, np.moveaxis(region.to_mask(), axis, 0))

    @pytest.mark.parametrize("shape", [(16, 16, 16), (5, 7, 3)])
    @pytest.mark.parametrize("axis", [-1, 3, 7])
    def test_out_of_range_first_axis_is_a_validation_error(self, shape, axis, rng):
        grid = GridSpec(shape)
        region = Region.full(grid)
        data = DataRegion(region, rng.integers(0, 256, region.voxel_count).astype(np.uint8))
        empty = DataRegion(Region.empty(grid), np.empty(0, dtype=np.uint8))
        for call in (lambda: data.to_array(first_axis=axis),
                     lambda: empty.to_array(first_axis=axis),
                     lambda: region.offsets(axis)):
            with pytest.raises(ValidationError):
                call()


class TestOneRunScatter:
    """A one-run region hands ``grid_offsets`` a slice, not its positions:
    the dense forms must still equal a scatter through ``coords()``, on the
    curve's cube (a slice of a table) and on an embedded grid alike."""

    @staticmethod
    def _one_run(grid, curve):
        """A one-run region inside ``grid`` that does not start at 0: the
        longest run of the full grid, less its first voxel."""
        runs = Region.full(grid, curve).intervals
        longest = int(np.argmax(runs.run_lengths))
        start, stop = int(runs.starts[longest]) + 1, int(runs.stops[longest])
        assert start > 0 and stop - start > 1
        return Region(IntervalSet([start], [stop]), grid, curve)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (40, 40, 40), (64, 64, 64)])
    @pytest.mark.parametrize("curve", ["hilbert", "morton", "rowmajor"])
    def test_dense_forms_equal_the_coords_scatter(self, shape, curve, rng):
        grid = GridSpec(shape)
        region = self._one_run(grid, curve)
        assert region.run_count == 1 and region.intervals.starts[0] > 0
        values = rng.integers(1, 1 << 16, region.voxel_count).astype(np.uint16)
        expected = np.zeros(shape, dtype=np.uint16)
        expected[tuple(region.coords().T)] = values
        data = DataRegion(region, values)
        for axis in range(3):
            assert region.offsets(axis).dtype == np.intp
            stack = data.to_array(fill=0, first_axis=axis)
            assert stack.flags.c_contiguous
            assert np.array_equal(stack, np.ascontiguousarray(np.moveaxis(expected, axis, 0)))
        assert np.array_equal(region.to_mask(), expected != 0)

    @pytest.mark.parametrize("first_axis", [0, 1, 2])
    def test_a_run_leaving_an_embedded_grid_is_a_validation_error(self, first_axis):
        # 40^3 in the 64-side cube: the whole curve runs through voxels outside it
        region = Region(IntervalSet([1], [64 ** 3]), GridSpec((40, 40, 40)), "hilbert")
        with pytest.raises(ValidationError):
            region.offsets(first_axis)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (5, 7, 3)])
    def test_offsets_are_intp_for_every_region(self, shape, rng):
        grid = GridSpec(shape)
        for region in (Region.from_mask(rng.random(shape) < 0.4, grid), Region.full(grid),
                       Region.empty(grid)):
            for axis in range(3):
                assert region.offsets(axis).dtype == np.intp


class TestSerialization:
    @pytest.mark.parametrize("codec", ["naive", "elias"])
    def test_roundtrip(self, data_region, codec):
        payload = data_region.to_bytes(codec)
        back = DataRegion.from_bytes(payload)
        assert back == data_region

    def test_empty_roundtrip(self, volume):
        empty = volume.extract(Region.empty(volume.grid))
        assert DataRegion.from_bytes(empty.to_bytes()) == empty

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            DataRegion.from_bytes(b"XXXX" + bytes(32))

    def test_payload_contains_region_and_values(self, data_region):
        payload = data_region.to_bytes("naive")
        region_bytes = data_region.region.to_bytes("naive")
        assert len(payload) >= len(region_bytes) + data_region.nbytes

    def test_float_values_roundtrip(self, volume):
        region = Region.from_box(volume.grid, (0, 0, 0), (4, 4, 4))
        data = DataRegion(region, np.linspace(0, 1, region.voxel_count).astype(np.float64))
        assert DataRegion.from_bytes(data.to_bytes()) == data
