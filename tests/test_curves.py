"""Unit tests for the space-filling curves."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.curves import (
    CURVE_CLASSES,
    GridSpec,
    HilbertCurve,
    MortonCurve,
    RowMajorCurve,
    base,
    curve_for_grid,
)
from repro.errors import GridMismatchError, ValidationError

ALL_CURVES = [HilbertCurve, MortonCurve, RowMajorCurve]


class TestGridSpec:
    def test_basic_properties(self):
        grid = GridSpec((128, 128, 128))
        assert grid.ndim == 3
        assert grid.size == 128**3
        assert grid.bits == 7
        assert grid.is_cube

    def test_non_cube_grid(self):
        grid = GridSpec((512, 512, 44))
        assert grid.bits == 9
        assert not grid.is_cube
        assert grid.size == 512 * 512 * 44

    def test_bits_covers_non_power_of_two(self):
        assert GridSpec((100,)).bits == 7
        assert GridSpec((129, 4)).bits == 8

    def test_single_voxel_grid_has_a_curve(self):
        # bits used to be 0 here, and every curve constructor refuses that
        for shape in [(1,), (1, 1, 1)]:
            grid = GridSpec(shape)
            assert grid.bits == 1
            assert not grid.is_cube
            assert curve_for_grid(grid).bits == 1

    def test_default_origin_and_spacing(self):
        grid = GridSpec((4, 4))
        assert grid.origin == (0.0, 0.0)
        assert grid.spacing == (1.0, 1.0)

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            GridSpec(())

    def test_rejects_nonpositive_axis(self):
        with pytest.raises(ValueError):
            GridSpec((8, 0, 8))

    def test_rejects_mismatched_origin(self):
        with pytest.raises(ValueError):
            GridSpec((8, 8), origin=(0.0,))

    def test_contains(self):
        grid = GridSpec((4, 4))
        coords = np.array([[0, 0], [3, 3], [4, 0], [-1, 2]])
        assert grid.contains(coords).tolist() == [True, True, False, False]

    def test_require_same(self):
        GridSpec((4, 4)).require_same(GridSpec((4, 4)))
        with pytest.raises(GridMismatchError):
            GridSpec((4, 4)).require_same(GridSpec((8, 8)))

    def test_world_voxel_roundtrip(self):
        grid = GridSpec((8, 8, 8), origin=(1.0, 2.0, 3.0), spacing=(0.5, 1.0, 2.0))
        pts = np.array([[2.0, 4.0, 7.0]])
        voxels = grid.world_to_voxel(pts)
        assert np.allclose(grid.voxel_to_world(voxels), pts)


class TestCurveConstruction:
    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_dimensions(self, cls):
        curve = cls(3, 4)
        assert curve.side == 16
        assert curve.length == 16**3

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_rejects_bad_args(self, cls):
        with pytest.raises(ValueError):
            cls(0, 4)
        with pytest.raises(ValueError):
            cls(3, 0)
        with pytest.raises(ValueError):
            cls(3, 32)  # would overflow int64

    def test_equality_and_hash(self):
        assert HilbertCurve(3, 5) == HilbertCurve(3, 5)
        assert HilbertCurve(3, 5) != HilbertCurve(3, 6)
        assert HilbertCurve(3, 5) != MortonCurve(3, 5)
        assert hash(HilbertCurve(2, 2)) == hash(HilbertCurve(2, 2))

    def test_curve_for_grid(self):
        grid = GridSpec((128, 128, 128))
        curve = curve_for_grid(grid)
        assert isinstance(curve, HilbertCurve)
        assert curve.bits == 7
        assert isinstance(curve_for_grid(grid, "morton"), MortonCurve)

    def test_curve_for_grid_unknown_name(self):
        with pytest.raises(ValueError, match="unknown curve"):
            curve_for_grid(GridSpec((4, 4)), "peano-gosper")

    def test_registry_names(self):
        assert set(CURVE_CLASSES) == {"hilbert", "morton", "rowmajor"}


class TestBijection:
    @pytest.mark.parametrize("cls", ALL_CURVES)
    @pytest.mark.parametrize("ndim,bits", [(1, 6), (2, 4), (3, 3), (4, 2)])
    def test_full_roundtrip(self, cls, ndim, bits):
        curve = cls(ndim, bits)
        idx = np.arange(curve.length, dtype=np.int64)
        coords = curve.coords(idx)
        assert coords.shape == (curve.length, ndim)
        assert np.array_equal(curve.index(coords), idx)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_coords_cover_cube_exactly_once(self, cls):
        curve = cls(3, 3)
        coords = curve.coords(np.arange(curve.length))
        assert len(np.unique(coords, axis=0)) == curve.length
        assert coords.min() == 0
        assert coords.max() == curve.side - 1

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_empty_arrays(self, cls):
        curve = cls(3, 3)
        assert curve.index(np.empty((0, 3), dtype=np.int64)).shape == (0,)
        assert curve.coords(np.empty(0, dtype=np.int64)).shape == (0, 3)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_scalar_helpers(self, cls):
        curve = cls(2, 3)
        idx = curve.index_point(3, 5)
        assert curve.coords_point(idx) == (3, 5)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_out_of_range_rejected(self, cls):
        curve = cls(2, 2)
        with pytest.raises(ValueError):
            curve.index(np.array([[4, 0]]))
        with pytest.raises(ValueError):
            curve.index(np.array([[-1, 0]]))
        with pytest.raises(ValueError):
            curve.coords(np.array([curve.length]))

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_bad_shapes_rejected(self, cls):
        curve = cls(3, 2)
        with pytest.raises(ValueError):
            curve.index(np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            curve.coords(np.zeros((2, 2), dtype=np.int64))


#: every tabulated shape the suite checks cell by cell
TABLE_SHAPES = [(n, b) for n in (1, 2, 3) for b in range(1, 6)] + [(3, 6)]


class TestTables:
    """``index``/``coords`` answer from per-curve tables; the kernel is the reference."""

    @pytest.mark.parametrize("cls", ALL_CURVES)
    @pytest.mark.parametrize("ndim,bits", TABLE_SHAPES)
    def test_table_equals_kernel_over_whole_cube(self, cls, ndim, bits):
        curve = cls(ndim, bits)
        positions = np.arange(curve.length, dtype=np.int64)
        coords = curve._coords_kernel(positions)
        assert np.array_equal(curve.coords(positions), coords)
        assert np.array_equal(curve.index(coords), curve._index_kernel(coords))
        # the two tables are mutual inverses
        tables = curve.tables()
        assert np.array_equal(tables.coords_of, coords)
        offsets = np.ravel_multi_index(tuple(coords.T), (curve.side,) * ndim)
        assert np.array_equal(tables.position_of[offsets], positions)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_tables_are_narrow_shared_and_read_only(self, cls):
        tables = cls(3, 6).tables()
        assert tables is cls(3, 6).tables()
        assert tables.coords_of.dtype == np.uint8
        assert tables.position_of.dtype == np.uint32
        assert tables.coords_of.nbytes + tables.position_of.nbytes == 7 * 64**3
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_results_are_fresh_int64_arrays(self, cls):
        curve = cls(3, 4)
        positions = np.array([5, 77, 4000])
        for call, arg in ((curve.coords, positions), (curve.index, curve.coords(positions))):
            first = call(arg)
            assert first.dtype == np.int64
            assert first.flags.c_contiguous and first.flags.writeable
            assert first.base is None
            expected = first.copy()
            first[...] = -1  # must not write through to a table
            assert np.array_equal(call(arg), expected)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_curve_past_the_cap_runs_the_kernel(self, cls, rng):
        curve = cls(3, 8)
        assert curve.length > base.TABLE_MAX_LENGTH
        coords = rng.integers(0, curve.side, (1000, 3))
        positions = curve.index(coords)
        assert positions.dtype == np.int64
        assert np.array_equal(positions, curve._index_kernel(coords))
        assert np.array_equal(curve.coords(positions), coords)
        assert curve.index(np.empty((0, 3))).shape == (0,)
        assert curve.coords(np.empty(0)).shape == (0, 3)
        assert (cls, 3, 8) not in base._TABLES

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_scalar_agrees_with_batch(self, cls, rng):
        curve = cls(3, 5)
        coords = rng.integers(0, curve.side, (20, 3))
        positions = curve.index(coords)
        for point, position in zip(coords.tolist(), positions.tolist()):
            assert curve.index_point(*point) == position
            assert curve.coords_point(position) == tuple(point)

    def test_threads_racing_the_first_use_agree(self):
        curve = HilbertCurve(3, 5)
        key = (HilbertCurve, 3, 5)
        positions = np.arange(curve.length)
        reference = curve._coords_kernel(positions)
        base._TABLES.pop(key, None)
        barrier = threading.Barrier(6)
        answers, seen = [], []

        def first_use():
            barrier.wait(timeout=30)
            answers.append(curve.coords(positions))
            seen.append(curve.tables())

        threads = [threading.Thread(target=first_use) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 6
        assert all(np.array_equal(answer, reference) for answer in answers)
        # whoever built a pair, everyone ended up holding the published one
        assert all(tables is base._TABLES[key] for tables in seen)


class TestStackTables:
    """``grid_offsets(..., first_axis=a)`` on the curve's cube reads one
    lazily built table per ``(class, ndim, bits, a)``."""

    @pytest.mark.parametrize("cls", ALL_CURVES)
    @pytest.mark.parametrize("ndim,bits", [(2, 3), (3, 4), (4, 2)])
    def test_stack_table_is_the_moved_cube(self, cls, ndim, bits):
        curve = cls(ndim, bits)
        positions = np.arange(curve.length, dtype=np.int64)
        cube = (curve.side,) * ndim
        coords = curve._coords_kernel(positions)
        offset_of = curve.tables().offset_of
        assert curve._stack_offsets(0) is offset_of
        for axis in range(ndim):
            moved = [coords[:, axis]] + [coords[:, a] for a in range(ndim) if a != axis]
            expected = np.ravel_multi_index(tuple(moved), cube)
            table = curve._stack_offsets(axis)
            assert table.dtype == offset_of.dtype and not table.flags.writeable
            assert table is curve._stack_offsets(axis)
            assert np.array_equal(table, expected)
            assert np.array_equal(curve.grid_offsets(positions[::3], cube, axis), expected[::3])

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_curve_past_the_cap_builds_no_stack_table(self, cls, rng):
        curve = cls(3, 8)
        coords = rng.integers(0, curve.side, (500, 3))
        positions = curve._index_kernel(coords)
        offsets = curve.grid_offsets(positions, (curve.side,) * 3, 2)
        moved = (coords[:, 2], coords[:, 0], coords[:, 1])
        assert np.array_equal(offsets, np.ravel_multi_index(moved, (curve.side,) * 3))
        assert not any(key[:3] == (cls, 3, 8) for key in base._STACKS)

    def test_threads_racing_the_first_use_share_one_table(self):
        curve = MortonCurve(3, 5)
        key = (MortonCurve, 3, 5, 2)
        positions = np.arange(curve.length)
        cube = (curve.side,) * 3
        coords = curve._coords_kernel(positions)
        reference = np.ravel_multi_index((coords[:, 2], coords[:, 0], coords[:, 1]), cube)
        base._STACKS.pop(key, None)
        barrier = threading.Barrier(6)
        answers, seen = [], []

        def first_use():
            barrier.wait(timeout=30)
            answers.append(curve.grid_offsets(positions, cube, 2))
            seen.append(curve._stack_offsets(2))

        threads = [threading.Thread(target=first_use) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 6
        assert all(np.array_equal(answer, reference) for answer in answers)
        # whoever built a table, everyone ended up holding the published one
        assert all(table is base._STACKS[key] for table in seen)
        assert not base._STACKS[key].flags.writeable


class TestIntegerInput:
    """Non-integer input is refused, never truncated into a valid answer."""

    @pytest.mark.parametrize("cls", ALL_CURVES)
    @pytest.mark.parametrize("bad", [
        [[0.9, 1.7, 2.2]], [[0.0, 1.0, 2.0]], [[np.nan, 0, 0]],
        [["0", "1", "2"]], [[True, False, True]], [[0, 1, None]],
    ])
    def test_index_rejects_non_integers(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(3, 3).index(bad)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    @pytest.mark.parametrize("bad", [[1.5, 2.9], [np.nan], ["3"], [[1, 2], [3]]])
    def test_coords_rejects_non_integers(self, cls, bad):
        with pytest.raises(ValidationError):
            cls(3, 3).coords(bad)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_scalar_helpers_reject_non_integers(self, cls):
        with pytest.raises(ValidationError):
            cls(3, 3).index_point(0.9, 1.7, 2.2)
        with pytest.raises(ValidationError):
            cls(3, 3).coords_point(1.5)

    @pytest.mark.parametrize("cls", ALL_CURVES)
    def test_integer_kinds_and_empty_arrays_stay_legal(self, cls):
        curve = cls(3, 3)
        expected = curve.index(np.array([[0, 1, 2]]))
        assert np.array_equal(curve.index([[0, 1, 2]]), expected)
        assert np.array_equal(curve.index(np.array([[0, 1, 2]], dtype=np.uint8)), expected)
        assert np.array_equal(curve.coords(expected.astype(np.uint16)), [[0, 1, 2]])
        assert curve.index(np.empty((0, 3))).shape == (0,)  # float64, but empty
        assert curve.coords([]).shape == (0, 3)


class TestHilbertProperties:
    @pytest.mark.parametrize("ndim,bits", [(2, 5), (3, 4), (3, 6)])
    def test_adjacency(self, ndim, bits):
        """Consecutive curve positions are neighboring voxels — the defining
        property the clustering results rest on."""
        curve = HilbertCurve(ndim, bits)
        coords = curve.coords(np.arange(curve.length))
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_matches_paper_figure3_convention(self):
        """The 4x4 ordering of Figure 3: start (0,0), then (1,0), (1,1), (0,1)..."""
        curve = HilbertCurve(2, 2)
        seq = [curve.coords_point(d) for d in range(16)]
        assert seq == [
            (0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2),
            (2, 2), (2, 3), (3, 3), (3, 2), (3, 1), (2, 1), (2, 0), (3, 0),
        ]

    def test_nested_prefix_property(self):
        """Each 2^n-aligned block of positions stays inside one subcube."""
        curve = HilbertCurve(3, 3)
        coords = curve.coords(np.arange(curve.length))
        block = 8  # 2^ndim positions = one level-1 subcube
        for b in range(0, curve.length, block):
            chunk = coords[b:b + block]
            assert (chunk.max(axis=0) - chunk.min(axis=0)).max() == 1


class TestMortonProperties:
    def test_bit_interleaving_2d(self):
        """§4: z-id = x1 y1 x0 y0 with axis 0 most significant."""
        curve = MortonCurve(2, 2)
        assert curve.index_point(0, 1) == 0b0001
        assert curve.index_point(1, 0) == 0b0010
        assert curve.index_point(2, 0) == 0b1000
        assert curve.index_point(3, 3) == 0b1111

    def test_bit_interleaving_3d(self):
        curve = MortonCurve(3, 2)
        # coordinate bits (x1 y1 z1 x0 y0 z0)
        assert curve.index_point(0, 0, 1) == 0b000001
        assert curve.index_point(0, 1, 0) == 0b000010
        assert curve.index_point(1, 0, 0) == 0b000100
        assert curve.index_point(2, 0, 0) == 0b100000

    def test_quadrant_prefixes(self):
        """All voxels of a quadrant share their z-id prefix."""
        curve = MortonCurve(2, 3)
        coords = curve.coords(np.arange(curve.length))
        idx = np.arange(curve.length)
        quadrant = (coords >= 4).astype(int)
        prefix = idx >> 4  # top 2 bits
        expected = quadrant[:, 0] * 2 + quadrant[:, 1]
        assert np.array_equal(prefix, expected)


class TestRowMajorProperties:
    def test_matches_numpy_ravel(self):
        curve = RowMajorCurve(3, 2)
        arr = np.arange(64).reshape(4, 4, 4)
        coords = np.argwhere(arr >= 0)
        assert np.array_equal(curve.index(coords), arr.ravel())

    def test_last_axis_fastest(self):
        curve = RowMajorCurve(2, 2)
        assert curve.index_point(0, 1) == 1
        assert curve.index_point(1, 0) == 4
