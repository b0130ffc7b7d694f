"""Unit tests for the VOLUME type."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.curves import GridSpec, HilbertCurve, MortonCurve
from repro.errors import CodecError, CurveMismatchError, GridMismatchError, ValidationError
from repro.regions import Region
from repro.volumes import Volume
from tests.conftest import ball


@pytest.fixture
def volume_array(rng):
    return rng.integers(0, 256, (16, 16, 16)).astype(np.uint8)


@pytest.fixture
def volume(volume_array):
    return Volume.from_array(volume_array)


class TestConstruction:
    def test_from_array(self, volume, volume_array):
        assert volume.voxel_count == 16**3
        assert volume.dtype == np.uint8
        assert np.array_equal(volume.to_array(), volume_array)

    def test_values_are_permutation(self, volume, volume_array):
        assert np.array_equal(np.sort(volume.values), np.sort(volume_array.ravel()))

    @pytest.mark.parametrize("curve,digest", [
        ("hilbert", "1e006f9cd1dc92fd08738682b7c8d00518bf086e9127fdd1b5e27d085e7d4027"),
        ("morton", "8433d68847c0dc9985e1c9d0c975260811f0c2abe5cd640dca4eaa19b1f21fe0"),
        ("rowmajor", "3b1d9e805314963bff352fc2006e4c6ea54dc62ea870253b856c99205b221f7c"),
    ])
    def test_stored_layout_is_pinned(self, curve, digest):
        """The long-field byte order of a VOLUME, taken from the bit-loop
        kernels before the curves were tabulated: it must never drift."""
        array = np.arange(32**3, dtype=np.uint16).reshape(32, 32, 32)
        volume = Volume.from_array(array, curve)
        assert hashlib.sha256(volume.values.tobytes()).hexdigest() == digest
        assert np.array_equal(volume.to_array(), array)

    def test_from_array_rejects_a_curve_of_another_size(self, volume_array):
        with pytest.raises(CurveMismatchError):
            Volume.from_array(volume_array, HilbertCurve(3, 5))
        with pytest.raises(CurveMismatchError):
            Volume.from_array(volume_array, HilbertCurve(2, 4))

    def test_requires_cube_grid(self, rng):
        with pytest.raises(GridMismatchError):
            Volume.from_array(rng.integers(0, 9, (8, 8, 4)).astype(np.uint8))

    def test_requires_power_of_two(self, rng):
        with pytest.raises(GridMismatchError):
            Volume.from_array(rng.integers(0, 9, (12, 12, 12)).astype(np.uint8))

    def test_wrong_value_count(self, grid3):
        with pytest.raises(ValueError):
            Volume(np.zeros(100, dtype=np.uint8), grid3)

    def test_values_readonly(self, volume):
        with pytest.raises(ValueError):
            volume.values[0] = 9

    def test_morton_order(self, volume_array):
        v = Volume.from_array(volume_array, curve="morton")
        assert isinstance(v.curve, MortonCurve)
        assert np.array_equal(v.to_array(), volume_array)


class TestProbes:
    def test_value_at_matches_array(self, volume, volume_array, rng):
        for _ in range(20):
            x, y, z = rng.integers(0, 16, 3)
            assert volume.value_at(int(x), int(y), int(z)) == volume_array[x, y, z]

    def test_values_at_vectorized(self, volume, volume_array, rng):
        coords = rng.integers(0, 16, (50, 3))
        expected = volume_array[coords[:, 0], coords[:, 1], coords[:, 2]]
        assert np.array_equal(volume.values_at(coords), expected)

    def test_values_at_rejects_non_integers(self, volume):
        with pytest.raises(ValidationError):
            volume.values_at(np.array([[0.9, 1.7, 2.2]]))


class TestExtraction:
    def test_extract_matches_mask(self, volume, volume_array):
        region = ball(volume.grid, (8, 8, 8), 5.0)
        data = volume.extract(region)
        assert data.voxel_count == region.voxel_count
        coords = region.coords()
        expected = volume_array[coords[:, 0], coords[:, 1], coords[:, 2]]
        assert np.array_equal(data.values, expected)

    def test_extract_empty_region(self, volume):
        data = volume.extract(Region.empty(volume.grid))
        assert data.voxel_count == 0

    def test_extract_full_region(self, volume):
        data = volume.extract(volume.full_region())
        assert np.array_equal(data.values, volume.values)

    def test_extract_all(self, volume):
        data = volume.extract_all()
        assert data.voxel_count == volume.voxel_count

    def test_extract_wrong_grid(self, volume):
        other = Region.full(GridSpec((8, 8, 8)))
        with pytest.raises(GridMismatchError):
            volume.extract(other)

    def test_extract_wrong_curve(self, volume):
        region = Region.full(volume.grid, "morton")
        with pytest.raises(CurveMismatchError):
            volume.extract(region)


class TestSerialization:
    def test_compact_roundtrip(self, volume):
        assert Volume.from_bytes(volume.to_bytes()) == volume

    def test_aligned_roundtrip(self, volume):
        data = volume.to_bytes(align=4096)
        assert Volume.from_bytes(data) == volume
        header = Volume.parse_header(data)
        assert header.data_offset == 4096

    def test_header_fields(self, volume):
        header = Volume.parse_header(volume.to_bytes())
        assert header.grid.shape == (16, 16, 16)
        assert isinstance(header.curve, HilbertCurve)
        assert header.dtype == np.uint8
        assert header.itemsize == 1

    def test_value_byte_ranges(self, volume):
        header = Volume.parse_header(volume.to_bytes(align=64))
        region = Region.from_box(volume.grid, (0, 0, 0), (2, 2, 2))
        starts, stops = header.value_byte_ranges(region.intervals)
        assert (starts >= 64).all()
        assert int((stops - starts).sum()) == region.voxel_count

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            Volume.from_bytes(b"NOPE" + bytes(100))

    def test_truncated_payload(self, volume):
        with pytest.raises(CodecError):
            Volume.from_bytes(volume.to_bytes()[:-10])

    def test_float_volume_roundtrip(self, rng):
        arr = rng.random((8, 8, 8)).astype(np.float32)
        v = Volume.from_array(arr)
        assert Volume.from_bytes(v.to_bytes()) == v

    def test_unsupported_dtype(self, rng):
        arr = rng.integers(0, 5, (8, 8, 8)).astype(np.int16)
        with pytest.raises(CodecError):
            Volume.from_array(arr).to_bytes()

    def test_invalid_align(self, volume):
        with pytest.raises(ValueError):
            volume.to_bytes(align=0)


class TestStatistics:
    def test_histogram(self, volume):
        counts, edges = volume.histogram(bins=16, value_range=(0, 256))
        assert counts.sum() == volume.voxel_count
        assert len(edges) == 17

    def test_equality(self, volume_array):
        a = Volume.from_array(volume_array)
        b = Volume.from_array(volume_array)
        assert a == b
        c = Volume.from_array(volume_array, curve="morton")
        assert a != c
