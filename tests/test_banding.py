"""Unit tests for intensity banding (the Intensity Band index, §3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.volumes import BAND_WIDTH, Volume, band_region, uniform_bands


@pytest.fixture
def volume(rng):
    return Volume.from_array(rng.integers(0, 256, (16, 16, 16)).astype(np.uint8))


class TestBandRegion:
    def test_matches_threshold_mask(self, volume):
        region = band_region(volume, 100, 150)
        dense = volume.to_array()
        expected = (dense >= 100) & (dense <= 150)
        assert np.array_equal(region.to_mask(), expected)

    def test_full_range_is_everything(self, volume):
        assert band_region(volume, 0, 255).voxel_count == volume.voxel_count

    def test_empty_band(self, volume):
        capped = Volume.from_array(np.minimum(volume.to_array(), 200))
        assert band_region(capped, 201, 255).voxel_count == 0

    def test_invalid_interval(self, volume):
        with pytest.raises(ValueError):
            band_region(volume, 10, 5)

    def test_band_runs_on_volume_curve(self, volume):
        region = band_region(volume, 0, 127)
        assert region.curve == volume.curve


class TestUniformBands:
    def test_paper_prototype_bands(self, volume):
        """Width 32 over 0-255 gives the paper's 8 bands."""
        bands = uniform_bands(volume)
        assert BAND_WIDTH == 32 and len(bands) == 8
        assert (bands[0].low, bands[0].high) == (0, 31)
        assert (bands[3].low, bands[3].high) == (96, 127)
        assert (bands[-1].low, bands[-1].high) == (224, 255)

    def test_bands_partition_volume(self, volume):
        bands = uniform_bands(volume)
        assert sum(b.region.voxel_count for b in bands) == volume.voxel_count
        for a, b in zip(bands, bands[1:]):
            assert a.region.isdisjoint(b.region)


class TestUnionOfBands:
    def test_union_matches_wide_band(self, volume):
        bands = uniform_bands(volume)
        union = bands[4].region.union(*[b.region for b in bands[5:]])
        assert union == band_region(volume, 128, 255)
