"""The VOLUME data type, DATA_REGION results, intensity banding."""

from __future__ import annotations

from repro.volumes.banding import BAND_WIDTH, IntensityBand, band_region, uniform_bands
from repro.volumes.data_region import DataRegion
from repro.volumes.volume import Volume, VolumeHeader

__all__ = [
    "Volume",
    "VolumeHeader",
    "DataRegion",
    "BAND_WIDTH",
    "IntensityBand",
    "band_region",
    "uniform_bands",
]
