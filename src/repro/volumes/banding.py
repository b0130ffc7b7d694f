"""Intensity banding (§3.3, the *Intensity Band* entity).

An intensity band is the REGION of voxels of a VOLUME whose intensities
fall in a particular interval.  QBISM precomputes bands with fixed width
and uniform spacing (32 units over 0-255 in the prototype) at load time and
stores them as a redundant index: an attribute query ("show the high
intensity voxels") becomes a cheap REGION fetch instead of a full-volume
scan.

Because VOLUMEs hold values in curve order, a band's run list falls out of
a thresholded boolean array directly — no sorting is involved.
"""

from __future__ import annotations

from repro.errors import ValidationError

from dataclasses import dataclass

from repro.regions import Region
from repro.regions.intervals import IntervalSet
from repro.volumes.volume import Volume

__all__ = ["BAND_WIDTH", "IntensityBand", "band_region", "uniform_bands"]

#: The width of every stored band: the prototype's 32 intensity units, so
#: 0-255 splits into the 8 bands 0-31, 32-63, ..., 224-255.  The loader
#: stores these bands and the medical server names them from this alone.
BAND_WIDTH = 32


@dataclass(frozen=True)
class IntensityBand:
    """One precomputed band: the closed intensity interval and its REGION."""

    low: int
    high: int
    region: Region


def band_region(volume: Volume, low: float, high: float) -> Region:
    """The REGION of voxels with intensity in the closed interval ``[low, high]``."""
    if low > high:
        raise ValidationError(f"empty intensity interval [{low}, {high}]")
    mask = (volume.values >= low) & (volume.values <= high)
    return Region(IntervalSet.from_mask(mask), volume.grid, volume.curve)


def uniform_bands(volume: Volume) -> list[IntensityBand]:
    """The paper's load-time banding: the :data:`BAND_WIDTH`-wide bands
    over 0-255, in order."""
    return [IntensityBand(start, start + BAND_WIDTH - 1,
                          band_region(volume, start, start + BAND_WIDTH - 1))
            for start in range(0, 256, BAND_WIDTH)]
