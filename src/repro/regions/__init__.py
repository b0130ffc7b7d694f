"""The REGION data type: run lists, octant decompositions, morphology, approximations."""

from __future__ import annotations

from repro.regions.approximate import (
    ApproximationStats,
    approximation_stats,
    coarsen_octants,
    merge_gaps,
)
from repro.regions.intervals import IntervalSet, concat_ranges
from repro.regions.morphology import boundary_shell, dilate, erode, margin
from repro.regions.octants import (
    count_octants,
    decompose_oblong_octants,
    decompose_octants,
    octants_to_intervals,
)
from repro.regions.region import Region

__all__ = [
    "IntervalSet",
    "concat_ranges",
    "Region",
    "decompose_octants",
    "decompose_oblong_octants",
    "octants_to_intervals",
    "count_octants",
    "dilate",
    "erode",
    "boundary_shell",
    "margin",
    "merge_gaps",
    "coarsen_octants",
    "approximation_stats",
    "ApproximationStats",
]
