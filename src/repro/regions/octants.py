"""Octant and oblong-octant decompositions of runs (§4 of the paper).

An *oblong octant* (z-element) of rank ``r`` is a block of ``2^r``
consecutive curve positions sharing the same id prefix, i.e. an aligned
range ``[k * 2^r, (k+1) * 2^r)``.  A regular *octant* additionally requires
``r`` to be a multiple of the dimensionality, so it corresponds to a cube
produced by the recursive octree decomposition of space.

Because a maximal aligned block inside a region always lies within one
maximal run, the canonical octree decomposition is per run: a block is in
it iff it lies whole inside its run and its parent (one allowed rank up)
does not.  Every rank's whole-block range is computed for all runs at
once, which yields Tables 1 and 2 of the paper.  Each element is reported
as a ``<id, rank>`` pair using the smallest curve id of the block,
matching the paper's z-value notation.
"""

from __future__ import annotations

from repro.errors import ValidationError

import numpy as np

from repro.regions.intervals import IntervalSet, concat_ranges

__all__ = [
    "decompose_octants",
    "decompose_oblong_octants",
    "octants_to_intervals",
    "count_octants",
]


def _decompose(intervals: IntervalSet, rank_multiple: int, max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Every run's maximal aligned blocks, from one pass over all levels.

    Level ``j`` holds the blocks of rank ``r = j * rank_multiple`` (the top
    capped by ``max_rank`` and by the longest run); a run ``[a, b)`` holds
    whole the level's blocks ``[ceil(a / 2^r), floor(b / 2^r))``.  A block is
    emitted iff its parent one level up is not whole inside the run: per
    run, a left part below the parents' range, a right part above it, and
    every whole block of the run's top level.  Laid out run by run as the
    left parts by rising rank, then the right parts by falling rank (the
    top level is a left part whose right part is empty), the segments are
    already in curve order, so one ``concat_ranges`` and one ``repeat``
    give ``(ids, ranks)`` — no loop over blocks and no sort.
    """
    starts, stops = intervals.starts, intervals.stops
    if not starts.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    top = min(max_rank, int((stops - starts).max()).bit_length() - 1)
    shifts = np.arange(0, top - top % rank_multiple + 1, rank_multiple)[:, None]
    lo = -(-starts >> shifts)  # (levels, runs): ceil(a / 2^r)
    hi = np.maximum(stops >> shifts, lo)  # floor(b / 2^r), never below lo
    parent_whole = hi[1:] > lo[1:]
    left_stop = np.vstack((np.where(parent_whole, lo[1:] << rank_multiple, hi[:-1]), hi[-1:]))
    right_start = np.vstack((np.where(parent_whole, hi[1:] << rank_multiple, hi[:-1]), hi[-1:]))
    # (runs, 2 * levels): left parts by rising rank, right parts by falling
    seg_starts = np.hstack((lo.T, right_start[::-1].T)).ravel()
    seg_stops = np.hstack((left_stop.T, hi[::-1].T)).ravel()
    ranks = np.repeat(np.tile(np.concatenate((shifts[:, 0], shifts[::-1, 0])), starts.size),
                      seg_stops - seg_starts)
    return concat_ranges(seg_starts, seg_stops) << ranks, ranks


def decompose_octants(intervals: IntervalSet, ndim: int, max_rank: int = 62) -> tuple[np.ndarray, np.ndarray]:
    """Canonical regular-octant decomposition: ``(ids, ranks)``, rank % ndim == 0."""
    if ndim < 1:
        raise ValidationError("ndim must be >= 1")
    return _decompose(intervals, ndim, max_rank)


def decompose_oblong_octants(intervals: IntervalSet, max_rank: int = 62) -> tuple[np.ndarray, np.ndarray]:
    """Canonical oblong-octant (z-element) decomposition: ``(ids, ranks)``."""
    return _decompose(intervals, 1, max_rank)


def octants_to_intervals(ids: np.ndarray, ranks: np.ndarray) -> IntervalSet:
    """Rebuild the interval set covered by ``<id, rank>`` blocks."""
    ids = np.asarray(ids, dtype=np.int64)
    ranks = np.asarray(ranks, dtype=np.int64)
    if ids.ndim != 1 or ids.shape != ranks.shape:
        raise ValidationError("ids and ranks must be 1-D arrays of the same shape")
    sizes = np.int64(1) << ranks
    if np.any(ids & (sizes - 1)):
        raise ValidationError("octant ids must be aligned to their rank")
    if ids.size == 0:
        return IntervalSet.empty()
    # Blocks are encoded in id order, so a run breaks only where a block does
    # not start at the previous one's stop; blocks out of order fail the
    # constructor's canonical check and are sorted there.
    stops = ids + sizes
    breaks = np.flatnonzero(ids[1:] != stops[:-1])
    return IntervalSet(ids[np.concatenate(([0], breaks + 1))],
                       stops[np.concatenate((breaks, [ids.size - 1]))])


def count_octants(intervals: IntervalSet, ndim: int) -> tuple[int, int]:
    """Convenience: ``(octant_count, oblong_octant_count)`` for a run list."""
    octant_ids, _ = decompose_octants(intervals, ndim)
    oblong_ids, _ = decompose_oblong_octants(intervals)
    return int(octant_ids.size), int(oblong_ids.size)
