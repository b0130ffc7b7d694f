"""Octant and oblong-octant decompositions of runs (§4 of the paper).

An *oblong octant* (z-element) of rank ``r`` is a block of ``2^r``
consecutive curve positions sharing the same id prefix, i.e. an aligned
range ``[k * 2^r, (k+1) * 2^r)``.  A regular *octant* additionally requires
``r`` to be a multiple of the dimensionality, so it corresponds to a cube
produced by the recursive octree decomposition of space.

Because a maximal aligned block inside a region always lies within one
maximal run, decomposing each run greedily from the left reproduces the
canonical octree decomposition exactly — this is how Tables 1 and 2 of the
paper are generated.  Each element is reported as a ``<id, rank>`` pair
using the smallest curve id of the block, matching the paper's z-value
notation.
"""

from __future__ import annotations

from repro.errors import ValidationError

import numpy as np

from repro.regions.intervals import IntervalSet

__all__ = [
    "decompose_octants",
    "decompose_oblong_octants",
    "octants_to_intervals",
    "count_octants",
]


def _decompose(intervals: IntervalSet, rank_multiple: int, max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy aligned-block decomposition of every run, fully vectorized.

    Returns ``(ids, ranks)`` in curve order.  Each loop iteration peels one
    block off the head of every still-active run, so the iteration count is
    bounded by the largest number of blocks in a single run (<= 2 * bits),
    not by the number of runs.
    """
    heads = intervals.starts.astype(np.int64).copy()
    stops = intervals.stops.astype(np.int64)
    ids_parts: list[np.ndarray] = []
    ranks_parts: list[np.ndarray] = []
    active = np.flatnonzero(heads < stops)
    while active.size:
        h = heads[active]
        remaining = stops[active] - h
        # Largest rank allowed by alignment: trailing zero bits (at 0, the cap).
        alignment = _trailing_zeros(h, max_rank)
        # Largest rank allowed by the remaining run length.
        fit = _floor_log2(remaining)
        rank = np.minimum(alignment, fit)
        if rank_multiple > 1:
            rank -= rank % rank_multiple
        ids_parts.append(h)
        ranks_parts.append(rank)
        heads[active] = h + (np.int64(1) << rank)
        active = active[heads[active] < stops[active]]
    if not ids_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ids = np.concatenate(ids_parts)
    ranks = np.concatenate(ranks_parts)
    # Blocks were emitted round-robin across runs; curve order is by id.
    order = np.argsort(ids, kind="stable")
    return ids[order], ranks[order]


def _trailing_zeros(values: np.ndarray, cap: int) -> np.ndarray:
    """Trailing zero bits of each non-negative value, capped at ``cap``."""
    # ``(v & -v) - 1`` masks exactly the trailing zeros.  Counted as uint64:
    # np.bitwise_count counts |x| for signed input, and zero's mask is -1.
    below = ((values & -values) - 1).astype(np.uint64)
    return np.minimum(np.bitwise_count(below), cap).astype(np.int64)


def _floor_log2(values: np.ndarray) -> np.ndarray:
    """floor(log2(v)) for positive int64 values, exact for all of them."""
    # Smear the top bit over every bit below it; the bit count is the length.
    v = values.astype(np.uint64)
    for shift in (1, 2, 4, 8, 16, 32):
        v |= v >> np.uint64(shift)
    return np.bitwise_count(v).astype(np.int64) - 1


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
