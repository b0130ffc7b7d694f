"""Canonical run-list algebra.

A REGION in QBISM is stored as the list of its *runs*: maximal sets of
voxels with consecutive curve positions (§4 of the paper).  This module
implements the 1-D side of that design: :class:`IntervalSet` is a set of
non-negative integers kept as sorted, maximal, half-open runs
``[start, stop)``, with vectorized set algebra.

Intersection and difference are a *merge* of two sorted run lists (the
merge-based "spatial join" of Orenstein & Manola that the paper cites):
binary searches pair the overlapping runs, and nothing is sorted; a k-way
intersection folds it.  Union and "at least m of k sets" are one *event
sweep*: run boundaries become +1/-1 events, one sort orders them, a
cumulative sum gives the coverage depth over each elementary segment, and
thresholding the depth answers.  ARCHITECTURE.md ("Merge, or one sort per
sweep") has the measurements.
"""

from __future__ import annotations

from repro.errors import ValidationError

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["IntervalSet", "concat_ranges"]


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Expand half-open ranges into the concatenated int64 array of their members.

    ``concat_ranges([1, 5], [3, 6])`` returns ``[1, 2, 5]``.  A member is its
    output position plus its range's start less where the range begins in
    the output: one repeat and one in-place add, no loop over the ranges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    if np.any(lengths < 0):
        raise ValidationError("range stops must be >= starts")
    if starts.size == 1:
        return np.arange(starts[0], stops[0], dtype=np.int64)
    ends = np.cumsum(lengths)
    out = np.repeat(starts - (ends - lengths), lengths)
    out += np.arange(out.size)  # in place: no third output-sized array
    return out


def _canonicalize(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort, drop empties, and merge overlapping or adjacent runs."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if starts.shape != stops.shape or starts.ndim != 1:
        raise ValidationError("starts and stops must be 1-D arrays of equal length")
    if np.any(stops < starts):
        raise ValidationError("run stops must be >= starts")
    keep = stops > starts
    starts, stops = starts[keep], stops[keep]
    if starts.size == 0:
        return starts, stops
    order = np.argsort(starts, kind="stable")
    starts, stops = starts[order], stops[order]
    # Running maximum of stops detects chains of overlapping/adjacent runs.
    running_stop = np.maximum.accumulate(stops)
    # A new merged run begins where the start exceeds the previous chain stop.
    new_run = np.empty(starts.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = starts[1:] > running_stop[:-1]
    merged_starts = starts[new_run]
    # The stop of each merged run is the maximum over its chain.
    merged_stops = np.maximum.reduceat(stops, np.flatnonzero(new_run))
    return merged_starts, merged_stops


class IntervalSet:
    """An immutable set of non-negative integers stored as maximal sorted runs.

    Construct with :meth:`from_indices`, :meth:`from_runs`, or
    :meth:`from_mask`; combine with :meth:`intersection`, :meth:`union`,
    :meth:`difference`, or the n-way :meth:`sweep`.
    """

    __slots__ = ("_starts", "_stops")

    def __init__(self, starts: np.ndarray, stops: np.ndarray, *, _trusted: bool = False):
        if not _trusted:
            # Private copies: the set must not alias memory the caller can write.
            starts = np.array(starts, dtype=np.int64)
            stops = np.array(stops, dtype=np.int64)
            # Run lists are written canonical, so verify (two comparisons)
            # and adopt; only input that fails pays for the sort-and-merge.
            if not (starts.ndim == 1 and starts.shape == stops.shape
                    and (stops > starts).all() and (starts[1:] > stops[:-1]).all()):
                starts, stops = _canonicalize(starts, stops)
        self._starts = starts
        self._stops = stops
        if self._starts.size and self._starts[0] < 0:
            raise ValidationError("interval sets hold non-negative integers only")
        self._starts.setflags(write=False)
        self._stops.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), _trusted=True)

    @classmethod
    def full(cls, length: int) -> "IntervalSet":
        """The set ``{0, 1, ..., length - 1}``."""
        if length <= 0:
            return cls.empty()
        return cls(np.asarray([0], dtype=np.int64), np.asarray([length], dtype=np.int64), _trusted=True)

    @classmethod
    def from_indices(cls, indices: np.ndarray) -> "IntervalSet":
        """Build from an arbitrary (unsorted, possibly duplicated) index array."""
        # sorted, not np.unique'd (hash-based and ~30x slower on a probe
        # box): a repeated index differs from its neighbour by 0.  In the dtype
        # they arrive in: a curve table's uint16 sort in a third of int64's time.
        indices = np.sort(np.asarray(indices)).astype(np.int64)
        if indices.size == 0:
            return cls.empty()
        # A run breaks wherever consecutive sorted indices differ by > 1.
        breaks = np.flatnonzero(np.diff(indices) > 1)
        starts = indices[np.concatenate(([0], breaks + 1))]
        stops = indices[np.concatenate((breaks, [indices.size - 1]))] + 1
        return cls(starts, stops, _trusted=True)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> "IntervalSet":
        """Build from inclusive ``(start, end)`` pairs, the paper's run notation."""
        pairs = list(runs)
        if not pairs:
            return cls.empty()
        starts = np.asarray([p[0] for p in pairs], dtype=np.int64)
        stops = np.asarray([p[1] for p in pairs], dtype=np.int64) + 1
        return cls(starts, stops)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IntervalSet":
        """Build from a 1-D boolean mask: the set of True positions.

        This is the fast path for intensity banding: a thresholded volume in
        curve order becomes its band REGION without any sorting.
        """
        mask = np.asarray(mask, dtype=bool).ravel()
        # Between False sentinels the mask changes value at every run
        # boundary: a start, then a stop, alternately.
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        return cls(edges[0::2].copy(), edges[1::2].copy(), _trusted=True)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def starts(self) -> np.ndarray:
        """Run start positions (inclusive), sorted ascending."""
        return self._starts

    @property
    def stops(self) -> np.ndarray:
        """Run stop positions (exclusive), sorted ascending."""
        return self._stops

    @property
    def run_count(self) -> int:
        """Number of maximal runs (the paper's "#runs")."""
        return int(self._starts.size)

    @property
    def count(self) -> int:
        """Number of integers in the set (the paper's voxel count)."""
        return int((self._stops - self._starts).sum())

    @property
    def run_lengths(self) -> np.ndarray:
        """Length of each run."""
        return self._stops - self._starts

    @property
    def gap_lengths(self) -> np.ndarray:
        """Length of each interior gap between consecutive runs.

        Together with :attr:`run_lengths` these are the paper's "deltas",
        whose length distribution drives the compression analysis (EQ 1).
        """
        if self.run_count < 2:
            return np.empty(0, dtype=np.int64)
        return self._starts[1:] - self._stops[:-1]

    @property
    def min_index(self) -> int:
        """The smallest covered index (raises on an empty set)."""
        if self.run_count == 0:
            raise ValidationError("empty interval set has no minimum")
        return int(self._starts[0])

    @property
    def max_index(self) -> int:
        """The largest covered index (raises on an empty set)."""
        if self.run_count == 0:
            raise ValidationError("empty interval set has no maximum")
        return int(self._stops[-1] - 1)

    def runs_inclusive(self) -> Iterator[tuple[int, int]]:
        """Iterate inclusive ``(start, end)`` pairs, the paper's notation."""
        for start, stop in zip(self._starts.tolist(), self._stops.tolist()):
            yield start, stop - 1

    def indices(self) -> np.ndarray:
        """Materialize the full sorted array of member integers."""
        return concat_ranges(self._starts, self._stops)

    def to_mask(self, length: int) -> np.ndarray:
        """Render as a boolean mask of the given length."""
        if self.run_count and self.max_index >= length:
            raise ValidationError(f"set extends past mask length {length}")
        # Difference trick: +1 at starts, -1 at stops, cumulative sum > 0.
        # Starts and stops are each strictly increasing, so no index repeats.
        delta = np.zeros(length + 1, dtype=np.int8)
        delta[self._starts] = 1
        delta[self._stops] = -1
        return np.cumsum(delta[:-1], dtype=np.int8) > 0

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def contains_indices(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean array."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.run_count == 0:
            return np.zeros(indices.shape, dtype=bool)
        # Position of the run that could contain each index; -1 (before the
        # first run) reads the last stop, and is refused by the first test.
        slot = np.searchsorted(self._starts, indices, side="right") - 1
        return (slot >= 0) & (indices < self._stops[slot])

    def __contains__(self, index: int) -> bool:
        return bool(self.contains_indices(np.asarray([index]))[0])

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    @staticmethod
    def sweep(sets: Sequence["IntervalSet"], min_depth: int) -> "IntervalSet":
        """Positions covered by >= ``min_depth`` of ``sets``.

        ``min_depth = len(sets)`` is the n-way intersection (the multi-study
        queries of Table 4), a fold of the two-set merge; ``min_depth = 1``
        is the union; intermediate values answer "in at least m of the k
        studies".  Those two are one event sweep.
        """
        if min_depth < 1:
            raise ValidationError("min_depth must be >= 1")
        sets = list(sets)
        if min_depth > len(sets):
            return IntervalSet.empty()
        if min_depth == len(sets):
            result = sets[0]
            for other in sets[1:]:
                result = result._merge(other)
            return result
        positions = np.concatenate([s._starts for s in sets] + [s._stops for s in sets])
        if positions.size == 0:
            return IntervalSet.empty()
        deltas = np.repeat(np.asarray([1, -1], dtype=np.int64), positions.size // 2)
        # One sort: the events arrive as a few sorted lists, which a stable
        # (merging) sort orders in near-linear time.
        order = np.argsort(positions, kind="stable")
        positions = positions[order]
        # The running depth is settled at the last event of each position.
        settled = np.flatnonzero(positions[1:] != positions[:-1])
        settled = np.concatenate((settled, [positions.size - 1]))
        unique_pos = positions[settled]
        depth = np.cumsum(deltas[order])[settled]  # coverage on [unique_pos[i], unique_pos[i+1])
        # Runs of covered segments, in segment numbers.  The final event
        # closes every run (net depth returns to 0), so the last segment is
        # never covered and every stop below names a position.
        covered = IntervalSet.from_mask(depth >= min_depth)
        return IntervalSet(unique_pos[covered._starts], unique_pos[covered._stops], _trusted=True)

    def _merge(self, other: "IntervalSet") -> "IntervalSet":
        """The intersection of two sets, by merging their sorted runs.

        Two binary searches find, for each run of the set with fewer runs,
        the span of the other's runs that it overlaps; one ``repeat``
        expands the pairs, and each pair's overlap is its later start to
        its earlier stop.  The pairs come out in curve order, and two of
        them are separated by a gap of one input or the other, so the
        result is canonical as built: no sort.
        """
        a, b = (self, other) if self.run_count <= other.run_count else (other, self)
        lo = np.searchsorted(b._stops, a._starts, side="right")  # first b run ending past a's start
        hi = np.searchsorted(b._starts, a._stops, side="left")  # first b run starting at a's stop
        counts = hi - lo
        i = np.repeat(np.arange(counts.size), counts)
        # Pair p of run i is b run lo[i] + (p - first pair of i).
        j = np.arange(i.size) + (lo - (np.cumsum(counts) - counts))[i]
        return IntervalSet(np.maximum(a._starts[i], b._starts[j]),
                           np.minimum(a._stops[i], b._stops[j]), _trusted=True)

    def intersection(self, *others: "IntervalSet") -> "IntervalSet":
        """Members common to this set and all ``others``."""
        sets = [self, *others]
        return IntervalSet.sweep(sets, len(sets))

    def union(self, *others: "IntervalSet") -> "IntervalSet":
        """Members of this set or any of ``others``."""
        return IntervalSet.sweep([self, *others], 1)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Members of ``self`` that are not in ``other``: ``self`` merged
        with ``other``'s gaps, which are canonical runs as they stand."""
        if self.run_count == 0 or other.run_count == 0:
            return self
        gap_starts = np.concatenate(([0], other._stops))
        gap_stops = np.concatenate((other._starts, [np.iinfo(np.int64).max]))
        first = int(other._starts[0] == 0)  # no gap before a run at 0
        return self._merge(IntervalSet(gap_starts[first:], gap_stops[first:], _trusted=True))

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        """Members of exactly one of the two sets."""
        return self.difference(other).union(other.difference(self))

    def complement(self, length: int) -> "IntervalSet":
        """Members of ``{0, ..., length - 1}`` not in ``self``."""
        return IntervalSet.full(length).difference(self)

    def issuperset(self, other: "IntervalSet") -> bool:
        """The paper's ``CONTAINS(r1, r2)`` predicate: is ``other`` inside ``self``?"""
        return other.difference(self).run_count == 0

    def isdisjoint(self, other: "IntervalSet") -> bool:
        """True when the two sets share no member."""
        return self.intersection(other).run_count == 0

    def shift(self, offset: int) -> "IntervalSet":
        """Translate every member by ``offset`` (must stay non-negative)."""
        if self.run_count == 0:
            return self
        if self._starts[0] + offset < 0:
            raise ValidationError("shift would produce negative positions")
        return IntervalSet(self._starts + offset, self._stops + offset, _trusted=True)

    def clip(self, lo: int, hi: int) -> "IntervalSet":
        """Restrict to the half-open window ``[lo, hi)``."""
        if lo >= hi or self.run_count == 0:
            return IntervalSet.empty()
        starts = np.clip(self._starts, lo, hi)
        stops = np.clip(self._stops, lo, hi)
        return IntervalSet(starts, stops)

    # ------------------------------------------------------------------ #
    # offsets (needed to subset the values of a DATA_REGION)
    # ------------------------------------------------------------------ #

    def rank_of(self, indices: np.ndarray) -> np.ndarray:
        """For each member index, its 0-based position in sorted member order.

        Raises :class:`ValueError` if any index is not a member.  This maps a
        curve position to the offset of its value inside an extracted value
        list, which is how a DATA_REGION answers point probes.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not self.contains_indices(indices).all():
            raise ValidationError("rank_of called with non-member indices")
        slot = np.searchsorted(self._starts, indices, side="right") - 1
        lengths = self._stops - self._starts
        prefix = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        return prefix[slot] + (indices - self._starts[slot])

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self.run_count == other.run_count
            and bool(np.array_equal(self._starts, other._starts))
            and bool(np.array_equal(self._stops, other._stops))
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._stops.tobytes()))

    def __bool__(self) -> bool:
        return self.run_count > 0

    def __len__(self) -> int:
        return self.count

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    def __xor__(self, other: "IntervalSet") -> "IntervalSet":
        return self.symmetric_difference(other)

    def __repr__(self) -> str:
        preview = ", ".join(
            f"<{s},{e}>" for s, e in list(self.runs_inclusive())[:4]
        )
        if self.run_count > 4:
            preview += ", ..."
        return f"IntervalSet({self.run_count} runs, {self.count} members: {preview})"
