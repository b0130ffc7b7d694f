"""Unit tests for the run-list algebra (IntervalSet)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.regions import IntervalSet, concat_ranges
from repro.regions import intervals as intervals_module


def iset(*runs):
    """Shorthand: build from inclusive (start, end) pairs."""
    return IntervalSet.from_runs(runs)


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([1, 5]), np.array([3, 6]))
        assert out.tolist() == [1, 2, 5]

    def test_empty(self):
        assert concat_ranges(np.array([]), np.array([])).tolist() == []

    def test_skips_empty_ranges(self):
        out = concat_ranges(np.array([2, 4, 9]), np.array([2, 7, 10]))
        assert out.tolist() == [4, 5, 6, 9]

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValidationError):
            concat_ranges(np.array([5]), np.array([3]))
        with pytest.raises(ValidationError):
            concat_ranges(np.array([0, 9, 4]), np.array([2, 8, 6]))

    def test_single_long_range(self):
        out = concat_ranges(np.array([10]), np.array([15]))
        assert out.tolist() == [10, 11, 12, 13, 14]

    @pytest.mark.parametrize("starts,stops", [
        ([], []),
        ([3, 3, 8, 9, 20], [3, 6, 8, 12, 21]),  # zero-length ranges mixed in
        ([7], [7]),
        ([40], [4136]),
        ([0, 5, 9], [5, 9, 12]),  # touching
        ([50, 2, 30, 2], [53, 6, 31, 4]),  # out of order, overlapping
    ])
    def test_equals_concatenated_aranges(self, starts, stops):
        starts, stops = np.array(starts, dtype=np.int32), np.array(stops, dtype=np.int32)
        out = concat_ranges(starts, stops)
        expected = np.concatenate(
            [np.arange(a, b) for a, b in zip(starts.tolist(), stops.tolist())] + [[]])
        assert out.dtype == np.int64
        assert out.tolist() == expected.tolist()


class TestConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert s.run_count == 0
        assert s.count == 0
        assert not s

    def test_full(self):
        s = IntervalSet.full(10)
        assert s.count == 10
        assert list(s.runs_inclusive()) == [(0, 9)]

    def test_full_zero_length(self):
        assert IntervalSet.full(0).run_count == 0

    def test_from_indices_merges_consecutive(self):
        s = IntervalSet.from_indices(np.array([5, 1, 2, 3, 9, 8]))
        assert list(s.runs_inclusive()) == [(1, 3), (5, 5), (8, 9)]

    def test_from_indices_deduplicates(self):
        s = IntervalSet.from_indices(np.array([4, 4, 4, 5]))
        assert s.count == 2

    def test_from_indices_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalSet.from_indices(np.array([-1, 3]))

    def test_from_indices_runs_are_those_of_the_deduplicated_sort(self):
        """Unsorted, duplicated, empty: bit-identical to going through
        ``np.unique`` and the mask constructor (the negative check above)."""
        rng = np.random.default_rng(64)
        cases = [np.empty(0, dtype=np.int64), np.array([7]), np.array([3, 3, 3]),
                 np.array([9, 0, 9, 1, 0, 5, 4, 4, 6])]
        cases += [rng.integers(0, 400, size) for size in (50, 300, 2000)]
        for indices in cases:
            got = IntervalSet.from_indices(indices)
            mask = np.zeros(401, dtype=bool)
            mask[indices] = True
            want = IntervalSet.from_mask(mask)
            assert got == want
            assert got.starts.dtype == want.starts.dtype == np.int64
            assert got.count == np.unique(indices).size
            assert np.array_equal(got.starts, want.starts)
            assert np.array_equal(got.stops, want.stops)

    def test_from_runs_canonicalizes_overlaps(self):
        s = iset((0, 5), (3, 8), (10, 12))
        assert list(s.runs_inclusive()) == [(0, 8), (10, 12)]

    def test_from_runs_merges_adjacent(self):
        s = iset((0, 4), (5, 9))
        assert s.run_count == 1
        assert s.count == 10

    def test_from_runs_unsorted_input(self):
        s = iset((10, 12), (0, 2))
        assert list(s.runs_inclusive()) == [(0, 2), (10, 12)]

    def test_from_mask(self):
        mask = np.array([1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        s = IntervalSet.from_mask(mask)
        assert list(s.runs_inclusive()) == [(0, 1), (4, 4), (6, 8)]

    def test_from_mask_all_false(self):
        assert IntervalSet.from_mask(np.zeros(5, dtype=bool)).run_count == 0

    def test_from_mask_all_true(self):
        s = IntervalSet.from_mask(np.ones(5, dtype=bool))
        assert list(s.runs_inclusive()) == [(0, 4)]

    def test_roundtrip_indices(self):
        rng = np.random.default_rng(1)
        idx = np.unique(rng.integers(0, 1000, 300))
        s = IntervalSet.from_indices(idx)
        assert np.array_equal(s.indices(), idx)

    def test_mask_roundtrip(self):
        rng = np.random.default_rng(2)
        mask = rng.random(200) < 0.3
        s = IntervalSet.from_mask(mask)
        assert np.array_equal(s.to_mask(200), mask)


class TestAccessors:
    def test_counts(self):
        s = iset((0, 4), (10, 10))
        assert s.run_count == 2
        assert s.count == 6
        assert len(s) == 6

    def test_run_and_gap_lengths(self):
        s = iset((0, 4), (8, 9), (15, 15))
        assert s.run_lengths.tolist() == [5, 2, 1]
        assert s.gap_lengths.tolist() == [3, 5]

    def test_gap_lengths_single_run(self):
        assert iset((3, 7)).gap_lengths.tolist() == []

    def test_min_max(self):
        s = iset((3, 5), (9, 12))
        assert s.min_index == 3
        assert s.max_index == 12

    def test_min_max_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().min_index
        with pytest.raises(ValueError):
            IntervalSet.empty().max_index

    def test_immutability(self):
        s = iset((0, 3))
        with pytest.raises(ValueError):
            s.starts[0] = 99

    def test_repr_preview(self):
        s = iset(*[(10 * i, 10 * i + 3) for i in range(6)])
        text = repr(s)
        assert "6 runs" in text and "..." in text


class TestMembership:
    def test_contains_indices(self):
        s = iset((2, 4), (8, 8))
        probe = np.array([0, 2, 3, 4, 5, 7, 8, 9])
        assert s.contains_indices(probe).tolist() == [
            False, True, True, True, False, False, True, False,
        ]

    def test_dunder_contains(self):
        s = iset((5, 6))
        assert 5 in s
        assert 7 not in s

    def test_empty_set_contains_nothing(self):
        assert not IntervalSet.empty().contains_indices(np.array([0, 1])).any()


class TestSetAlgebra:
    """Every operation is cross-checked against Python set semantics."""

    CASES = [
        (iset((0, 5)), iset((3, 9))),
        (iset((0, 2), (6, 9)), iset((2, 7))),
        (iset((0, 0), (2, 2), (4, 4)), iset((1, 1), (3, 3))),
        (iset((0, 20)), IntervalSet.empty()),
        (IntervalSet.empty(), IntervalSet.empty()),
        (iset((0, 4), (10, 14)), iset((0, 4), (10, 14))),
        (iset((5, 5)), iset((5, 5))),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_intersection_matches_sets(self, a, b):
        expected = set(a.indices().tolist()) & set(b.indices().tolist())
        assert set(a.intersection(b).indices().tolist()) == expected

    @pytest.mark.parametrize("a,b", CASES)
    def test_union_matches_sets(self, a, b):
        expected = set(a.indices().tolist()) | set(b.indices().tolist())
        assert set(a.union(b).indices().tolist()) == expected

    @pytest.mark.parametrize("a,b", CASES)
    def test_difference_matches_sets(self, a, b):
        expected = set(a.indices().tolist()) - set(b.indices().tolist())
        assert set(a.difference(b).indices().tolist()) == expected

    @pytest.mark.parametrize("a,b", CASES)
    def test_symmetric_difference_matches_sets(self, a, b):
        expected = set(a.indices().tolist()) ^ set(b.indices().tolist())
        assert set(a.symmetric_difference(b).indices().tolist()) == expected

    def test_operators(self):
        a, b = iset((0, 5)), iset((4, 9))
        assert (a & b) == a.intersection(b)
        assert (a | b) == a.union(b)
        assert (a - b) == a.difference(b)
        assert (a ^ b) == a.symmetric_difference(b)

    def test_n_way_intersection(self):
        sets = [iset((0, 10)), iset((3, 12)), iset((5, 20))]
        result = sets[0].intersection(*sets[1:])
        assert list(result.runs_inclusive()) == [(5, 10)]

    def test_n_way_union(self):
        sets = [iset((0, 1)), iset((3, 4)), iset((2, 2))]
        result = sets[0].union(*sets[1:])
        assert list(result.runs_inclusive()) == [(0, 4)]

    def test_sweep_at_least_m(self):
        """'In at least 2 of 3 studies' — the sweep's general form."""
        sets = [iset((0, 5)), iset((3, 8)), iset((4, 10))]
        result = IntervalSet.sweep(sets, 2)
        assert list(result.runs_inclusive()) == [(3, 8)]

    def test_sweep_min_depth_validation(self):
        with pytest.raises(ValueError):
            IntervalSet.sweep([iset((0, 1))], 0)

    def test_sweep_depth_above_count_is_empty(self):
        assert IntervalSet.sweep([iset((0, 1))], 2).run_count == 0

    def test_complement(self):
        s = iset((2, 3), (6, 7))
        assert list(s.complement(10).runs_inclusive()) == [(0, 1), (4, 5), (8, 9)]

    def test_complement_involution(self):
        s = iset((1, 4), (8, 8))
        assert s.complement(12).complement(12) == s

    def test_issuperset(self):
        big = iset((0, 10), (20, 30))
        assert big.issuperset(iset((2, 5), (25, 30)))
        assert not big.issuperset(iset((9, 11)))
        assert big.issuperset(IntervalSet.empty())

    def test_isdisjoint(self):
        assert iset((0, 3)).isdisjoint(iset((4, 6)))
        assert not iset((0, 3)).isdisjoint(iset((3, 6)))

    def test_result_is_canonical(self):
        """Unions that touch must merge into maximal runs."""
        result = iset((0, 4)).union(iset((5, 9)))
        assert result.run_count == 1


_SPAN = 40


@st.composite
def set_families(draw):
    """1-5 sets over ``[0, _SPAN)`` and their masks.  Besides random sets,
    a member may be empty, a single run, the previous set itself, or the
    previous set's gaps, whose every run touches one of its runs."""
    sets, masks = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["random", "empty", "single", "same", "touching"]))
        if kind == "empty":
            mask = np.zeros(_SPAN, dtype=bool)
        elif kind == "single":
            lo = draw(st.integers(0, _SPAN - 1))
            mask = np.zeros(_SPAN, dtype=bool)
            mask[lo:draw(st.integers(lo + 1, _SPAN))] = True
        elif kind == "same" and sets:
            sets.append(sets[-1])
            masks.append(masks[-1])
            continue
        elif kind == "touching" and sets:
            mask = ~masks[-1]
        else:
            mask = np.asarray(draw(st.lists(st.booleans(), min_size=_SPAN, max_size=_SPAN)))
        sets.append(IntervalSet.from_mask(mask))
        masks.append(mask)
    return sets, masks


def _assert_canonical_and_equal(result, expected_mask):
    assert (result.stops > result.starts).all()
    assert (result.starts[1:] > result.stops[:-1]).all()
    assert np.array_equal(result.to_mask(_SPAN), expected_mask)


class TestMergeAgainstTheMaskOracle:
    """Intersection of 1-5 sets and difference are a merge of sorted runs;
    both must equal the boolean-mask answer, canonical as built."""

    @given(set_families())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_intersection_and_difference(self, family):
        sets, masks = family
        expected = np.logical_and.reduce(masks)
        _assert_canonical_and_equal(IntervalSet.sweep(sets, len(sets)), expected)
        _assert_canonical_and_equal(sets[0].intersection(*sets[1:]), expected)
        for a, mask_a in zip(sets, masks):
            for b, mask_b in zip(sets, masks):
                _assert_canonical_and_equal(a.difference(b), mask_a & ~mask_b)
                assert a.issuperset(b) == (not (mask_b & ~mask_a).any())

    def test_touching_runs_neither_intersect_nor_subtract(self):
        a, b = iset((0, 4), (10, 14)), iset((5, 9), (15, 20))
        assert a.intersection(b) == IntervalSet.empty()
        assert a.difference(b) == a and b.difference(a) == b

    def test_difference_of_a_set_starting_at_zero(self):
        assert iset((0, 9)).difference(iset((0, 2), (5, 5))) == iset((3, 4), (6, 9))
        assert IntervalSet.full(6).difference(iset((0, 5))) == IntervalSet.empty()

    def test_intersection_and_difference_do_not_sort(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("sorted")

        monkeypatch.setattr(np, "argsort", no_sort)
        monkeypatch.setattr(intervals_module, "_canonicalize", no_sort)
        a, b = iset((0, 5), (9, 20), (30, 31)), iset((3, 10), (12, 12), (25, 40))
        assert IntervalSet.sweep([a, b, a], 3) == iset((3, 5), (9, 10), (12, 12), (30, 31))
        assert a.difference(b) == iset((0, 2), (11, 11), (13, 20))


class TestShiftClip:
    def test_shift(self):
        s = iset((2, 4)).shift(10)
        assert list(s.runs_inclusive()) == [(12, 14)]

    def test_shift_negative_rejected(self):
        with pytest.raises(ValueError):
            iset((2, 4)).shift(-5)

    def test_clip(self):
        s = iset((0, 10), (20, 30)).clip(5, 25)
        assert list(s.runs_inclusive()) == [(5, 10), (20, 24)]

    def test_clip_empty_window(self):
        assert iset((0, 10)).clip(7, 7).run_count == 0


class TestRankOf:
    def test_rank_within_runs(self):
        s = iset((10, 12), (20, 21))
        ranks = s.rank_of(np.array([10, 11, 12, 20, 21]))
        assert ranks.tolist() == [0, 1, 2, 3, 4]

    def test_rank_rejects_non_members(self):
        with pytest.raises(ValueError):
            iset((0, 2)).rank_of(np.array([5]))

    def test_rank_matches_indices_order(self):
        rng = np.random.default_rng(3)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 500, 100)))
        members = s.indices()
        assert np.array_equal(s.rank_of(members), np.arange(members.size))


class TestEqualityHash:
    def test_equality(self):
        assert iset((0, 3), (5, 6)) == iset((0, 3), (5, 6))
        assert iset((0, 3)) != iset((0, 4))

    def test_hash_consistency(self):
        assert hash(iset((1, 2))) == hash(iset((1, 2)))

    def test_not_equal_other_types(self):
        assert iset((0, 1)) != "not a set"
