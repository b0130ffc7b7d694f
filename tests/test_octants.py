"""Unit tests for octant / oblong-octant decompositions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.errors import ValidationError
from repro.regions import (
    IntervalSet,
    count_octants,
    decompose_oblong_octants,
    decompose_octants,
    octants_to_intervals,
)
from repro.regions import intervals as intervals_module


def iset(*runs):
    return IntervalSet.from_runs(runs)


class TestOblongOctants:
    def test_single_aligned_block(self):
        ids, ranks = decompose_oblong_octants(iset((8, 15)))
        assert ids.tolist() == [8]
        assert ranks.tolist() == [3]

    def test_unaligned_run_splits(self):
        # [1, 8): 1 + [2,4) + [4,8)
        ids, ranks = decompose_oblong_octants(iset((1, 7)))
        assert list(zip(ids.tolist(), ranks.tolist())) == [(1, 0), (2, 1), (4, 2)]

    def test_run_not_power_of_two(self):
        # [0, 6): [0,4) + [4,6)
        ids, ranks = decompose_oblong_octants(iset((0, 5)))
        assert list(zip(ids.tolist(), ranks.tolist())) == [(0, 2), (4, 1)]

    def test_empty(self):
        ids, ranks = decompose_oblong_octants(IntervalSet.empty())
        assert ids.size == 0 and ranks.size == 0

    def test_never_more_elements_than_runs_times_log(self):
        rng = np.random.default_rng(5)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 12, 800)))
        ids, _ = decompose_oblong_octants(s)
        assert s.run_count <= ids.size <= s.run_count * 24


class TestRegularOctants:
    def test_rank_multiple_of_ndim(self):
        rng = np.random.default_rng(6)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 12, 500)))
        _, ranks = decompose_octants(s, ndim=3)
        assert np.all(ranks % 3 == 0)

    def test_2d_ranks_even(self):
        s = iset((1, 8))
        _, ranks = decompose_octants(s, ndim=2)
        assert np.all(ranks % 2 == 0)

    def test_octant_count_at_least_oblong(self):
        """Every run splits into >= as many octants as oblong octants (§4.2)."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 15, 1000)))
            n_oct, n_obl = count_octants(s, ndim=3)
            assert n_oct >= n_obl >= s.run_count

    def test_ndim_validation(self):
        with pytest.raises(ValueError):
            decompose_octants(iset((0, 1)), ndim=0)


class TestRoundTrip:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_octants_rebuild_exactly(self, ndim):
        rng = np.random.default_rng(8)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 12, 600)))
        ids, ranks = decompose_octants(s, ndim=ndim)
        assert octants_to_intervals(ids, ranks) == s

    def test_oblong_rebuild_exactly(self):
        rng = np.random.default_rng(9)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 12, 600)))
        ids, ranks = decompose_oblong_octants(s)
        assert octants_to_intervals(ids, ranks) == s

    def test_rebuild_rejects_unaligned(self):
        with pytest.raises(ValueError):
            octants_to_intervals(np.array([3]), np.array([2]))

    def test_rebuild_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            octants_to_intervals(np.array([0, 4]), np.array([2]))


class TestDecode:
    """``octants_to_intervals`` merges blocks that arrive in id order in one
    pass; blocks in any other order still decode to the canonical set."""

    @staticmethod
    def _random_set(seed):
        rng = np.random.default_rng(seed)
        return IntervalSet.from_indices(rng.integers(0, 1 << 12, 900))

    @pytest.mark.parametrize("decompose", [lambda s: decompose_octants(s, 3),
                                           decompose_oblong_octants])
    def test_shuffled_blocks_decode_to_the_canonical_set(self, decompose):
        s = self._random_set(11)
        ids, ranks = decompose(s)
        order = np.random.default_rng(12).permutation(ids.size)
        assert octants_to_intervals(ids[order], ranks[order]) == s
        assert octants_to_intervals(ids[::-1], ranks[::-1]) == s

    def test_overlapping_and_adjacent_blocks(self):
        # [0, 8) twice over, [8, 12) adjacent to it, [16, 17) and [17, 18) adjacent
        ids, ranks = np.array([0, 4, 0, 8, 17, 16]), np.array([3, 2, 2, 2, 0, 0])
        assert octants_to_intervals(ids, ranks) == iset((0, 11), (16, 17))
        assert octants_to_intervals(np.array([4, 0]), np.array([2, 2])) == iset((0, 7))

    def test_empty(self):
        assert octants_to_intervals(np.array([], dtype=np.int64),
                                    np.array([], dtype=np.int64)) == IntervalSet.empty()

    @pytest.mark.parametrize("ids,ranks", [([0, 8, 13], [3, 2, 2]), ([3], [2]),
                                           ([16, 6], [4, 2])])
    def test_unaligned_block_is_a_validation_error(self, ids, ranks):
        with pytest.raises(ValidationError, match="aligned"):
            octants_to_intervals(np.array(ids), np.array(ranks))

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValidationError):
            octants_to_intervals(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("codec", ["octant", "oblong"])
    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_encoded_payloads_round_trip_without_a_sort(self, codec, seed, monkeypatch):
        s = self._random_set(seed)
        payload = get_codec(codec).encode(s, ndim=3)

        def no_sort(*args, **kwargs):
            raise AssertionError("an encoded payload needed the sort-and-merge")

        monkeypatch.setattr(intervals_module, "_canonicalize", no_sort)
        decoded = get_codec(codec).decode(payload)
        assert decoded == s
        assert get_codec(codec).encode(decoded, ndim=3) == payload


class TestAlignment:
    def test_ids_aligned_to_rank(self):
        rng = np.random.default_rng(10)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 14, 700)))
        for ids, ranks in (
            decompose_oblong_octants(s),
            decompose_octants(s, ndim=3),
        ):
            assert not np.any(ids & ((np.int64(1) << ranks) - 1))

    def test_elements_in_curve_order(self):
        rng = np.random.default_rng(11)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 13, 400)))
        ids, _ = decompose_oblong_octants(s)
        assert np.all(np.diff(ids) > 0)

    def test_greedy_is_maximal(self):
        """No two adjacent same-rank siblings that could merge (canonical octree)."""
        rng = np.random.default_rng(12)
        s = IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 12, 500)))
        ids, ranks = decompose_oblong_octants(s)
        blocks = set(zip(ids.tolist(), ranks.tolist()))
        for i, r in blocks:
            buddy_id = i ^ (1 << r)
            if (buddy_id, r) in blocks and (min(i, buddy_id) & ((1 << (r + 1)) - 1)) == 0:
                raise AssertionError(
                    f"blocks <{i},{r}> and <{buddy_id},{r}> should have merged"
                )


class TestBitKernels:
    """The decomposition against the arrays the bit *loops* it replaced
    produced."""

    #: SHA-256 over (ids, ranks) of every set below, pinned at rev d0636ed
    #: (the 31-pass / 6-pass ``np.where`` loops)
    PINNED = {
        (16, "octant"): "b0766eca8a4a25b6a480555e8e33c43e9e179d3cc64d4412e6dbac1412851c63",
        (16, "oblong"): "eb8ec1a374337e9ba87518deb6498ecf040f80e1b7e9355746ef7d3a453527ba",
        (32, "octant"): "ecda3b557ada02e015be57a563fecbc30779a7364417aefe98df9e0de4ba985e",
        (32, "oblong"): "69550c1f9e8ebb6fcae1c8c5bc864bb766caf7dabcc90cd87831f39362e21442",
    }

    @pytest.mark.parametrize("side", [16, 32])
    def test_phantom_decompositions_are_the_parents(self, side):
        """The phantom's structures and the 8 bands of its anatomy, in z-order."""
        import hashlib

        from repro.regions import Region
        from repro.synthdata.phantom import build_phantom
        from repro.volumes import Volume, uniform_bands

        phantom = build_phantom(side, 1994)
        sets = [Region.from_mask(r.to_mask(), phantom.grid, "morton").intervals
                for r in phantom.structures.values()]
        volume = Volume.from_array((phantom.anatomy * 255).astype(np.uint8),
                                   curve="morton")
        sets += [band.region.intervals for band in uniform_bands(volume)]
        assert len(sets) == 20
        for kind, decompose in (("octant", lambda s: decompose_octants(s, 3)),
                                ("oblong", decompose_oblong_octants)):
            digest = hashlib.sha256()
            for intervals in sets:
                ids, ranks = decompose(intervals)
                assert ids.dtype == ranks.dtype == np.int64
                digest.update(ids.tobytes() + ranks.tobytes())
            assert digest.hexdigest() == self.PINNED[side, kind]


def _peeled(intervals, rank_multiple, max_rank):
    """The oracle: peel the largest aligned block that fits off the head
    of each run, one block at a time, in plain Python."""
    ids, ranks = [], []
    top = max_rank - max_rank % rank_multiple
    for head, stop in zip(intervals.starts.tolist(), intervals.stops.tolist()):
        while head < stop:
            rank = top
            while head % (1 << rank) or head + (1 << rank) > stop:
                rank -= rank_multiple
            ids.append(head)
            ranks.append(rank)
            head += 1 << rank
    return ids, ranks


@st.composite
def _run_sets(draw):
    """Run lists on a ``2^bits`` curve: one-voxel runs and runs touching 0
    and ``2^bits`` are drawn often."""
    bits = draw(st.integers(1, 14))
    side = 1 << bits
    cuts = set(draw(st.lists(st.integers(0, side), max_size=16)))
    cuts |= set(draw(st.sampled_from([(), (0,), (side,), (0, side)])))
    starts = sorted(cuts)[::2]
    stops = sorted(cuts)[1::2]
    singles = draw(st.lists(st.integers(0, side - 1), max_size=6))
    return IntervalSet(np.array(starts[:len(stops)] + singles, dtype=np.int64),
                       np.array(stops + [v + 1 for v in singles], dtype=np.int64)), bits


class TestDecomposeMatchesGreedyPeeling:
    """``_decompose`` (every level at once) yields exactly the blocks the
    greedy left-to-right peeling yields, in the same order."""

    @staticmethod
    def _check(intervals, rank_multiple, max_rank):
        from repro.regions.octants import _decompose

        ids, ranks = _decompose(intervals, rank_multiple, max_rank)
        assert ids.dtype == ranks.dtype == np.int64
        assert (ids.tolist(), ranks.tolist()) == _peeled(
            intervals, rank_multiple, max_rank)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sets=_run_sets(), rank_multiple=st.sampled_from([1, 2, 3]),
           cap=st.integers(0, 62), below=st.booleans())
    def test_random_sets(self, sets, rank_multiple, cap, below):
        intervals, bits = sets
        if below:  # a cap below the longest run
            cap = min(cap, bits - 1)
        self._check(intervals, rank_multiple, cap)

    @pytest.mark.parametrize("rank_multiple", [1, 2, 3])
    @pytest.mark.parametrize("cap", [0, 1, 4, 62])
    @pytest.mark.parametrize("runs", [
        [],                                      # the empty set
        [(0, 1), (5, 6), (63, 64)],              # one-voxel runs
        [(0, 64)],                               # the whole 2^6 curve
        [(0, 37), (41, 64)],                     # touching 0 and 2^6
        [(3, 60)],                               # both ends unaligned
    ])
    def test_edge_cases(self, runs, rank_multiple, cap):
        intervals = IntervalSet(np.array([a for a, _ in runs], dtype=np.int64),
                                np.array([b for _, b in runs], dtype=np.int64))
        self._check(intervals, rank_multiple, cap)
