"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:
* curves are bijections and inverses of each other,
* IntervalSet algebra agrees with Python set semantics,
* octant decompositions partition their input exactly,
* every codec (integer and REGION) decodes to exactly what was encoded,
* region set operations agree with boolean mask operations,
* approximations are always supersets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BitReader,
    BitWriter,
    delta_decode_array,
    delta_encode_array,
    gamma_code_length,
    gamma_decode_array,
    gamma_encode_array,
    get_codec,
    golomb_decode_array,
    golomb_encode_array,
    varlen_decode_array,
    varlen_encode_array,
)
from repro.curves import GridSpec, HilbertCurve, MortonCurve, RowMajorCurve
from repro.regions import IntervalSet, Region, merge_gaps

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

index_sets = st.lists(st.integers(0, 4000), min_size=0, max_size=200).map(
    lambda xs: IntervalSet.from_indices(np.asarray(xs, dtype=np.int64))
    if xs
    else IntervalSet.empty()
)

positive_values = st.lists(st.integers(1, 1 << 40), min_size=1, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)

curve_classes = st.sampled_from([HilbertCurve, MortonCurve, RowMajorCurve])


def as_set(s: IntervalSet) -> set[int]:
    return set(s.indices().tolist())


# ---------------------------------------------------------------------- #
# curves
# ---------------------------------------------------------------------- #


@given(
    cls=curve_classes,
    ndim=st.integers(1, 4),
    bits=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_curve_roundtrip_random_points(cls, ndim, bits, data):
    if ndim * bits > 20:
        bits = 20 // ndim or 1
    curve = cls(ndim, bits)
    n = data.draw(st.integers(1, 50))
    coords = data.draw(
        st.lists(
            st.lists(st.integers(0, curve.side - 1), min_size=ndim, max_size=ndim),
            min_size=n,
            max_size=n,
        )
    )
    coords = np.asarray(coords, dtype=np.int64)
    idx = curve.index(coords)
    assert np.array_equal(curve.coords(idx), coords)
    assert (idx >= 0).all() and (idx < curve.length).all()


@given(cls=curve_classes, bits=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_curve_is_permutation(cls, bits):
    curve = cls(2, bits)
    idx = np.arange(curve.length)
    coords = curve.coords(idx)
    assert len(np.unique(curve.index(coords))) == curve.length


# ---------------------------------------------------------------------- #
# interval algebra
# ---------------------------------------------------------------------- #


@given(a=index_sets, b=index_sets)
@settings(max_examples=80, deadline=None)
def test_interval_ops_match_set_semantics(a, b):
    sa, sb = as_set(a), as_set(b)
    assert as_set(a & b) == sa & sb
    assert as_set(a | b) == sa | sb
    assert as_set(a - b) == sa - sb
    assert as_set(a ^ b) == sa ^ sb


@given(a=index_sets, b=index_sets)
@settings(max_examples=50, deadline=None)
def test_interval_containment_consistency(a, b):
    assert a.issuperset(b) == (as_set(b) <= as_set(a))
    assert a.isdisjoint(b) == as_set(a).isdisjoint(as_set(b))


@given(s=index_sets)
@settings(max_examples=50, deadline=None)
def test_runs_are_canonical(s):
    if s.run_count:
        assert (s.run_lengths > 0).all()
        assert (s.gap_lengths > 0).all()  # maximal runs never touch
        assert (np.diff(s.starts) > 0).all()


@given(s=index_sets, length=st.integers(4001, 5000))
@settings(max_examples=40, deadline=None)
def test_complement_partition(s, length):
    comp = s.complement(length)
    assert s.isdisjoint(comp)
    assert (s | comp).count == length


@given(sets=st.lists(index_sets, min_size=1, max_size=5), m=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_counting(sets, m):
    from collections import Counter

    counter = Counter()
    for s in sets:
        counter.update(as_set(s))
    expected = {x for x, c in counter.items() if c >= m}
    assert as_set(IntervalSet.sweep(sets, m)) == expected


@given(s=index_sets)
@settings(max_examples=40, deadline=None)
def test_octant_decompositions_partition(s):
    from repro.regions import decompose_oblong_octants, decompose_octants, octants_to_intervals

    for ids, ranks in (decompose_oblong_octants(s), decompose_octants(s, 3)):
        rebuilt = octants_to_intervals(ids, ranks)
        assert rebuilt == s
        # Elements are disjoint: total size equals member count.
        assert int((np.int64(1) << ranks).sum()) == s.count


# ---------------------------------------------------------------------- #
# integer codes
# ---------------------------------------------------------------------- #


@given(values=positive_values)
@settings(max_examples=60, deadline=None)
def test_gamma_roundtrip(values):
    w = BitWriter()
    gamma_encode_array(values, w)
    out = gamma_decode_array(BitReader(w.getvalue()), values.size)
    assert np.array_equal(out, values)
    assert w.bit_length == int(gamma_code_length(values).sum())


@given(values=positive_values)
@settings(max_examples=40, deadline=None)
def test_delta_roundtrip(values):
    w = BitWriter()
    delta_encode_array(values, w)
    assert np.array_equal(
        delta_decode_array(BitReader(w.getvalue()), values.size), values
    )


@given(
    values=st.lists(st.integers(1, 100000), min_size=1, max_size=100).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    m=st.integers(1, 64),
)
@settings(max_examples=40, deadline=None)
def test_golomb_roundtrip(values, m):
    w = BitWriter()
    golomb_encode_array(values, m, w)
    assert np.array_equal(
        golomb_decode_array(BitReader(w.getvalue()), m, values.size), values
    )


@given(values=positive_values, k=st.integers(1, 16))
@settings(max_examples=40, deadline=None)
def test_varlen_roundtrip(values, k):
    w = BitWriter()
    varlen_encode_array(values, k, w)
    assert np.array_equal(
        varlen_decode_array(BitReader(w.getvalue()), k, values.size), values
    )


@given(s=index_sets, codec=st.sampled_from(["naive", "elias", "octant", "oblong"]))
@settings(max_examples=60, deadline=None)
def test_region_codec_roundtrip(s, codec):
    c = get_codec(codec)
    assert c.decode(c.encode(s, ndim=3)) == s


# ---------------------------------------------------------------------- #
# regions
# ---------------------------------------------------------------------- #

masks_8 = st.lists(st.booleans(), min_size=512, max_size=512).map(
    lambda bits: np.asarray(bits, dtype=bool).reshape(8, 8, 8)
)


@given(mask_a=masks_8, mask_b=masks_8)
@settings(max_examples=30, deadline=None)
def test_region_algebra_matches_mask_algebra(mask_a, mask_b):
    grid = GridSpec((8, 8, 8))
    a = Region.from_mask(mask_a, grid)
    b = Region.from_mask(mask_b, grid)
    assert np.array_equal((a & b).to_mask(), mask_a & mask_b)
    assert np.array_equal((a | b).to_mask(), mask_a | mask_b)
    assert np.array_equal((a - b).to_mask(), mask_a & ~mask_b)


@given(mask=masks_8, curve=st.sampled_from(["hilbert", "morton", "rowmajor"]))
@settings(max_examples=30, deadline=None)
def test_region_mask_roundtrip_any_curve(mask, curve):
    grid = GridSpec((8, 8, 8))
    region = Region.from_mask(mask, grid, curve)
    assert np.array_equal(region.to_mask(), mask)
    assert region.voxel_count == int(mask.sum())


@given(mask=masks_8)
@settings(max_examples=30, deadline=None)
def test_reorder_preserves_geometry(mask):
    grid = GridSpec((8, 8, 8))
    region = Region.from_mask(mask, grid, "hilbert")
    assert np.array_equal(region.reorder("morton").to_mask(), mask)


grids = st.sampled_from([(8, 8, 8), (5, 8, 3), (7, 2, 6), (16, 16), (9, 13)])


@st.composite
def grid_masks(draw):
    shape = draw(grids)
    bits = draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return np.asarray(bits, dtype=bool).reshape(shape)


@given(mask=grid_masks(), source=st.sampled_from(["hilbert", "morton"]))
@settings(max_examples=60, deadline=None)
def test_reorder_laws_and_the_shared_bounding_box(mask, source):
    target = "morton" if source == "hilbert" else "hilbert"
    region = Region.from_mask(mask, curve=source)
    moved = region.reorder(target)
    assert moved.curve.name == target
    assert np.array_equal(moved.to_mask(), mask)
    assert moved.reorder(source) == region
    assert moved == Region.from_mask(mask, curve=target)
    if not mask.any():
        return
    # one box per voxel set: taken in reorder, handed on, and what a box
    # computed from the coordinates would be
    coords = np.argwhere(mask)
    box = tuple(coords.min(axis=0).tolist()), tuple((coords.max(axis=0) + 1).tolist())
    assert region._box == moved._box == box
    assert moved.bounding_box() is region.bounding_box()
    for fresh in (Region.from_mask(mask, curve=source), moved.reorder(source)):
        expanded = fresh.coords()
        assert fresh.bounding_box() == box == (
            tuple(expanded.min(axis=0).tolist()),
            tuple((expanded.max(axis=0) + 1).tolist()))


@given(mask=masks_8, source=st.sampled_from(["hilbert", "morton", "rowmajor"]))
@settings(max_examples=20, deadline=None)
def test_reorder_kernel_path_agrees_with_the_table_path(mask, source):
    """The same voxels on a 256^3 grid — a curve longer than
    ``TABLE_MAX_LENGTH``, answered by the bit kernels — and on the 8^3
    grid the tables answer."""
    from repro.curves.base import TABLE_MAX_LENGTH

    target = "morton" if source != "morton" else "hilbert"
    coords = np.argwhere(mask)
    small, large = GridSpec((8, 8, 8)), GridSpec((256, 256, 256))
    table = Region.from_coords(coords, small, source)
    kernel = Region.from_coords(coords, large, source)
    assert kernel.curve.length > TABLE_MAX_LENGTH >= table.curve.length
    moved = kernel.reorder(target)
    assert moved == Region.from_coords(coords, large, target)
    assert np.array_equal(moved.to_mask()[:8, :8, :8], mask)
    assert moved.voxel_count == table.voxel_count
    if coords.size:
        assert (moved.bounding_box() == kernel.bounding_box()
                == table.reorder(target).bounding_box())


@given(mask=masks_8, mingap=st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_merge_gaps_always_superset(mask, mingap):
    grid = GridSpec((8, 8, 8))
    region = Region.from_mask(mask, grid)
    approx = merge_gaps(region, mingap)
    assert approx.contains(region)
    assert approx.run_count <= region.run_count


@given(mask=masks_8, codec=st.sampled_from(["naive", "elias"]))
@settings(max_examples=30, deadline=None)
def test_region_serialization_roundtrip(mask, codec):
    grid = GridSpec((8, 8, 8))
    region = Region.from_mask(mask, grid)
    assert Region.from_bytes(region.to_bytes(codec)) == region
