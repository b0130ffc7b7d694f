"""The bytes <-> arrays boundary does each job once, and does the same job.

Each one-pass kernel is held against the path it replaced:

* ``IntervalSet(starts, stops)`` verifies canonical input and adopts it —
  against ``_canonicalize``, which must still decide every other input;
* the one-sort event sweep — against a dense-mask oracle;
* the flat-offset scatter of ``to_mask`` / ``to_array`` — against the
  ``coords()`` scatter, on cubes, embedded grids and table-less curves;
* project-then-convert rendering — against convert-then-project;
* payload decoding — only typed errors, and one header resolved once.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import QbismSystem
from repro.curves import GridSpec, HilbertCurve, MortonCurve, curve_for_grid
from repro.curves.base import TABLE_MAX_LENGTH
from repro.errors import CodecError, ReproError, ValidationError
from repro.medical.server import QuerySpec
from repro.regions import IntervalSet, Region, intervals as intervals_module
from repro.regions.intervals import _canonicalize
from repro.viz import render
from repro.volumes import DataRegion, data_region as data_region_module

# ---------------------------------------------------------------------- #
# IntervalSet(starts, stops): verify, adopt, or canonicalize
# ---------------------------------------------------------------------- #

#: runs of every kind: unsorted, overlapping, adjacent, empty, negative,
#: stops < starts — drawn from a small range so they collide often
run_pairs = st.lists(
    st.tuples(st.integers(-3, 40), st.integers(-3, 40)), min_size=0, max_size=12
)


def _outcome(build):
    """``("ok", starts, stops)`` or ``("error", type, message)``."""
    try:
        starts, stops = build()
    except ReproError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", starts.tolist(), stops.tolist())


def _reference(starts, stops):
    """What the constructor did before it verified: always canonicalize."""
    starts, stops = _canonicalize(starts, stops)
    if starts.size and starts[0] < 0:
        raise ValidationError("interval sets hold non-negative integers only")
    return starts, stops


def _built(starts, stops):
    built = IntervalSet(starts, stops)
    return built.starts, built.stops


@given(run_pairs, st.booleans())
@settings(max_examples=300, deadline=None)
def test_constructor_equals_canonicalize(pairs, make_runs):
    if make_runs:  # half the examples are proper runs, the adopting path
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    starts = np.asarray([p[0] for p in pairs], dtype=np.int64)
    stops = np.asarray([p[1] for p in pairs], dtype=np.int64)
    expected = _outcome(lambda: _reference(starts, stops))
    assert _outcome(lambda: _built(starts, stops)) == expected
    # plain lists and narrower dtypes are the same input
    assert _outcome(lambda: _built(starts.tolist(), stops.astype(np.int32))) == expected


@given(st.lists(st.integers(0, 9), max_size=4), st.lists(st.integers(0, 9), max_size=4))
@settings(max_examples=100, deadline=None)
def test_constructor_rejects_mismatched_shapes_like_canonicalize(starts, stops):
    expected = _outcome(lambda: _reference(starts, stops))
    assert _outcome(lambda: _built(starts, stops)) == expected
    if len(starts) != len(stops):
        assert expected[:2] == ("error", ValidationError)


def test_constructor_rejects_two_dimensional_input():
    with pytest.raises(ValidationError, match="1-D arrays of equal length"):
        IntervalSet(np.zeros((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64))


@given(run_pairs)
@settings(max_examples=100, deadline=None)
def test_set_does_not_alias_the_callers_arrays(pairs):
    pairs = sorted((abs(a), abs(a) + abs(b) + 1) for a, b in pairs)
    starts = np.asarray([p[0] for p in pairs], dtype=np.int64)
    stops = np.asarray([p[1] for p in pairs], dtype=np.int64)
    built = IntervalSet(starts, stops)
    before = (built.starts.tolist(), built.stops.tolist())
    assert starts.flags.writeable and stops.flags.writeable  # still the caller's
    starts += 1000
    stops += 2000
    assert (built.starts.tolist(), built.stops.tolist()) == before


def test_canonical_input_is_adopted_without_the_sort(monkeypatch):
    calls = []
    monkeypatch.setattr(intervals_module, "_canonicalize",
                        lambda *args: calls.append(args) or _canonicalize(*args))
    assert IntervalSet([1, 5, 9], [3, 8, 10]).count == 6
    assert IntervalSet([], []).count == 0
    assert not calls
    assert IntervalSet([1, 3], [3, 4]) == IntervalSet([1], [4])  # adjacent: merged
    assert len(calls) == 1


# ---------------------------------------------------------------------- #
# the one-sort sweep
# ---------------------------------------------------------------------- #

_SPAN = 48

#: members built from inclusive runs over a short span, so runs of
#: different sets touch (stop == start), repeat and nest all the time
sweep_sets = st.lists(
    st.lists(st.tuples(st.integers(0, _SPAN - 1), st.integers(0, 6)), max_size=6),
    min_size=1, max_size=5,
)


def _from_spans(spans) -> IntervalSet:
    return IntervalSet.from_runs([(lo, min(lo + extra, _SPAN - 1)) for lo, extra in spans])


def _assert_canonical(result: IntervalSet) -> None:
    assert (result.stops > result.starts).all()
    assert (result.starts[1:] > result.stops[:-1]).all()


@given(sweep_sets)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_dense_mask_oracle_at_every_depth(members):
    sets = [_from_spans(spans) for spans in members]
    depth = np.sum([s.to_mask(_SPAN) for s in sets], axis=0, dtype=np.int64)
    for min_depth in range(1, len(sets) + 2):
        result = IntervalSet.sweep(sets, min_depth)
        _assert_canonical(result)
        assert np.array_equal(result.to_mask(_SPAN), depth >= min_depth)
    # a set listed twice counts twice
    doubled = IntervalSet.sweep(sets + sets, 2 * len(sets))
    assert np.array_equal(doubled.to_mask(_SPAN), depth >= len(sets))


@given(sweep_sets)
@settings(max_examples=300, deadline=None)
def test_difference_and_symmetric_difference_match_the_oracle(members):
    a = _from_spans(members[0])
    b = _from_spans(members[-1])
    mask_a, mask_b = a.to_mask(_SPAN), b.to_mask(_SPAN)
    for result, expected in ((a.difference(b), mask_a & ~mask_b),
                             (a.symmetric_difference(b), mask_a ^ mask_b),
                             (a.complement(_SPAN), ~mask_a)):
        _assert_canonical(result)
        assert np.array_equal(result.to_mask(_SPAN), expected)


def test_touching_runs_of_different_sets():
    left, right = IntervalSet([0, 10], [5, 12]), IntervalSet([5], [10])
    assert left.union(right) == IntervalSet([0], [12])
    assert left.intersection(right) == IntervalSet.empty()
    assert left.difference(right) == left
    assert IntervalSet.sweep([left, right, left], 2) == left


@given(st.lists(st.integers(0, 63), max_size=40), st.integers(64, 70))
@settings(max_examples=100, deadline=None)
def test_to_mask_matches_membership(members, length):
    built = IntervalSet.from_indices(np.asarray(members, dtype=np.int64))
    expected = np.zeros(length, dtype=bool)
    expected[members] = True
    mask = built.to_mask(length)
    assert mask.dtype == bool and np.array_equal(mask, expected)


# ---------------------------------------------------------------------- #
# the flat-offset scatter
# ---------------------------------------------------------------------- #


def _coords_scatter(region: Region, values, fill, dtype) -> np.ndarray:
    """The path ``to_mask`` / ``to_array`` used to take."""
    out = np.full(region.grid.shape, fill, dtype=dtype)
    out[tuple(region.coords().T)] = values
    return out


@pytest.mark.parametrize("curve", ["hilbert", "morton", "rowmajor"])
@pytest.mark.parametrize(
    "shape", [(8, 8, 8), (5, 7, 3), (64, 64, 32), (16, 16), (9, 4), (1, 1, 1)]
)
def test_dense_forms_equal_the_coords_scatter(shape, curve, rng):
    occupied = rng.random(shape) < 0.3
    occupied.flat[0] = True
    region = Region.from_mask(occupied, curve=curve)
    assert np.array_equal(region.to_mask(), occupied)
    assert np.array_equal(region.to_mask(), _coords_scatter(region, True, False, bool))
    values = rng.integers(1, 1 << 16, region.voxel_count).astype(np.uint16)
    dense = DataRegion(region, values).to_array(fill=7)
    assert dense.dtype == np.uint16 and dense.shape == shape
    assert np.array_equal(dense, _coords_scatter(region, values, 7, np.uint16))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_offsets_equal_raveled_coords(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    grid = GridSpec(shape)
    curve = curve_for_grid(grid, data.draw(st.sampled_from(["hilbert", "morton", "rowmajor"])))
    cells = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=30))
    coords = np.stack(np.unravel_index(np.asarray(cells), shape), axis=1)
    region = Region.from_coords(coords, grid, curve)
    expected = np.ravel_multi_index(tuple(region.coords().T), shape)
    assert np.array_equal(region.offsets(), expected)


@pytest.mark.parametrize("curve_class", [HilbertCurve, MortonCurve])
def test_scatter_on_a_curve_too_long_for_tables(curve_class, rng):
    grid = GridSpec((2048, 1500))
    curve = curve_class(2, grid.bits)
    assert curve.length > TABLE_MAX_LENGTH
    coords = np.stack([rng.integers(0, 2048, 500), rng.integers(0, 1500, 500)], axis=1)
    region = Region.from_coords(coords, grid, curve)
    expected = np.zeros(grid.shape, dtype=bool)
    expected[tuple(coords.T)] = True
    assert np.array_equal(region.to_mask(), expected)
    values = np.arange(region.voxel_count, dtype=np.float32)
    assert np.array_equal(DataRegion(region, values).to_array(),
                          _coords_scatter(region, values, 0, np.float32))


@pytest.mark.parametrize("side", [8, 2048])  # tabulated and table-less curves
def test_positions_outside_an_embedded_grid_are_refused(side):
    grid = GridSpec((side, side - 3))
    region = Region(IntervalSet.full(side * side), grid)  # the whole cube
    with pytest.raises(ValidationError, match="outside a grid"):
        region.to_mask()


def test_rendering_transforms_no_coordinates(monkeypatch, sphere_region):
    data = DataRegion(sphere_region, np.ones(sphere_region.voxel_count, dtype=np.uint8))

    def refuse(self, *args):
        raise AssertionError("a dense form went through the coordinate tables")

    monkeypatch.setattr(HilbertCurve, "coords", refuse)
    monkeypatch.setattr(HilbertCurve, "index", refuse)
    assert sphere_region.to_mask().sum() == data.to_array().sum() == sphere_region.voxel_count
    render.render_mip(data)
    render.render_textured_surface(sphere_region, data)


# ---------------------------------------------------------------------- #
# project, then convert
# ---------------------------------------------------------------------- #


def _convert_first(function, data: DataRegion, *args, **kwargs):
    """Render from float64 values: what converting the volume first did."""
    converted = DataRegion(data.region, data.values.astype(np.float64))
    if function is render.render_textured_surface:
        return function(data.region, converted, *args, **kwargs)
    return function(converted, *args, **kwargs)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
@pytest.mark.parametrize("shape", [(16, 16, 16), (5, 7, 3)])
def test_renderers_are_bit_identical_to_convert_first(shape, dtype, rng):
    region = Region.from_mask(rng.random(shape) < 0.4)
    if dtype is np.float32:
        values = rng.normal(0.0, 1e3, region.voxel_count).astype(dtype)
    else:
        values = rng.integers(0, np.iinfo(dtype).max, region.voxel_count,
                              endpoint=True).astype(dtype)
    data = DataRegion(region, values)
    for axis in range(3):
        for function, args in ((render.render_mip, ()), (render.render_slice, ()),
                               (render.render_slice, (0,))):
            image = function(data, axis, *args)
            assert image.dtype == np.float64
            assert np.array_equal(image, _convert_first(function, data, axis, *args))
        image = render.render_textured_surface(region, data, axis)
        assert image.dtype == np.float64
        assert np.array_equal(
            image, _convert_first(render.render_textured_surface, data, axis))


# ---------------------------------------------------------------------- #
# payloads: typed errors only, one header resolved once
# ---------------------------------------------------------------------- #


def _header(curve=b"hilbert", codec=b"naive", ndim=3, bits=3, shape=(8, 8, 8),
            magic=b"RGN1") -> bytes:
    return (struct.pack("<4s8s8sBB2x", magic, curve, codec, ndim, bits)
            + struct.pack(f"<{len(shape)}I", *shape))


_RUNS = np.asarray([[1, 3], [7, 7], [20, 40]], dtype="<u4").tobytes()


def _malformed_regions():
    good = _header() + _RUNS
    assert Region.from_bytes(good).voxel_count == 25
    for cut in range(len(_header())):  # every offset inside the header
        yield f"cut at {cut}", good[:cut]
    yield "bad magic", _header(magic=b"RGN2") + _RUNS
    yield "ndim 0", _header(ndim=0, shape=()) + _RUNS
    yield "ndim beyond the payload", _header(ndim=200) + _RUNS
    yield "ndim disagrees with the curve", _header(ndim=2, shape=(8, 8)) + b"\xff" * 8
    yield "bits 0", _header(bits=0) + _RUNS
    yield "bits too few for the shape", _header(bits=2) + _RUNS
    yield "bits overflow", _header(bits=40) + _RUNS
    yield "zero extent", _header(shape=(8, 0, 8)) + _RUNS
    yield "unknown curve", _header(curve=b"peano") + _RUNS
    yield "unknown codec", _header(codec=b"lzw") + _RUNS
    yield "non-ASCII curve", _header(curve=b"hilb\xe9rt") + _RUNS
    yield "non-ASCII codec", _header(codec=b"na\xefve") + _RUNS
    yield "odd naive tail", good + b"\0\0\0"
    yield "odd octant tail", _header(codec=b"octant") + b"\0\0\0\0\0"
    yield "elias without a count", _header(codec=b"elias") + b"\1"
    yield "elias cut short", _header(codec=b"elias") + struct.pack("<I", 9) + b"\x01"
    yield "runs past the curve", _header() + np.asarray([[0, 600]], dtype="<u4").tobytes()
    yield "runs backwards", _header() + np.asarray([[9, 3]], dtype="<u4").tobytes()


@pytest.mark.parametrize("label,payload", list(_malformed_regions()),
                         ids=[label for label, _ in _malformed_regions()])
def test_malformed_region_payloads_end_in_typed_errors(label, payload):
    with pytest.raises((CodecError, ValidationError)):
        Region.from_bytes(payload)
    # the same bytes as the REGION of a DATA_REGION
    wrapped = struct.pack("<4s2sQ", b"DRG1", b"u1", len(payload)) + payload
    with pytest.raises((CodecError, ValidationError)):
        DataRegion.from_bytes(wrapped)


def test_malformed_data_region_payloads_end_in_typed_errors(sphere_region):
    data = DataRegion(sphere_region, np.arange(sphere_region.voxel_count, dtype=np.uint16))
    good = data.to_bytes()
    assert DataRegion.from_bytes(good) == data
    region_len = len(sphere_region.to_bytes("naive"))
    corpus = [good[:cut] for cut in range(0, 14 + region_len + 8)]
    corpus += [good[:-1], good + b"\0", good + b"\0\0\0"]  # odd values tails
    corpus += [b"DRG2" + good[4:], good[:4] + b"\xff\xfe" + good[6:],
               good[:4] + b"i8" + good[6:],
               good[:6] + struct.pack("<Q", 1 << 40) + good[14:]]
    for payload in corpus:
        with pytest.raises((CodecError, ValidationError)):
            DataRegion.from_bytes(payload)


def test_one_header_is_resolved_once():
    a = Region.from_bytes(_header() + _RUNS)
    b = Region.from_bytes(_header() + _RUNS[:8])
    assert a.grid is b.grid and a.curve is b.curve
    other = Region.from_bytes(_header(bits=4, shape=(8, 8, 9)) + _RUNS)
    assert other.grid is not a.grid and other.curve is not a.curve
    assert other.grid.shape == (8, 8, 9) and other.curve.bits == 4
    assert Region.from_bytes(a.to_bytes("elias")) == a  # another header, the same region


def test_header_memo_is_bounded():
    from repro.regions import region as region_module

    for side in range(1, 2 * region_module._RESOLVED_MAX):
        assert Region.from_bytes(_header(bits=12, shape=(side, 1, 1)) + _RUNS[:8]).grid.shape[0] == side
        assert len(region_module._RESOLVED) <= region_module._RESOLVED_MAX


# ---------------------------------------------------------------------- #
# on the paper's queries
# ---------------------------------------------------------------------- #


def test_paper_round_sorts_only_what_needs_sorting(demo_system: QbismSystem, monkeypatch):
    study = demo_system.pet_study_ids[0]

    def paper_round():
        demo_system.query_full_study(study)
        demo_system.query_structure(study, "ntal1")
        demo_system.query_mixed(study, "ntal1", 224, 255)
        for encoding in ("hilbert-naive", "z-naive", "octant"):
            demo_system.multi_study_band(demo_system.pet_study_ids, 224, 255, encoding)

    paper_round()  # warm: tables built, statements compiled
    needless = []

    def watched(starts, stops):
        out = _canonicalize(starts, stops)
        if np.array_equal(out[0], starts) and np.array_equal(out[1], stops):
            needless.append(len(starts))
        return out

    monkeypatch.setattr(intervals_module, "_canonicalize", watched)
    paper_round()
    assert not needless


def test_query_decodes_its_payload_once(demo_system: QbismSystem, monkeypatch):
    decoded = []
    original = DataRegion.from_bytes.__func__

    def counting(cls, payload):
        decoded.append(len(payload))
        return original(cls, payload)

    monkeypatch.setattr(data_region_module.DataRegion, "from_bytes", classmethod(counting))
    study = demo_system.pet_study_ids[0]
    result = demo_system.server.execute(QuerySpec(study_id=study, structures=("ntal1",)))
    assert not decoded  # nothing asked for .data yet
    assert result.data is result.data and len(decoded) == 1
    assert result.data.to_bytes() == result.payload

    del decoded[:]
    outcome = demo_system.query_structure(study, "ntal1")
    assert len(decoded) == 1  # ImportVolume's; the timing row reads that object
    assert outcome.timing.voxels == outcome.data.voxel_count == result.data.voxel_count
    assert outcome.timing.runs == result.data.region.run_count

    del decoded[:]
    filtered = demo_system.server.execute(
        QuerySpec(study_id=study, structures=("ntal1",), intensity_range=(100, 180)))
    assert filtered.post_filtered and len(decoded) == 1
    assert filtered.data.to_bytes() == filtered.payload and len(decoded) == 1
