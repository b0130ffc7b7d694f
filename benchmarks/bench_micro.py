"""Micro-benchmarks of the core primitives (pytest-benchmark).

Not a paper table — these keep the implementation honest: curve transforms
over full volumes, n-way run intersections, codec throughput, scattered
LFM reads.  Regressions here would silently inflate every experiment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import BitReader, gamma_decode_array, get_codec
from repro.curves import GridSpec, HilbertCurve, MortonCurve
from repro.regions import IntervalSet
from repro.storage import BlockDevice, LongFieldManager
from repro.volumes import Volume


@pytest.fixture(scope="module")
def coords_64():
    side = 64
    axes = [np.arange(side, dtype=np.int64)] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@pytest.fixture(scope="module")
def big_sets():
    rng = np.random.default_rng(0)
    return [
        IntervalSet.from_indices(np.unique(rng.integers(0, 1 << 21, 200_000)))
        for _ in range(5)
    ]


def test_hilbert_index_262k_points(benchmark, coords_64):
    curve = HilbertCurve(3, 6)
    result = benchmark(curve.index, coords_64)
    assert result.size == coords_64.shape[0]


def test_hilbert_coords_262k_points(benchmark, coords_64):
    curve = HilbertCurve(3, 6)
    idx = np.arange(curve.length, dtype=np.int64)
    result = benchmark(curve.coords, idx)
    assert result.shape[0] == curve.length


def test_morton_index_262k_points(benchmark, coords_64):
    curve = MortonCurve(3, 6)
    assert benchmark(curve.index, coords_64).size == coords_64.shape[0]


def test_hilbert_table_build_64_cubed(benchmark):
    """The kernel over the whole cube: what the first transform on a curve
    pays once, so that the ``index``/``coords`` calls above are gathers."""
    curve = HilbertCurve(3, 6)
    idx = np.arange(curve.length, dtype=np.int64)
    assert benchmark(curve._coords_kernel, idx).shape == (curve.length, 3)


def test_five_way_intersection_1m_runs(benchmark, big_sets):
    result = benchmark(IntervalSet.sweep, big_sets, len(big_sets))
    assert result.count >= 0


def test_union_1m_runs(benchmark, big_sets):
    result = benchmark(IntervalSet.sweep, big_sets, 1)
    assert result.count > 0


def test_elias_encode_100k_runs(benchmark, big_sets):
    codec = get_codec("elias")
    payload = benchmark(codec.encode, big_sets[0])
    assert len(payload) > 0


def test_elias_decode_100k_runs(benchmark, big_sets):
    codec = get_codec("elias")
    payload = codec.encode(big_sets[0])
    result = benchmark(codec.decode, payload)
    assert result == big_sets[0]


def test_gamma_decode_throughput(benchmark):
    rng = np.random.default_rng(1)
    values = rng.integers(1, 1000, 50_000)
    from repro.compression import BitWriter, gamma_encode_array

    w = BitWriter()
    gamma_encode_array(values, w)
    data = w.getvalue()
    out = benchmark(lambda: gamma_decode_array(BitReader(data), values.size))
    assert np.array_equal(out, values)


def test_volume_reorder_2m_voxels(benchmark):
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 256, (128, 128, 128)).astype(np.uint8)
    volume = benchmark(Volume.from_array, arr)
    assert volume.voxel_count == 128**3


def test_lfm_scattered_read(benchmark, big_sets):
    device = BlockDevice(1 << 23)
    lfm = LongFieldManager(device)
    field = lfm.create(bytes(1 << 21))
    s = big_sets[0].clip(0, 1 << 21)
    payload = benchmark(lfm.read_ranges, field, s.starts, s.stops)
    assert len(payload) == s.count
