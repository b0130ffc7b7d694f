"""Unit tests for rendering, surface meshes, and the DX stand-in."""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves import GridSpec
from repro.errors import CodecError
from repro.regions import Region
from repro.viz import (
    DataExplorer,
    TriangleMesh,
    extract_surface_mesh,
    render_mip,
    render_slice,
    render_surface,
    render_textured_surface,
    to_pgm,
)
from repro.viz.render import _normalize
from repro.volumes import DataRegion, Volume
from tests.conftest import ball


@pytest.fixture
def volume(rng):
    return Volume.from_array(rng.integers(0, 256, (16, 16, 16)).astype(np.uint8))


@pytest.fixture
def data_region(volume):
    return volume.extract(ball(volume.grid, (8, 8, 8), 5.0))


def _region_of_kind(kind: str, grid: GridSpec, curve: str) -> Region:
    side = min(grid.shape)
    if kind == "empty":
        return Region.empty(grid, curve)
    if kind == "single":
        return Region.from_coords([[side // 3] * grid.ndim], grid, curve)
    if kind == "full":
        return Region.full(grid, curve)
    lower = Region.from_box(grid, (1,) * grid.ndim, (side // 2,) * grid.ndim, curve)
    upper = Region.from_box(grid, (side // 3,) * grid.ndim, (side - 1,) * grid.ndim, curve)
    return lower | upper | Region.from_coords([[side - 1] + [0] * (grid.ndim - 1)], grid, curve)


def _values_of_kind(kind: str, count: int, rng) -> np.ndarray:
    if kind == "u1":
        return rng.integers(0, 256, count).astype(np.uint8)
    if kind == "u2":
        return rng.integers(0, 1 << 16, count).astype(np.uint16)
    values = rng.standard_normal(count).astype(np.float32)
    return -np.abs(values) - np.float32(0.5) if kind == "f4-negative" else values


class TestMipOracle:
    """``render_mip`` against the projection of a dense array scattered
    voxel by voxel from the region's coordinates, not through any offset
    table: the images must agree bit for bit."""

    @pytest.mark.parametrize("shape", [(16, 16, 16), (64, 64, 64), (16, 16), (5, 7, 3)])
    @pytest.mark.parametrize("curve", ["hilbert", "morton"])
    @pytest.mark.parametrize("values", ["u1", "u2", "f4", "f4-negative"])
    @pytest.mark.parametrize("kind", ["empty", "single", "full", "boxes"])
    def test_mip_equals_the_dense_projection(self, shape, curve, values, kind, rng):
        grid = GridSpec(shape)
        region = _region_of_kind(kind, grid, curve)
        data = DataRegion(region, _values_of_kind(values, region.voxel_count, rng))
        dense = np.zeros(shape, dtype=data.dtype)
        dense[tuple(region.coords().T)] = data.values
        for axis in range(grid.ndim):
            image = render_mip(data, axis=axis)
            expected = _normalize(dense.max(axis=axis))
            assert image.dtype == expected.dtype
            assert image.tobytes() == expected.tobytes(), (axis, kind)


class TestRendering:
    def test_mip_shape_and_range(self, data_region):
        image = render_mip(data_region, axis=2)
        assert image.shape == (16, 16)
        assert 0.0 <= image.min() and image.max() <= 1.0

    def test_mip_zero_outside_region(self, data_region):
        image = render_mip(data_region, axis=2)
        assert image[0, 0] == 0.0  # corner rays never hit the sphere

    def test_mip_axis_selection(self, data_region):
        for axis in range(3):
            assert render_mip(data_region, axis=axis).shape == (16, 16)

    def test_mip_invalid_axis(self, data_region):
        with pytest.raises(ValueError):
            render_mip(data_region, axis=3)

    def test_slice_default_is_middle(self, data_region, volume):
        image = render_slice(data_region, axis=2)
        dense = data_region.to_array()
        expected = dense[:, :, 8].astype(float)
        if expected.max() > expected.min():
            expected = (expected - expected.min()) / (expected.max() - expected.min())
        assert np.allclose(image, expected)

    def test_slice_index_validation(self, data_region):
        with pytest.raises(ValueError):
            render_slice(data_region, axis=0, index=99)

    def test_surface_depth_shading(self, grid3):
        region = Region.from_box(grid3, (4, 4, 2), (12, 12, 10))
        image = render_surface(region, axis=2)
        # Rays hitting the box get brightness 1 - 2/16; misses are 0.
        assert image[8, 8] == pytest.approx(1.0 - 2 / 16)
        assert image[0, 0] == 0.0

    def test_textured_surface_uses_data(self, volume, grid3):
        region = Region.from_box(grid3, (4, 4, 2), (12, 12, 10))
        data = volume.extract(region)
        image = render_textured_surface(region, data, axis=2)
        assert image.shape == (16, 16)
        assert image.max() <= 1.0

    def test_pgm_export(self, tmp_path, data_region):
        image = render_mip(data_region)
        path = to_pgm(image, tmp_path / "out.pgm")
        content = path.read_bytes()
        assert content.startswith(b"P5\n16 16\n255\n")
        assert len(content) == len(b"P5\n16 16\n255\n") + 256

    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            to_pgm(np.zeros((4, 4, 4)), tmp_path / "bad.pgm")


class TestMesh:
    def test_cube_mesh_counts(self, grid3):
        region = Region.from_box(grid3, (4, 4, 4), (8, 8, 8))  # a 4^3 cube
        mesh = extract_surface_mesh(region)
        # 6 faces x 16 voxel faces x 2 triangles
        assert mesh.triangle_count == 6 * 16 * 2
        assert mesh.surface_area() == pytest.approx(6 * 16)

    def test_single_voxel(self, grid3):
        region = Region.from_box(grid3, (3, 3, 3), (4, 4, 4))
        mesh = extract_surface_mesh(region)
        assert mesh.vertex_count == 8
        assert mesh.triangle_count == 12

    def test_empty_region(self, grid3):
        mesh = extract_surface_mesh(Region.empty(grid3))
        assert mesh.triangle_count == 0

    def test_interior_voxels_contribute_nothing(self, grid3):
        solid = Region.from_box(grid3, (2, 2, 2), (10, 10, 10))
        hollow_area = extract_surface_mesh(solid).surface_area()
        assert hollow_area == pytest.approx(6 * 8 * 8)

    def test_serialization_roundtrip(self, grid3):
        mesh = extract_surface_mesh(ball(grid3, (8, 8, 8), 4.0))
        back = TriangleMesh.from_bytes(mesh.to_bytes())
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            TriangleMesh.from_bytes(b"XXXX" + bytes(8))

    def test_requires_3d(self, grid2):
        with pytest.raises(ValueError):
            extract_surface_mesh(Region.full(grid2))


class TestDataExplorer:
    def test_import_volume(self, data_region):
        dx = DataExplorer()
        obj = dx.import_volume(data_region.to_bytes())
        assert obj.voxel_count == data_region.voxel_count
        assert obj.import_cpu_seconds > 0
        assert dx.imports == 1

    def test_cache_hit(self, data_region):
        dx = DataExplorer()
        payload = data_region.to_bytes()
        first = dx.import_volume(payload, cache_key="q1")
        second = dx.import_volume(payload, cache_key="q1")
        assert second is first
        assert dx.imports == 1
        assert dx.cache_hits == 1

    def test_flush_cache(self, data_region):
        dx = DataExplorer()
        dx.import_volume(data_region.to_bytes(), cache_key="q1")
        dx.flush_cache()
        assert dx.cache_size == 0
        dx.import_volume(data_region.to_bytes(), cache_key="q1")
        assert dx.imports == 2

    @pytest.mark.parametrize("mode", ["mip", "slice", "surface", "textured"])
    def test_render_modes(self, data_region, mode):
        dx = DataExplorer()
        obj = dx.import_volume(data_region.to_bytes())
        image, seconds = dx.render(obj, mode=mode)
        assert image.ndim == 2
        assert seconds > dx.cost_model.render_base - 1

    def test_unknown_mode(self, data_region):
        dx = DataExplorer()
        obj = dx.import_volume(data_region.to_bytes())
        with pytest.raises(ValueError):
            dx.render(obj, mode="holographic")
