"""Software rendering of query results.

The paper's DX front end renders "just the anatomical data, just the
intensity data, both together, or a solid-textured mapping of the intensity
data onto the surfaces of the structures" (§5.2, Figure 6).  This module
implements those modes with small orthographic projections over dense
numpy arrays:

* :func:`render_mip` — maximum-intensity projection of a DATA_REGION
* :func:`render_slice` — one axis-aligned cutting plane
* :func:`render_surface` — depth-shaded first-hit surface of a REGION
* :func:`render_textured_surface` — surface shaded by study data (Fig. 6c)

Images are float arrays in [0, 1]; :func:`to_pgm` writes them to disk so
the examples can dump actual pictures.
"""

from __future__ import annotations

from repro.errors import ValidationError

from pathlib import Path

import numpy as np

from repro.regions import Region
from repro.volumes import DataRegion

__all__ = [
    "render_mip",
    "render_slice",
    "render_surface",
    "render_textured_surface",
    "to_pgm",
]


def _normalize(image: np.ndarray) -> np.ndarray:
    image = image.astype(np.float64)
    low, high = float(image.min()), float(image.max())
    if high <= low:
        return np.zeros_like(image)
    return (image - low) / (high - low)


def _check_axis(axis: int, ndim: int) -> None:
    if not 0 <= axis < ndim:
        raise ValidationError(f"axis {axis} out of range for {ndim}-D data")


def render_mip(data: DataRegion, axis: int = 2) -> np.ndarray:
    """Maximum-intensity projection along one axis (the classic PET view)."""
    # Projected in the stored dtype: the conversion in _normalize is exact
    # and monotone, so the maximum of the converted voxels is the converted
    # maximum, and only the image is converted.  The rays run along the
    # leading axis of a stack, which reduces far faster than a trailing one.
    return _normalize(data.to_array(fill=0, first_axis=axis).max(axis=0))


def render_slice(data: DataRegion, axis: int = 2, index: int | None = None) -> np.ndarray:
    """One cutting plane through the data (the DX "cutting plane" module)."""
    grid = data.region.grid
    _check_axis(axis, grid.ndim)
    if index is None:
        index = grid.shape[axis] // 2
    if not 0 <= index < grid.shape[axis]:
        raise ValidationError(f"slice index {index} out of range")
    return _normalize(np.take(data.to_array(fill=0), index, axis=axis))


def render_surface(region: Region, axis: int = 2) -> np.ndarray:
    """Depth-shaded first-hit rendering of a REGION's surface.

    Rays march along ``axis``; the first occupied voxel sets the pixel's
    depth, shaded so nearer surfaces are brighter (Figure 6a).
    """
    grid = region.grid
    _check_axis(axis, grid.ndim)
    mask = region.to_mask()
    depth_size = grid.shape[axis]
    hit = mask.any(axis=axis)
    first = mask.argmax(axis=axis)  # index of first True along the ray
    image = np.zeros(hit.shape, dtype=np.float64)
    # Near surfaces (small first-hit index) render brighter.
    image[hit] = 1.0 - first[hit] / max(depth_size, 1)
    return image


def render_textured_surface(region: Region, data: DataRegion, axis: int = 2) -> np.ndarray:
    """Surface of ``region`` colored by the study values of ``data`` (Fig. 6c).

    Where a ray hits the structure, the pixel takes the data value at the
    hit voxel (0 where the structure has no data there), modulated by a
    mild depth shade so the 3-D shape stays readable.
    """
    grid = region.grid
    _check_axis(axis, grid.ndim)
    mask = region.to_mask()
    hit = mask.any(axis=axis)
    first = mask.argmax(axis=axis)
    texture = np.take_along_axis(
        data.to_array(fill=0), np.expand_dims(first, axis=axis), axis=axis
    ).squeeze(axis=axis).astype(np.float64)
    depth_shade = 0.5 + 0.5 * (1.0 - first / max(grid.shape[axis], 1))
    image = np.zeros(hit.shape, dtype=np.float64)
    image[hit] = texture[hit] * depth_shade[hit]
    return _normalize(image)


def to_pgm(image: np.ndarray, path: str | Path) -> Path:
    """Write a [0, 1] float image as a binary PGM file; returns the path."""
    if image.ndim != 2:
        raise ValidationError("PGM export needs a 2-D image")
    path = Path(path)
    pixels = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = (pixels * 255).astype(np.uint8)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + data.tobytes())
    return path
