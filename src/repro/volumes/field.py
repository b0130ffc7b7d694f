"""n-D m-vector fields (§1 of the paper).

The paper notes its techniques "can be extended ... to handle vector fields
by simply storing vectors in place of scalars in the appropriate data
structures".  :class:`VectorField` does exactly that: a curve-ordered field
whose value at each voxel is an m-vector (e.g. wind velocity, or an image
gradient), reusing REGION extraction unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.curves import GridSpec, SpaceFillingCurve
from repro.errors import CurveMismatchError, ValidationError
from repro.regions import Region, concat_ranges
from repro.volumes.volume import Volume, cube_curve

__all__ = ["VectorField", "gradient_field"]


class VectorField:
    """A curve-ordered field of m-dimensional vector samples."""

    __slots__ = ("_grid", "_curve", "_values")

    def __init__(self, values: np.ndarray, grid: GridSpec, curve: SpaceFillingCurve | str | None = None):
        curve = cube_curve(grid, curve)
        values = np.ascontiguousarray(values)
        if values.ndim != 2 or values.shape[0] != grid.size:
            raise ValidationError(
                f"expected ({grid.size}, m) curve-ordered vectors, got {values.shape}"
            )
        self._grid = grid
        self._curve = curve
        self._values = values
        self._values.setflags(write=False)

    @classmethod
    def from_array(cls, array: np.ndarray, curve: SpaceFillingCurve | str | None = None) -> "VectorField":
        """Reorder an ``grid_shape + (m,)`` array into curve order."""
        array = np.asarray(array)
        grid = GridSpec(array.shape[:-1])
        curve = cube_curve(grid, curve)
        values = np.empty((grid.size, array.shape[-1]), dtype=array.dtype)
        values[curve.tables().position_of] = array.reshape(-1, array.shape[-1])
        return cls(values, grid, curve)

    @property
    def grid(self) -> GridSpec:
        """The grid the field lives on."""
        return self._grid

    @property
    def curve(self) -> SpaceFillingCurve:
        """The linearization curve."""
        return self._curve

    @property
    def values(self) -> np.ndarray:
        """The per-voxel vector array."""
        return self._values

    @property
    def vector_dim(self) -> int:
        """m: the dimensionality of each sample."""
        return int(self._values.shape[1])

    def vector_at(self, *coords: int) -> np.ndarray:
        """The m-vector sampled at one grid point."""
        return self._values[self._curve.index_point(*coords)]

    def extract(self, region: Region) -> tuple[Region, np.ndarray]:
        """Vectors inside a region, in curve order: ``(region, (n, m) array)``."""
        self._grid.require_same(region.grid)
        if region.curve != self._curve:
            raise CurveMismatchError("region and field use different curves")
        ivs = region.intervals
        return region, self._values[concat_ranges(ivs.starts, ivs.stops)]

    def magnitude(self) -> Volume:
        """The scalar field of vector magnitudes (shares grid and curve)."""
        mags = np.sqrt((self._values.astype(np.float64) ** 2).sum(axis=1))
        return Volume(mags, self._grid, self._curve)

    def component(self, i: int) -> Volume:
        """One component as a scalar VOLUME."""
        return Volume(np.ascontiguousarray(self._values[:, i]), self._grid, self._curve)

    def __repr__(self) -> str:
        return (
            f"VectorField(grid={self._grid.shape}, m={self.vector_dim}, "
            f"curve={self._curve.name})"
        )


def gradient_field(volume: Volume) -> VectorField:
    """Central-difference gradient of a VOLUME, as a vector field.

    This is one of the DX post-processing steps the paper's UI offers
    ("computing a gradient field", §5.2).
    """
    dense = volume.to_array().astype(np.float64)
    grads = np.gradient(dense)
    stacked = np.stack(grads, axis=-1)
    return VectorField.from_array(stacked, volume.curve)
