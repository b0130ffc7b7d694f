"""Grid geometry and the space-filling-curve interface.

A :class:`GridSpec` describes the regular cubic sampling grid of §3.1 of the
paper (e.g. a 128x128x128 atlas space).  A :class:`SpaceFillingCurve` is a
bijection between grid coordinates and positions on a 1-D curve; QBISM uses
it to linearize VOLUMEs (store intensities in curve order) and REGIONs
(store runs of consecutive curve positions).

All conversions are vectorized: coordinates are ``(n, ndim)`` integer arrays
and curve indices are ``(n,)`` ``int64`` arrays.

A conversion is one gather through a per-curve table.  Each subclass
supplies the two bit-loop *kernels*; the first transform on a
``(class, ndim, bits)`` runs the ``coords`` kernel once over the whole cube
and keeps the result as :class:`CurveTables` (timings in
:mod:`repro.curves.hilbert`).  Curves longer than :data:`TABLE_MAX_LENGTH`
run the kernel on every call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import GridMismatchError, ValidationError

__all__ = ["GridSpec", "SpaceFillingCurve", "CurveTables", "TABLE_MAX_LENGTH", "integer_array",
           "stack_shape"]

#: Longest curve answered from a table: the paper's 128^3 atlas (22 MB of
#: tables).  A constant, not an option: the choice follows from the curve's
#: own length, and a 256^3 set would pin 176 MB for every curve touched.
TABLE_MAX_LENGTH = 1 << 21


@dataclass(frozen=True)
class GridSpec:
    """A regular grid of voxels, the sampling lattice of a scalar field.

    Parameters
    ----------
    shape:
        Number of voxels along each axis, e.g. ``(128, 128, 128)``.  Axes are
        indexed ``(x, y, z, ...)`` in that order.
    origin:
        Real-world coordinate of the center of voxel ``(0, 0, 0)``, in
        millimetres.  Only used by the medical layer for annotation.
    spacing:
        Real-world size of a voxel along each axis, in millimetres.
    """

    shape: tuple[int, ...]
    origin: tuple[float, ...] = field(default=())
    spacing: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValidationError("grid shape must have at least one axis")
        if any(int(s) <= 0 for s in self.shape):
            raise ValidationError(f"grid shape must be positive, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if not self.origin:
            object.__setattr__(self, "origin", (0.0,) * self.ndim)
        if not self.spacing:
            object.__setattr__(self, "spacing", (1.0,) * self.ndim)
        if len(self.origin) != self.ndim or len(self.spacing) != self.ndim:
            raise ValidationError("origin and spacing must match the grid dimensionality")

    @property
    def ndim(self) -> int:
        """Number of spatial dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total number of voxels in the grid."""
        return int(np.prod([int(s) for s in self.shape], dtype=object))

    @property
    def bits(self) -> int:
        """Bits per axis of the smallest enclosing power-of-two cube.

        Space-filling curves are defined on ``2^bits`` cubes; a grid that is
        not a power-of-two cube is embedded in the smallest one that contains
        it (positions outside the grid are simply never produced).  Never
        below 1: a single-voxel grid sits in the 2-cube.
        """
        return max(1, *(int(s - 1).bit_length() for s in self.shape))

    @property
    def is_cube(self) -> bool:
        """True when all axes have equal, power-of-two extent."""
        side = self.shape[0]
        return all(s == side for s in self.shape) and side == 1 << self.bits

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized bounds test: ``coords`` is ``(n, ndim)``; returns ``(n,)`` bool."""
        coords = np.asarray(coords)
        shape = np.asarray(self.shape)
        return np.all((coords >= 0) & (coords < shape), axis=-1)

    def require_same(self, other: "GridSpec") -> None:
        """Raise :class:`GridMismatchError` unless ``other`` has the same shape."""
        if self.shape != other.shape:
            raise GridMismatchError(
                f"grids are incompatible: {self.shape} vs {other.shape}"
            )

    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """Convert real-world mm coordinates to (fractional) voxel coordinates."""
        points = np.asarray(points, dtype=np.float64)
        return (points - np.asarray(self.origin)) / np.asarray(self.spacing)

    def voxel_to_world(self, coords: np.ndarray) -> np.ndarray:
        """Convert voxel coordinates to real-world mm coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        return coords * np.asarray(self.spacing) + np.asarray(self.origin)


class CurveTables(NamedTuple):
    """One curve over its whole cube, read-only.

    Stored in the narrowest unsigned dtypes that fit (2.8 MB at 64^3).
    """

    #: ``(length, ndim)``: the coordinates of each curve position
    coords_of: np.ndarray
    #: ``(length,)``: the curve position of each C-order cube offset
    position_of: np.ndarray
    #: ``(length,)``: the C-order cube offset of each curve position
    offset_of: np.ndarray


#: (curve class, ndim, bits) -> tables.  Entries are immutable and published
#: with ``dict.setdefault``: threads racing the first use may each run the
#: kernel, but every one of them keeps the pair that landed, so no lock.
_TABLES: dict[tuple[type, int, int], CurveTables] = {}

#: (curve class, ndim, bits, first axis > 0) -> the offset of each curve
#: position's voxel in a stack of the cube, in ``offset_of``'s dtype.
#: Built on first use and published like :data:`_TABLES`.
_STACKS: dict[tuple[type, int, int, int], np.ndarray] = {}


def stack_shape(shape: tuple[int, ...], first_axis: int) -> tuple[int, ...]:
    """``shape`` with axis ``first_axis`` moved to the front: the shape of a
    *stack*, a dense array laid out for a projection along that axis."""
    if not 0 <= first_axis < len(shape):
        raise ValidationError(f"axis {first_axis} out of range for {len(shape)}-D data")
    return (shape[first_axis], *shape[:first_axis], *shape[first_axis + 1:])


def integer_array(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as C-contiguous int64; non-integer input is an error, not truncated."""
    try:
        values = np.asarray(values)
    except ValueError as exc:  # ragged nested sequences
        raise ValidationError(f"{what} must form a regular integer array: {exc}") from None
    if values.size and values.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got dtype {values.dtype}")
    return np.ascontiguousarray(values, dtype=np.int64)


class SpaceFillingCurve(ABC):
    """A bijection between grid coordinates and 1-D curve positions.

    Subclasses implement the two directions as kernels over a whole batch
    of points; :meth:`index` and :meth:`coords` answer from the tables the
    ``coords`` kernel builds.  A curve instance is bound to a dimensionality
    and a bit depth so instances can be compared for compatibility (two
    REGIONs can only be intersected when their runs live on the same curve).
    """

    #: short name used in reports and codec headers, e.g. ``"hilbert"``
    name: str = "abstract"

    def __init__(self, ndim: int, bits: int):
        if ndim < 1:
            raise ValidationError("curve dimensionality must be >= 1")
        if bits < 1:
            raise ValidationError("curve bit depth must be >= 1")
        if ndim * bits > 62:
            raise ValidationError(
                f"curve index would overflow int64: ndim={ndim} bits={bits}"
            )
        self.ndim = int(ndim)
        self.bits = int(bits)

    @property
    def length(self) -> int:
        """Number of positions on the curve (``2^(ndim*bits)``)."""
        return 1 << (self.ndim * self.bits)

    @property
    def side(self) -> int:
        """Extent of the cube along each axis (``2^bits``)."""
        return 1 << self.bits

    @abstractmethod
    def _index_kernel(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`index` by bit manipulation, for validated ``(n, ndim)`` int64 input."""

    @abstractmethod
    def _coords_kernel(self, index: np.ndarray) -> np.ndarray:
        """:meth:`coords` by bit manipulation, for validated ``(n,)`` int64 input."""

    def tables(self) -> CurveTables:
        """The curve over its whole cube: one ``coords`` kernel pass.

        Shared by every instance of this ``(class, ndim, bits)`` up to
        :data:`TABLE_MAX_LENGTH`; a longer curve gets a fresh set per call.
        """
        key = (type(self), self.ndim, self.bits)
        tables = _TABLES.get(key)
        if tables is None:
            positions = np.arange(self.length, dtype=np.int64)
            coords = self._coords_kernel(positions)
            coords_of = coords.astype(np.min_scalar_type(self.side - 1))
            offset_of = self._cube_offsets(coords).astype(np.min_scalar_type(self.length - 1))
            position_of = np.empty_like(offset_of)
            position_of[offset_of] = positions
            tables = CurveTables(coords_of, position_of, offset_of)
            for table in tables:
                table.setflags(write=False)
            if self.length <= TABLE_MAX_LENGTH:
                tables = _TABLES.setdefault(key, tables)
        return tables

    def _cube_offsets(self, coords: np.ndarray) -> np.ndarray:
        """C-order offsets in the ``side^ndim`` cube of ``(n, ndim)`` int64 coordinates."""
        offsets = coords[:, 0]
        for axis in range(1, self.ndim):
            offsets = (offsets << self.bits) | coords[:, axis]
        return offsets

    def index(self, coords: np.ndarray) -> np.ndarray:
        """Map ``(n, ndim)`` integer coordinates to ``(n,)`` int64 curve positions."""
        coords = self._validate_coords(coords)
        if self.length > TABLE_MAX_LENGTH:
            return self._index_kernel(coords)
        return np.take(self.tables().position_of, self._cube_offsets(coords)).astype(np.int64)

    def box_positions(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The positions of the voxels of the half-open box ``[lower,
        upper)``, corners in range: a slice of the position table, or the
        ``index`` kernel over the box's voxels past :data:`TABLE_MAX_LENGTH`."""
        if self.length <= TABLE_MAX_LENGTH:
            cube = self.tables().position_of.reshape((self.side,) * self.ndim)
            return cube[tuple(map(slice, lower, upper))].ravel()
        mesh = np.meshgrid(*map(np.arange, lower, upper), indexing="ij")
        return self._index_kernel(np.stack([axis.ravel() for axis in mesh], axis=1))

    def coords(self, index: np.ndarray) -> np.ndarray:
        """Map ``(n,)`` curve positions back to ``(n, ndim)`` int64 coordinates."""
        index = self._validate_index(index)
        if self.length > TABLE_MAX_LENGTH:
            return self._coords_kernel(index)
        return np.take(self.tables().coords_of, index, axis=0).astype(np.int64)

    def grid_offsets(self, index: np.ndarray | slice, shape: tuple[int, ...],
                     first_axis: int = 0) -> np.ndarray:
        """C-order offsets of the voxels at positions ``index`` (an array,
        or a ``slice`` for one run) into the stack of an array of ``shape``
        whose axis ``first_axis`` comes first (:func:`stack_shape`; axis 0
        is the array itself).

        What a scatter into a dense array needs, as ``np.intp``: numpy casts
        any other index dtype chunk by chunk.  On the curve's own cube it is
        one gather, or a slice.  A position whose voxel lies outside
        ``shape`` is an error.
        """
        stacked = stack_shape(tuple(shape), first_axis)
        if self.length <= TABLE_MAX_LENGTH and stacked == (self.side,) * self.ndim:
            return self._stack_offsets(first_axis)[index].astype(np.intp)
        if isinstance(index, slice):
            index = np.arange(index.start, index.stop)
        # A grid embedded in the cube has its own strides: re-ravel.
        axes = list(self._axes(index))
        axes.insert(0, axes.pop(first_axis))
        try:
            return np.ravel_multi_index(tuple(axes), stacked)
        except ValueError:
            raise ValidationError(f"curve positions fall outside a grid of shape {shape}") from None

    def _stack_offsets(self, first_axis: int) -> np.ndarray:
        """``offset_of`` with the bit field of axis ``first_axis`` moved to the top."""
        offset_of = self.tables().offset_of
        if first_axis == 0:
            return offset_of
        key = (type(self), self.ndim, self.bits, first_axis)
        stack = _STACKS.get(key)
        if stack is None:
            below = self.bits * (self.ndim - 1 - first_axis)  # the later axes' bits
            axis = (offset_of >> below) & (self.side - 1)
            stack = ((axis << (self.bits * (self.ndim - 1))) | (offset_of & ((1 << below) - 1))
                     | (offset_of >> (below + self.bits) << below))
            stack.setflags(write=False)
            stack = _STACKS.setdefault(key, stack)
        return stack

    def _axes(self, index: np.ndarray):
        """Per axis, the coordinates of the voxels at the (valid) positions
        ``index``, split from the cube offsets in their narrow dtype."""
        if self.length > TABLE_MAX_LENGTH:
            return self._coords_kernel(np.asarray(index, dtype=np.int64)).T
        offsets = np.take(self.tables().offset_of, index)
        shifts = range(self.bits * (self.ndim - 1), -1, -self.bits)
        return [(offsets >> shift) & (self.side - 1) for shift in shifts]

    def bounding_box(self, index: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Tight half-open box ``(lower, upper)`` around the voxels at the
        (valid, at least one) positions ``index``."""
        axes = self._axes(index)
        return (tuple(int(axis.min()) for axis in axes),
                tuple(int(axis.max()) + 1 for axis in axes))

    def reindex(self, index: np.ndarray, target: "SpaceFillingCurve") -> np.ndarray:
        """The positions along ``target`` of the voxels at the (valid)
        positions ``index`` along this curve.  Curves over one cube meet at
        the cube offset: two gathers, no coordinates, nothing re-validated."""
        if (self.length > TABLE_MAX_LENGTH
                or (target.ndim, target.bits) != (self.ndim, self.bits)):
            return target.index(self.coords(index))
        return np.take(target.tables().position_of,
                       np.take(self.tables().offset_of, index))

    def index_point(self, *coords: int) -> int:
        """Scalar convenience wrapper around :meth:`index`."""
        return int(self.index([coords])[0])

    def coords_point(self, index: int) -> tuple[int, ...]:
        """Scalar convenience wrapper around :meth:`coords`."""
        return tuple(int(c) for c in self.coords([index])[0])

    def _validate_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = integer_array(coords, "coordinates")
        if coords.ndim != 2 or coords.shape[1] != self.ndim:
            raise ValidationError(
                f"expected (n, {self.ndim}) coordinate array, got shape {coords.shape}"
            )
        if coords.size and (coords.min() < 0 or coords.max() >= self.side):
            raise ValidationError(
                f"coordinates out of range for a {self.side}^{self.ndim} cube"
            )
        return coords

    def _validate_index(self, index: np.ndarray) -> np.ndarray:
        index = integer_array(index, "curve positions")
        if index.ndim != 1:
            raise ValidationError(f"expected 1-D index array, got shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= self.length):
            raise ValidationError(f"curve positions out of range [0, {self.length})")
        return index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpaceFillingCurve)
            and self.name == other.name
            and self.ndim == other.ndim
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.name, self.ndim, self.bits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ndim={self.ndim}, bits={self.bits})"
