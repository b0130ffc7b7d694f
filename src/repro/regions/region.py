"""The REGION spatial data type (§3.1 / §4.2 of the paper).

A :class:`Region` is the spatial extent of an arbitrarily shaped entity —
an anatomical structure, an intensity band, a query box — represented
volumetrically as runs along a space-filling curve over a grid.  It pairs a
curve-agnostic :class:`~repro.regions.intervals.IntervalSet` with the
:class:`~repro.curves.GridSpec` and curve that give the runs spatial
meaning, and enforces that only compatible regions are combined.

Regions serialize to self-describing byte strings (:meth:`Region.to_bytes`)
suitable for storage in a DBMS long field; the encoding scheme is pluggable
(see :mod:`repro.compression.runcodecs`).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

import numpy as np

from repro.curves import GridSpec, SpaceFillingCurve, curve_for_grid
from repro.curves.base import integer_array
from repro.errors import CodecError, CurveMismatchError, ValidationError
from repro.regions.intervals import IntervalSet
from repro.regions.octants import (
    decompose_oblong_octants,
    decompose_octants,
)

__all__ = ["Region", "REGION_MAGIC"]

REGION_MAGIC = b"RGN1"
_HEADER = struct.Struct("<4s8s8sBB2x")  # magic, curve, codec, ndim, bits
_NDIM_AT = 20  # offset of the ndim byte, which sizes the shape that follows

#: header bytes (through the shape) -> (grid, curve, codec), each header
#: validated once.  Published with ``dict.setdefault`` like the curve tables
#: (``repro.curves.base._TABLES``); a full table starts over.
_RESOLVED: dict[bytes, tuple] = {}
_RESOLVED_MAX = 256


def _resolve_curve(grid: GridSpec, curve: SpaceFillingCurve | str | None) -> SpaceFillingCurve:
    if curve is None:
        return curve_for_grid(grid)
    if isinstance(curve, str):
        return curve_for_grid(grid, curve)
    if curve.ndim != grid.ndim or curve.bits < grid.bits:
        raise CurveMismatchError(
            f"curve {curve!r} cannot address a grid of shape {grid.shape}"
        )
    return curve


class Region:
    """A set of voxels on a grid, stored as maximal runs along a curve."""

    __slots__ = ("_intervals", "_grid", "_curve", "_box")

    def __init__(self, intervals: IntervalSet, grid: GridSpec, curve: SpaceFillingCurve | str | None = None):
        self._grid = grid
        self._curve = _resolve_curve(grid, curve)
        if intervals.run_count and intervals.max_index >= self._curve.length:
            raise ValidationError("runs extend past the end of the curve")
        self._intervals = intervals
        self._box = None  #: :meth:`bounding_box`, once computed

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, grid: GridSpec, curve: SpaceFillingCurve | str | None = None) -> "Region":
        """A region with no voxels on the given grid."""
        return cls(IntervalSet.empty(), grid, curve)

    @classmethod
    def full(cls, grid: GridSpec, curve: SpaceFillingCurve | str | None = None) -> "Region":
        """Every voxel of the grid."""
        resolved = _resolve_curve(grid, curve)
        if grid.is_cube:
            return cls(IntervalSet.full(resolved.length), grid, resolved)
        return cls.from_box(grid, (0,) * grid.ndim, grid.shape, resolved)

    @classmethod
    def from_coords(cls, coords: np.ndarray, grid: GridSpec,
                    curve: SpaceFillingCurve | str | None = None) -> "Region":
        """Build from an ``(n, ndim)`` array of voxel coordinates."""
        resolved = _resolve_curve(grid, curve)
        positions = resolved.index(coords)  # rejects non-integer input first
        if not grid.contains(coords).all():
            raise ValidationError("coordinates fall outside the grid")
        return cls(IntervalSet.from_indices(positions), grid, resolved)

    @classmethod
    def from_mask(cls, mask: np.ndarray, grid: GridSpec | None = None,
                  curve: SpaceFillingCurve | str | None = None) -> "Region":
        """Build from an ndim-dimensional boolean occupancy array."""
        mask = np.asarray(mask, dtype=bool)
        if grid is None:
            grid = GridSpec(mask.shape)
        elif mask.shape != grid.shape:
            raise ValidationError(f"mask shape {mask.shape} does not match grid {grid.shape}")
        coords = np.argwhere(mask)
        return cls.from_coords(coords, grid, curve)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]], grid: GridSpec,
                  curve: SpaceFillingCurve | str | None = None) -> "Region":
        """Build from inclusive ``<start, end>`` run pairs (the paper's notation)."""
        return cls(IntervalSet.from_runs(runs), grid, curve)

    @classmethod
    def from_box(cls, grid: GridSpec, lower: tuple[int, ...], upper: tuple[int, ...],
                 curve: SpaceFillingCurve | str | None = None) -> "Region":
        """The half-open axis-aligned box ``[lower, upper)``, clipped to
        the grid; non-integer corners are an error, not truncated."""
        lower, upper = (integer_array(corner, "box corners") for corner in (lower, upper))
        if lower.shape != (grid.ndim,) or upper.shape != (grid.ndim,):
            raise ValidationError("box corners must match the grid dimensionality")
        lower = np.maximum(lower, 0)
        upper = np.minimum(upper, grid.shape)
        if (lower >= upper).any():
            return cls.empty(grid, curve)
        resolved = _resolve_curve(grid, curve)
        positions = resolved.box_positions(lower, upper)
        return cls(IntervalSet.from_indices(positions), grid, resolved)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def intervals(self) -> IntervalSet:
        """The underlying run list on the curve."""
        return self._intervals

    @property
    def grid(self) -> GridSpec:
        """The grid the region lives on."""
        return self._grid

    @property
    def curve(self) -> SpaceFillingCurve:
        """The linearization curve."""
        return self._curve

    @property
    def voxel_count(self) -> int:
        """Number of voxels in the region."""
        return self._intervals.count

    @property
    def run_count(self) -> int:
        """Number of runs in the interval representation."""
        return self._intervals.run_count

    def coords(self) -> np.ndarray:
        """All member voxel coordinates, ``(n, ndim)``, in curve order."""
        return self._curve.coords(self._intervals.indices())

    def offsets(self, first_axis: int = 0) -> np.ndarray:
        """C-order offsets of all member voxels, in curve order, into a
        grid-shaped array stacked along ``first_axis`` (see
        :meth:`~repro.curves.SpaceFillingCurve.grid_offsets`).  One run
        goes as a slice, which on the curve's cube slices a table."""
        runs = self._intervals
        index = (slice(int(runs.starts[0]), int(runs.stops[0])) if runs.run_count == 1
                 else runs.indices())
        return self._curve.grid_offsets(index, self._grid.shape, first_axis)

    def to_mask(self) -> np.ndarray:
        """Render as an ndim-dimensional boolean occupancy array."""
        mask = np.zeros(self._grid.shape, dtype=bool)
        if self.voxel_count:
            mask.reshape(-1)[self.offsets()] = True
        return mask

    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Tight axis-aligned bounding box as ``(lower, upper)`` (half-open).

        Computed once per voxel set — memoized, and :meth:`reorder` hands it
        on: a region's encodings and directory cells read one box.
        """
        if self._box is None:
            if not self.voxel_count:
                raise ValidationError("empty region has no bounding box")
            self._box = self._curve.bounding_box(self._intervals.indices())
        return self._box

    def centroid(self) -> tuple[float, ...]:
        """Mean voxel coordinate."""
        if not self.voxel_count:
            raise ValidationError("empty region has no centroid")
        return tuple(float(v) for v in self.coords().mean(axis=0))

    # ------------------------------------------------------------------ #
    # decompositions
    # ------------------------------------------------------------------ #

    def octants(self) -> tuple[np.ndarray, np.ndarray]:
        """Regular-octant decomposition: ``(ids, ranks)``, rank % ndim == 0."""
        return decompose_octants(self._intervals, self._grid.ndim,
                                 max_rank=self._grid.ndim * self._curve.bits)

    def oblong_octants(self) -> tuple[np.ndarray, np.ndarray]:
        """Oblong-octant (z-element) decomposition: ``(ids, ranks)``."""
        return decompose_oblong_octants(self._intervals,
                                        max_rank=self._grid.ndim * self._curve.bits)

    # ------------------------------------------------------------------ #
    # set algebra (the paper's spatial operators, §3.2)
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "Region") -> None:
        self._grid.require_same(other._grid)
        if self._curve != other._curve:
            raise CurveMismatchError(
                f"regions linearized along different curves: "
                f"{self._curve!r} vs {other._curve!r}"
            )

    def intersection(self, *others: "Region") -> "Region":
        """``INTERSECTION(r1, r2, ...)``: voxels common to all regions."""
        for other in others:
            self._check_compatible(other)
        sets = [self._intervals] + [o._intervals for o in others]
        return Region(IntervalSet.sweep(sets, len(sets)), self._grid, self._curve)

    def union(self, *others: "Region") -> "Region":
        """``UNION(r1, r2, ...)``: voxels in any of the regions."""
        for other in others:
            self._check_compatible(other)
        sets = [self._intervals] + [o._intervals for o in others]
        return Region(IntervalSet.sweep(sets, 1), self._grid, self._curve)

    def difference(self, other: "Region") -> "Region":
        """``DIFFERENCE(r1, r2)``: voxels of this region not in ``other``."""
        self._check_compatible(other)
        return Region(self._intervals.difference(other._intervals), self._grid, self._curve)

    def complement(self) -> "Region":
        """All grid voxels not in this region."""
        return Region.full(self._grid, self._curve).difference(self)

    def contains(self, other: "Region") -> bool:
        """``CONTAINS(r1, r2)``: is ``other`` a spatial subset of ``self``?"""
        self._check_compatible(other)
        return self._intervals.issuperset(other._intervals)

    def isdisjoint(self, other: "Region") -> bool:
        """True when the regions share no voxel."""
        self._check_compatible(other)
        return self._intervals.isdisjoint(other._intervals)

    def contains_points(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized point-in-region test for ``(n, ndim)`` coordinates."""
        coords = np.asarray(coords)
        inside_grid = self._grid.contains(coords)
        result = np.zeros(coords.shape[0], dtype=bool)
        if inside_grid.any():
            idx = self._curve.index(coords[inside_grid])
            result[inside_grid] = self._intervals.contains_indices(idx)
        return result

    def __and__(self, other: "Region") -> "Region":
        return self.intersection(other)

    def __or__(self, other: "Region") -> "Region":
        return self.union(other)

    def __sub__(self, other: "Region") -> "Region":
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return (
            self._grid.shape == other._grid.shape
            and self._curve == other._curve
            and self._intervals == other._intervals
        )

    def __hash__(self) -> int:
        return hash((self._grid.shape, self._curve, self._intervals))

    def __bool__(self) -> bool:
        return bool(self._intervals)

    # ------------------------------------------------------------------ #
    # reordering
    # ------------------------------------------------------------------ #

    def reorder(self, curve: SpaceFillingCurve | str) -> "Region":
        """Re-linearize along a different curve (same voxels, new run list).

        This is how the benchmarks compare h-runs against z-runs for the
        same REGION.  The positions are expanded here anyway, so the
        bounding box — the same along any curve — is taken once, for both.
        """
        target = _resolve_curve(self._grid, curve)
        if target == self._curve:
            return self
        if not self.voxel_count:
            return Region.empty(self._grid, target)
        positions = self._intervals.indices()
        if self._box is None:
            self._box = self._curve.bounding_box(positions)
        moved = IntervalSet.from_indices(self._curve.reindex(positions, target))
        region = Region(moved, self._grid, target)
        region._box = self._box
        return region

    # ------------------------------------------------------------------ #
    # serialization (the long-field representation)
    # ------------------------------------------------------------------ #

    def to_bytes(self, codec: str = "elias") -> bytes:
        """Serialize to a self-describing long-field payload."""
        from repro.compression.runcodecs import get_codec

        payload = get_codec(codec).encode(self._intervals)
        header = _HEADER.pack(
            REGION_MAGIC,
            self._curve.name.encode("ascii").ljust(8, b"\0"),
            codec.encode("ascii").ljust(8, b"\0"),
            self._grid.ndim,
            self._curve.bits,
        )
        shape = struct.pack(f"<{self._grid.ndim}I", *self._grid.shape)
        return header + shape + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Region":
        """Deserialize a payload produced by :meth:`to_bytes`."""
        if len(data) < _HEADER.size or data[:4] != REGION_MAGIC:
            raise CodecError("not a serialized REGION (bad magic)")
        end = _HEADER.size + 4 * data[_NDIM_AT]
        header = bytes(data[:end])
        if len(header) < end:
            raise CodecError("serialized REGION is cut short inside its header")
        grid, curve, codec = _RESOLVED.get(header) or cls._resolve_header(header)
        return cls(codec.decode(data[end:]), grid, curve)

    @staticmethod
    def _resolve_header(header: bytes) -> tuple:
        """Validate one complete header and publish its ``(grid, curve, codec)``."""
        from repro.compression.runcodecs import get_codec
        from repro.curves import CURVE_CLASSES

        _, curve_name, codec_name, ndim, bits = _HEADER.unpack_from(header)
        grid = GridSpec(struct.unpack_from(f"<{ndim}I", header, _HEADER.size))
        try:
            curve = CURVE_CLASSES[curve_name.rstrip(b"\0").decode("ascii")](ndim, bits)
            codec = get_codec(codec_name.rstrip(b"\0").decode("ascii"))
        except (KeyError, UnicodeDecodeError):
            raise CodecError(f"unknown REGION curve or codec: {curve_name!r}, {codec_name!r}") from None
        if bits < grid.bits:
            raise CodecError(f"serialized REGION has {bits}-bit axes, too few for {grid.shape}")
        if len(_RESOLVED) >= _RESOLVED_MAX:
            _RESOLVED.clear()
        return _RESOLVED.setdefault(header, (grid, curve, codec))

    def __repr__(self) -> str:
        return (
            f"Region({self.voxel_count} voxels, {self.run_count} runs, "
            f"grid={self._grid.shape}, curve={self._curve.name})"
        )
