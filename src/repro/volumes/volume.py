"""The VOLUME spatial data type (§3.1 / §4.1 of the paper).

A :class:`Volume` is a 3-D scalar field sampled on a complete, regular,
cubic grid, stored as a flat array of intensity values sorted in curve
order (Hilbert by default) — the positions are implied by the ordering.
Storing in Hilbert order keeps spatially close voxels close on disk, which
is what makes run-based extraction I/O-efficient.

Serialization (:meth:`Volume.to_bytes`) produces the long-field layout the
DBMS stores: a small self-describing header followed by the raw values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.curves import GridSpec, SpaceFillingCurve, curve_for_grid
from repro.errors import CodecError, CurveMismatchError, GridMismatchError, ValidationError
from repro.regions import Region, concat_ranges
from repro.regions.intervals import IntervalSet
from repro.volumes.data_region import DataRegion, dtype_code, dtype_of

__all__ = ["Volume", "VolumeHeader", "VOLUME_MAGIC"]

VOLUME_MAGIC = b"VOL1"
# magic, curve, ndim, bits, dtype code, byte offset of the value array
_HEADER = struct.Struct("<4s8sBB2sI")


@dataclass(frozen=True)
class VolumeHeader:
    """Decoded serialization header of a VOLUME long field."""

    grid: GridSpec
    curve: SpaceFillingCurve
    dtype: np.dtype
    data_offset: int

    @property
    def itemsize(self) -> int:
        """Bytes per voxel."""
        return int(np.dtype(self.dtype).itemsize)

    def value_byte_ranges(self, intervals: IntervalSet) -> tuple[np.ndarray, np.ndarray]:
        """Byte ranges (relative to the long field) holding a region's values.

        This is what lets the LFM read *only* the pages containing the
        requested voxels — the early-filtering mechanism of §6.
        """
        starts = self.data_offset + intervals.starts * self.itemsize
        stops = self.data_offset + intervals.stops * self.itemsize
        return starts, stops


def cube_curve(grid: GridSpec, curve: SpaceFillingCurve | str | None) -> SpaceFillingCurve:
    """The curve a field on ``grid`` is stored along; the grid must be its whole cube."""
    if not grid.is_cube:
        raise GridMismatchError(
            f"VOLUMEs require a cubic power-of-two grid, got {grid.shape}; "
            "keep raw studies in scanline arrays and warp them first"
        )
    if isinstance(curve, str) or curve is None:
        return curve_for_grid(grid, curve or "hilbert")
    if curve.ndim != grid.ndim or curve.bits != grid.bits:
        raise CurveMismatchError(f"curve {curve!r} does not cover grid {grid.shape}")
    return curve


class Volume:
    """A curve-ordered scalar field over a cubic power-of-two grid."""

    __slots__ = ("_grid", "_curve", "_values")

    def __init__(self, values: np.ndarray, grid: GridSpec, curve: SpaceFillingCurve | str | None = None):
        curve = cube_curve(grid, curve)
        values = np.ascontiguousarray(values)
        if values.ndim != 1 or values.shape[0] != grid.size:
            raise ValidationError(
                f"expected {grid.size} curve-ordered values, got shape {values.shape}"
            )
        self._grid = grid
        self._curve = curve
        self._values = values
        self._values.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_array(cls, array: np.ndarray, curve: SpaceFillingCurve | str | None = None,
                   grid: GridSpec | None = None) -> "Volume":
        """Reorder a conventional ndim-dimensional array into curve order."""
        array = np.asarray(array)
        if grid is None:
            grid = GridSpec(array.shape)
        elif array.shape != grid.shape:
            raise GridMismatchError(f"array shape {array.shape} != grid {grid.shape}")
        curve = cube_curve(grid, curve)
        values = np.empty(grid.size, dtype=array.dtype)
        values[curve.tables().position_of] = array.ravel()
        return cls(values, grid, curve)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def grid(self) -> GridSpec:
        """The grid the volume lives on."""
        return self._grid

    @property
    def curve(self) -> SpaceFillingCurve:
        """The linearization curve."""
        return self._curve

    @property
    def values(self) -> np.ndarray:
        """All intensities in curve order (read-only view)."""
        return self._values

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._values.dtype

    @property
    def voxel_count(self) -> int:
        """Number of voxels."""
        return self._grid.size

    @property
    def nbytes(self) -> int:
        """Payload size in bytes."""
        return int(self._values.nbytes)

    def to_array(self) -> np.ndarray:
        """Reorder back into a conventional ndim-dimensional array."""
        return self._values[self._curve.tables().position_of].reshape(self._grid.shape)

    # ------------------------------------------------------------------ #
    # probes and extraction (the paper's requirements on VOLUMEs, §4.1)
    # ------------------------------------------------------------------ #

    def value_at(self, *coords: int):
        """Random spatial probe: the intensity at one grid point."""
        idx = self._curve.index_point(*coords)
        return self._values[idx]

    def values_at(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized random probes for ``(n, ndim)`` coordinates."""
        return self._values[self._curve.index(coords)]

    def extract(self, region: Region) -> DataRegion:
        """``EXTRACT_DATA(v, r)``: the intensities of ``v`` inside ``r``.

        Returns a :class:`DataRegion` (the paper's DATA_REGION type): the
        region plus one value per member voxel, in curve order.
        """
        self._grid.require_same(region.grid)
        if region.curve != self._curve:
            raise CurveMismatchError(
                "region and volume are linearized along different curves; "
                "reorder the region first"
            )
        ivs = region.intervals
        gathered = self._values[concat_ranges(ivs.starts, ivs.stops)]
        return DataRegion(region, gathered)

    def full_region(self) -> Region:
        """The REGION covering every voxel (a single run)."""
        return Region(IntervalSet.full(self._curve.length), self._grid, self._curve)

    def extract_all(self) -> DataRegion:
        """The whole study as a DATA_REGION (the paper's Q1)."""
        return DataRegion(self.full_region(), self._values)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def histogram(self, bins: int = 256, value_range: tuple[float, float] | None = None):
        """Intensity histogram ``(counts, edges)`` over the whole volume."""
        return np.histogram(self._values, bins=bins, range=value_range)

    # ------------------------------------------------------------------ #
    # serialization (the long-field representation)
    # ------------------------------------------------------------------ #

    def to_bytes(self, align: int | None = None) -> bytes:
        """Serialize to a self-describing long-field payload.

        With ``align`` (e.g. 4096), the value array starts at that byte
        boundary within the payload.  The study loader stores volumes
        page-aligned so a whole-study read costs exactly
        ``size / page_size`` I/Os, as in the paper's Table 3.
        """
        code = dtype_code(self._values.dtype, "VOLUME")
        data_offset = _HEADER.size
        if align is not None:
            if align <= 0:
                raise ValidationError("align must be positive")
            data_offset = max(align, -(-_HEADER.size // align) * align)
        header = _HEADER.pack(
            VOLUME_MAGIC,
            self._curve.name.encode("ascii").ljust(8, b"\0"),
            self._grid.ndim,
            self._curve.bits,
            code,
            data_offset,
        )
        padding = b"\0" * (data_offset - _HEADER.size)
        return header + padding + self._values.tobytes()

    @classmethod
    def parse_header(cls, data: bytes) -> "VolumeHeader":
        """Decode just the header (enough bytes for one page suffice)."""
        from repro.curves import CURVE_CLASSES

        if len(data) < _HEADER.size or data[:4] != VOLUME_MAGIC:
            raise CodecError("not a serialized VOLUME (bad magic)")
        _, curve_name, ndim, bits, code, data_offset = _HEADER.unpack_from(data)
        curve_name = curve_name.rstrip(b"\0").decode("ascii")
        dtype = dtype_of(code, "VOLUME")
        try:
            curve = CURVE_CLASSES[curve_name](ndim, bits)
        except KeyError:
            raise CodecError(f"serialized VOLUME uses unknown curve {curve_name!r}") from None
        side = 1 << bits
        grid = GridSpec((side,) * ndim)
        return VolumeHeader(grid=grid, curve=curve, dtype=dtype, data_offset=data_offset)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Volume":
        """Deserialize a payload produced by :meth:`to_bytes`."""
        header = cls.parse_header(data)
        values = np.frombuffer(data, dtype=header.dtype, offset=header.data_offset)
        if values.size != header.grid.size:
            raise CodecError(
                f"VOLUME payload holds {values.size} values, expected {header.grid.size}"
            )
        return cls(values, header.grid, header.curve)

    @staticmethod
    def header_size() -> int:
        """Bytes of the compact (unaligned) header."""
        return _HEADER.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self._grid.shape == other._grid.shape
            and self._curve == other._curve
            and self._values.dtype == other._values.dtype
            and bool(np.array_equal(self._values, other._values))
        )

    def __hash__(self) -> int:  # pragma: no cover - volumes rarely hashed
        return hash((self._grid.shape, self._curve, self._values.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Volume(grid={self._grid.shape}, curve={self._curve.name}, "
            f"dtype={self._values.dtype}, {self.nbytes} bytes)"
        )
