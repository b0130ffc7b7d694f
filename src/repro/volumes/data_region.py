"""The DATA_REGION type: a REGION plus the data values at each of its points.

A recent version of the paper's prototype introduced DATA_REGION as the
return type of ``EXTRACT_DATA()`` (§3.2, footnote 6): it carries a REGION
and one value per member voxel.  It is the unit shipped over the network to
the visualization front end, so it also knows how to serialize itself
compactly.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.curves import stack_shape
from repro.errors import CodecError, CurveMismatchError, ValidationError
from repro.regions import Region

__all__ = ["DataRegion", "DATA_REGION_MAGIC"]

DATA_REGION_MAGIC = b"DRG1"
_HEADER = struct.Struct("<4s2sQ")  # magic, dtype code, region byte length
#: header code -> value dtype, for DATA_REGION and VOLUME payloads alike
_DTYPE_CODES = {code: np.dtype(dt) for code, dt in (
    (b"u1", np.uint8), (b"u2", np.uint16), (b"f4", np.float32), (b"f8", np.float64))}


def dtype_code(dtype: np.dtype, what: str) -> bytes:
    """The header code of a value dtype; ``what`` names the payload in the error."""
    for code, known in _DTYPE_CODES.items():
        if known == dtype:
            return code
    supported = b", ".join(_DTYPE_CODES).decode("ascii")
    raise CodecError(f"unsupported {what} dtype {dtype}; supported: {supported}")


def dtype_of(code: bytes, what: str) -> np.dtype:
    """Inverse of :func:`dtype_code` for a code read from a payload."""
    try:
        return _DTYPE_CODES[code]
    except KeyError:
        raise CodecError(f"serialized {what} uses unknown dtype code {code!r}") from None


class DataRegion:
    """Sparse scalar data: values defined exactly on the voxels of a region."""

    __slots__ = ("_region", "_values")

    def __init__(self, region: Region, values: np.ndarray):
        values = np.ascontiguousarray(values)
        if values.ndim != 1 or values.shape[0] != region.voxel_count:
            raise ValidationError(
                f"expected {region.voxel_count} values (one per voxel), "
                f"got shape {values.shape}"
            )
        self._region = region
        self._values = values
        self._values.setflags(write=False)

    @property
    def region(self) -> Region:
        """The geometric region the data covers."""
        return self._region

    @property
    def values(self) -> np.ndarray:
        """Values in curve order of the region's voxels (read-only)."""
        return self._values

    @property
    def voxel_count(self) -> int:
        """Number of voxels."""
        return self._region.voxel_count

    @property
    def dtype(self) -> np.dtype:
        """Element dtype."""
        return self._values.dtype

    @property
    def nbytes(self) -> int:
        """Payload bytes (values only, excluding the region runs)."""
        return int(self._values.nbytes)

    # ------------------------------------------------------------------ #
    # probes and restriction
    # ------------------------------------------------------------------ #

    def value_at(self, *coords: int):
        """The value at one voxel; raises if the voxel is outside the region."""
        idx = self._region.curve.index_point(*coords)
        rank = self._region.intervals.rank_of(np.asarray([idx]))[0]
        return self._values[rank]

    def restrict(self, sub: Region) -> "DataRegion":
        """Clip to ``sub``: data on the intersection of both regions.

        This implements mixed queries on an already extracted result, e.g.
        narrowing an intensity band to one structure.
        """
        if sub.curve != self._region.curve:
            raise CurveMismatchError("sub-region must share the parent's curve")
        inter = self._region.intersection(sub)
        ranks = self._region.intervals.rank_of(inter.intervals.indices())
        return DataRegion(inter, self._values[ranks])

    def band(self, lo: float, hi: float) -> "DataRegion":
        """Attribute filter: keep voxels with values in ``[lo, hi]``."""
        from repro.regions.intervals import IntervalSet

        keep = (self._values >= lo) & (self._values <= hi)
        member_idx = self._region.intervals.indices()[keep]
        sub = Region(IntervalSet.from_indices(member_idx), self._region.grid, self._region.curve)
        return DataRegion(sub, self._values[keep])

    # ------------------------------------------------------------------ #
    # statistics (support for multi-study aggregation, §6.4)
    # ------------------------------------------------------------------ #

    def min(self):
        """Smallest value, or None when the region is empty."""
        return self._values.min() if self._values.size else None

    def max(self):
        """Largest value, or None when the region is empty."""
        return self._values.max() if self._values.size else None

    def mean(self) -> float:
        """Mean value; raises on an empty region."""
        if not self._values.size:
            raise ValidationError("empty data region has no mean")
        return float(self._values.mean())

    def histogram(self, bins: int = 256, value_range: tuple[float, float] | None = None):
        """Value histogram ``(counts, edges)`` over the region's voxels."""
        return np.histogram(self._values, bins=bins, range=value_range)

    # ------------------------------------------------------------------ #
    # dense rendering support
    # ------------------------------------------------------------------ #

    def to_array(self, fill=0, first_axis: int = 0) -> np.ndarray:
        """Scatter into a dense ndim-dimensional array, ``fill`` elsewhere, laid
        out with grid axis ``first_axis`` first: ``np.ascontiguousarray(
        np.moveaxis(to_array(), first_axis, 0))``, for a projection along it."""
        out = np.full(stack_shape(self._region.grid.shape, first_axis), fill,
                      dtype=self._values.dtype)
        if self.voxel_count:
            out.reshape(-1)[self._region.offsets(first_axis)] = self._values
        return out

    # ------------------------------------------------------------------ #
    # serialization (the network payload)
    # ------------------------------------------------------------------ #

    def to_bytes(self, codec: str = "naive") -> bytes:
        """Serialize region (with the given run codec) + values."""
        code = dtype_code(self._values.dtype, "DATA_REGION")
        region_bytes = self._region.to_bytes(codec)
        header = _HEADER.pack(DATA_REGION_MAGIC, code, len(region_bytes))
        return header + region_bytes + self._values.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "DataRegion":
        """Deserialize a payload produced by :meth:`to_bytes`."""
        if len(data) < _HEADER.size or data[:4] != DATA_REGION_MAGIC:
            raise CodecError("not a serialized DATA_REGION (bad magic)")
        _, code, region_len = _HEADER.unpack_from(data)
        dtype = dtype_of(code, "DATA_REGION")
        offset = _HEADER.size
        region = Region.from_bytes(data[offset:offset + region_len])
        tail = len(data) - offset - region_len
        if tail < 0 or tail % dtype.itemsize:
            raise CodecError(
                f"DATA_REGION values are {tail} bytes, not a whole number of {dtype} items"
            )
        values = np.frombuffer(data, dtype=dtype, offset=offset + region_len)
        return cls(region, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataRegion):
            return NotImplemented
        return self._region == other._region and bool(
            np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash((self._region, self._values.tobytes()))

    def __repr__(self) -> str:
        return (
            f"DataRegion({self.voxel_count} voxels, {self._region.run_count} runs, "
            f"dtype={self._values.dtype})"
        )
