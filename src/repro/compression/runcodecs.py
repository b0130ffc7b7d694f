"""REGION disk encodings (§4.2 of the paper).

Four ways to lay a run list down in a long field:

============  ====================================================== =========
name          scheme                                                 paper size
============  ====================================================== =========
``naive``     4-byte start + 4-byte end per run                      9.50x
``elias``     Elias-gamma coded delta (run/gap) lengths              1.17x
``oblong``    4 bytes per oblong octant ``<id, rank>``               10.4x
``octant``    4 bytes per regular octant ``<id, rank>``              17.8x
============  ====================================================== =========

(sizes relative to the entropy bound, Figure 4).  Every codec encodes a
:class:`~repro.regions.intervals.IntervalSet` to bytes and decodes it back
exactly; the Figure 4 benchmark regenerates the table above from synthetic
brain REGIONs.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod

import numpy as np

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.elias import gamma_decode_array, gamma_encode_array
from repro.errors import CodecError
from repro.regions.intervals import IntervalSet
from repro.regions.octants import (
    decompose_oblong_octants,
    decompose_octants,
    octants_to_intervals,
)

__all__ = [
    "RegionCodec",
    "NaiveRunCodec",
    "EliasRunCodec",
    "OctantCodec",
    "OblongOctantCodec",
    "REGION_CODECS",
    "get_codec",
]

_RANK_BITS = 5  # packs ranks 0..31: grids up to 2^31 curve positions per axis group
_COUNT = struct.Struct("<I")


class RegionCodec(ABC):
    """Encodes run lists to bytes and back."""

    #: registry key and on-disk identifier
    name: str = "abstract"

    @abstractmethod
    def encode(self, intervals: IntervalSet, ndim: int = 3) -> bytes:
        """Serialize a run list.  ``ndim`` matters only to octant codecs."""

    @abstractmethod
    def decode(self, data: bytes) -> IntervalSet:
        """Exact inverse of :meth:`encode`."""

    def encoded_size(self, intervals: IntervalSet, ndim: int = 3) -> int:
        """Bytes the encoding would occupy (default: encode and measure)."""
        return len(self.encode(intervals, ndim))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NaiveRunCodec(RegionCodec):
    """The paper's "naive" scheme: starting and ending ids as 4-byte integers."""

    name = "naive"

    def encode(self, intervals: IntervalSet, ndim: int = 3) -> bytes:
        """Encode ``runs`` into bytes."""
        del ndim
        if intervals.run_count and intervals.max_index >= 1 << 32:
            raise CodecError("naive codec stores 32-bit ids; curve position too large")
        pairs = np.empty((intervals.run_count, 2), dtype="<u4")
        pairs[:, 0] = intervals.starts
        pairs[:, 1] = intervals.stops - 1  # inclusive ends, as in the paper
        return pairs.tobytes()

    def decode(self, data: bytes) -> IntervalSet:
        """Decode runs from ``data``."""
        if len(data) % 8:
            raise CodecError("naive run payload must be a multiple of 8 bytes")
        pairs = np.frombuffer(data, dtype="<u4").reshape(-1, 2)
        return IntervalSet(pairs[:, 0], pairs[:, 1] + np.int64(1))  # inclusive ends -> stops

    def encoded_size(self, intervals: IntervalSet, ndim: int = 3) -> int:
        """Size in bytes of the encoding of ``runs``, without encoding."""
        del ndim
        return 8 * intervals.run_count


class EliasRunCodec(RegionCodec):
    """The paper's "elias" scheme: gamma-coded delta lengths.

    Layout: run count (4 bytes), then gamma codes for
    ``start_0 + 1, len_0, gap_1, len_1, gap_2, ...`` — every quantity is
    >= 1 so the gamma code applies directly.
    """

    name = "elias"

    @staticmethod
    def _deltas(intervals: IntervalSet) -> np.ndarray:
        """``start_0 + 1, len_0, gap_1, len_1, ...``: the differences of the run boundaries."""
        boundaries = np.empty(2 * intervals.run_count, dtype=np.int64)
        boundaries[0::2] = intervals.starts
        boundaries[1::2] = intervals.stops
        return np.diff(boundaries, prepend=-1)

    def encode(self, intervals: IntervalSet, ndim: int = 3) -> bytes:
        """Encode ``runs`` into bytes."""
        del ndim
        header = _COUNT.pack(intervals.run_count)
        if not intervals.run_count:
            return header
        writer = BitWriter()
        gamma_encode_array(self._deltas(intervals), writer)
        return header + writer.getvalue()

    def decode(self, data: bytes) -> IntervalSet:
        """Decode runs from ``data``."""
        if len(data) < _COUNT.size:
            raise CodecError("elias run payload too short")
        (n,) = _COUNT.unpack_from(data)
        if n == 0:
            return IntervalSet.empty()
        reader = BitReader(data[_COUNT.size:])
        # The run boundaries are the cumulative sums of the deltas.
        boundaries = np.cumsum(gamma_decode_array(reader, 2 * n)) - 1
        return IntervalSet(boundaries[0::2], boundaries[1::2])

    def encoded_size(self, intervals: IntervalSet, ndim: int = 3) -> int:
        """Size in bytes of the encoding of ``runs``, without encoding."""
        del ndim
        from repro.compression.elias import gamma_code_length

        bits = int(gamma_code_length(self._deltas(intervals)).sum())
        return _COUNT.size + (bits + 7) // 8


class _OctantCodecBase(RegionCodec):
    """Common machinery for the two ``<id, rank>`` 4-byte encodings.

    Each element packs into 4 bytes as ``(id << 5) | rank``; ids that need
    more than 27 bits (grids beyond 512x512x512, exactly the paper's limit)
    raise :class:`CodecError`.
    """

    def _decompose(self, intervals: IntervalSet, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def encode(self, intervals: IntervalSet, ndim: int = 3) -> bytes:
        ids, ranks = self._decompose(intervals, ndim)
        if ids.size and ids.max() >= 1 << (32 - _RANK_BITS):
            raise CodecError(
                "octant ids exceed 27 bits; the 4-byte packing covers grids "
                "only up to 512x512x512"
            )
        if ids.size and ranks.max() >= 1 << _RANK_BITS:
            raise CodecError("octant rank exceeds 5 bits")
        packed = ((ids << _RANK_BITS) | ranks).astype("<u4")
        return packed.tobytes()

    def decode(self, data: bytes) -> IntervalSet:
        if len(data) % 4:
            raise CodecError("octant payload must be a multiple of 4 bytes")
        packed = np.frombuffer(data, dtype="<u4").astype(np.int64)
        ids = packed >> _RANK_BITS
        ranks = packed & ((1 << _RANK_BITS) - 1)
        return octants_to_intervals(ids, ranks)


class OctantCodec(_OctantCodecBase):
    """Regular (cubic) octants, 4 bytes each."""

    name = "octant"

    def _decompose(self, intervals: IntervalSet, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        return decompose_octants(intervals, ndim, max_rank=(1 << _RANK_BITS) - 1)


class OblongOctantCodec(_OctantCodecBase):
    """Oblong octants (z-elements), 4 bytes each."""

    name = "oblong"

    def _decompose(self, intervals: IntervalSet, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        del ndim
        return decompose_oblong_octants(intervals, max_rank=(1 << _RANK_BITS) - 1)


#: codec registry, keyed by the on-disk identifier
REGION_CODECS: dict[str, RegionCodec] = {
    codec.name: codec
    for codec in (NaiveRunCodec(), EliasRunCodec(), OctantCodec(), OblongOctantCodec())
}


def get_codec(name: str) -> RegionCodec:
    """Look up a codec by name, with a helpful error for typos."""
    try:
        return REGION_CODECS[name]
    except KeyError:
        known = ", ".join(sorted(REGION_CODECS))
        raise CodecError(f"unknown REGION codec {name!r}; known codecs: {known}") from None
