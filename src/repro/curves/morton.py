"""Vectorized n-dimensional Z-order (Morton / Peano / bit-shuffling) curve.

The z-id of a voxel is obtained by interleaving the bits of its coordinates
(§4 of the paper): for the 2-D example of Figure 2, a voxel with coordinates
``x = x1 x0`` and ``y = y1 y0`` has ``z-id = x1 y1 x0 y0``, i.e. axis 0 is
the most significant axis within every bit group.  The same layout is used
for any dimensionality.

QBISM implements Z order as the baseline against which the Hilbert curve is
compared: it is cheaper to compute but clusters space less well, yielding
roughly 27% more runs per REGION (§4.1) and correspondingly more disk I/O
(Table 4).
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve

__all__ = ["MortonCurve"]


def _spread_bits(values: np.ndarray, ndim: int, bits: int) -> np.ndarray:
    """Insert ``ndim - 1`` zero bits between consecutive bits of each value."""
    if ndim == 1:
        return values.copy()
    result = np.zeros_like(values)
    for q in range(bits):
        result |= ((values >> q) & 1) << (q * ndim)
    return result


def _compact_bits(values: np.ndarray, ndim: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_spread_bits`."""
    if ndim == 1:
        return values.copy()
    result = np.zeros_like(values)
    for q in range(bits):
        result |= ((values >> (q * ndim)) & 1) << q
    return result


class MortonCurve(SpaceFillingCurve):
    """The Z-order curve on a ``2^bits`` cube in ``ndim`` dimensions."""

    name = "morton"

    # Bound in this class body, not merely inherited, so instrumentation
    # (the ledger's traced run) can wrap one curve's transforms alone.
    index = SpaceFillingCurve.index
    coords = SpaceFillingCurve.coords

    def _index_kernel(self, coords: np.ndarray) -> np.ndarray:
        index = np.zeros(coords.shape[0], dtype=np.int64)
        for i in range(self.ndim):
            spread = _spread_bits(coords[:, i], self.ndim, self.bits)
            index |= spread << (self.ndim - 1 - i)
        return index

    def _coords_kernel(self, index: np.ndarray) -> np.ndarray:
        coords = np.empty((index.shape[0], self.ndim), dtype=np.int64)
        for i in range(self.ndim):
            coords[:, i] = _compact_bits(index >> (self.ndim - 1 - i), self.ndim, self.bits)
        return coords
