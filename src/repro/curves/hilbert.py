"""Vectorized n-dimensional Hilbert curve.

QBISM stores VOLUMEs in Hilbert order and encodes REGIONs as runs of
consecutive Hilbert positions (§4 of the paper), because the Hilbert curve
has the best spatial-clustering properties among known space-filling curves
[Faloutsos & Roseman, PODS'89].

The kernel is John Skilling's transpose algorithm ("Programming the
Hilbert curve", AIP Conf. Proc. 707, 2004) rewritten over numpy arrays so a
whole batch of points is converted at once: the loops run over *bits*
(``<= 21`` per axis), not over points.  That is still ~100 int64 passes per
call — measured 6-11 ms for 60 k points at 64^3, 40-90 ms for the whole 64^3
cube and 0.35-1.5 s for the 2M voxels of a 128^3 volume — so the kernel runs
once per curve, to fill the tables of :mod:`repro.curves.base`: the first
transform on a curve pays that one pass, after which the same 60 k points
are a 0.25-0.5 ms gather.  Only curves past ``TABLE_MAX_LENGTH`` (longer
than 128^3) run the kernel on every call.

The orientation convention matches the widely used 2-D ``xy2d`` curve (the
one illustrated in Figure 3 of the paper): on a 4x4 grid the curve starts at
``(0, 0)`` and visits ``(1, 0), (1, 1), (0, 1), (0, 2), ...``.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve

__all__ = ["HilbertCurve"]


def _interleave_transpose(transpose: np.ndarray, bits: int, ndim: int) -> np.ndarray:
    """Collapse the Skilling transpose form into scalar curve indices.

    ``transpose`` is ``(ndim, n)``; bit ``q`` of axis ``i`` becomes bit
    ``q * ndim + (ndim - 1 - i)`` of the index, i.e. axis 0 holds the most
    significant bit of each ``ndim``-bit group.
    """
    index = np.zeros(transpose.shape[1], dtype=np.int64)
    for q in range(bits):
        for i in range(ndim):
            bit = (transpose[i] >> q) & 1
            index |= bit << (q * ndim + (ndim - 1 - i))
    return index


def _deinterleave_index(index: np.ndarray, bits: int, ndim: int) -> np.ndarray:
    """Expand scalar curve indices into the Skilling transpose form."""
    transpose = np.zeros((ndim, index.shape[0]), dtype=np.int64)
    for q in range(bits):
        for i in range(ndim):
            bit = (index >> (q * ndim + (ndim - 1 - i))) & 1
            transpose[i] |= bit << q
    return transpose


class HilbertCurve(SpaceFillingCurve):
    """The Hilbert space-filling curve on a ``2^bits`` cube in ``ndim`` dimensions."""

    name = "hilbert"

    # Bound in this class body, not merely inherited, so instrumentation
    # (the ledger's traced run) can wrap one curve's transforms alone.
    index = SpaceFillingCurve.index
    coords = SpaceFillingCurve.coords

    def _index_kernel(self, coords: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(coords.T).copy()  # (ndim, n)
        n, b = self.ndim, self.bits
        # Inverse undo: untwist the recursive sub-cube rotations.
        q = 1 << (b - 1)
        while q > 1:
            p = q - 1
            for i in range(n):
                swap = (x[i] & q) == 0
                # Where bit q of x[i] is set: invert low bits of x[0].
                x[0] ^= np.where(swap, 0, p)
                # Elsewhere: exchange the low bits of x[0] and x[i].
                t = np.where(swap, (x[0] ^ x[i]) & p, 0)
                x[0] ^= t
                x[i] ^= t
            q >>= 1
        # Gray encode.
        for i in range(1, n):
            x[i] ^= x[i - 1]
        t = np.zeros_like(x[0])
        q = 1 << (b - 1)
        while q > 1:
            t ^= np.where((x[n - 1] & q) != 0, q - 1, 0)
            q >>= 1
        x ^= t
        return _interleave_transpose(x, b, n)

    def _coords_kernel(self, index: np.ndarray) -> np.ndarray:
        n, b = self.ndim, self.bits
        x = _deinterleave_index(index, b, n)
        # Gray decode by H ^ (H/2).
        t = x[n - 1] >> 1
        for i in range(n - 1, 0, -1):
            x[i] ^= x[i - 1]
        x[0] ^= t
        # Undo excess work: re-apply the sub-cube rotations.
        q = 2
        top = 2 << (b - 1)
        while q != top:
            p = q - 1
            for i in range(n - 1, -1, -1):
                swap = (x[i] & q) == 0
                x[0] ^= np.where(swap, 0, p)
                t = np.where(swap, (x[0] ^ x[i]) & p, 0)
                x[0] ^= t
                x[i] ^= t
            q <<= 1
        return np.ascontiguousarray(x.T)
