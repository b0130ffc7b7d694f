"""Row-major (scanline) ordering.

Raw studies arrive from the scanner as a stack of 2-D slices: the *Raw
Volume* entity stores its data "in scanline order in a long field" (§3.3).
Modelling scanline order as just another :class:`SpaceFillingCurve` lets the
storage layer, run encodings, and benchmarks treat it uniformly — it is the
natural "no clustering" baseline.

The last axis varies fastest, matching C-order ``numpy`` arrays indexed
``[x, y, z]``.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve

__all__ = ["RowMajorCurve"]


class RowMajorCurve(SpaceFillingCurve):
    """Scanline order on a ``2^bits`` cube in ``ndim`` dimensions."""

    name = "rowmajor"

    def _index_kernel(self, coords: np.ndarray) -> np.ndarray:
        index = np.zeros(coords.shape[0], dtype=np.int64)
        for i in range(self.ndim):
            index = (index << self.bits) | coords[:, i]
        return index

    def _coords_kernel(self, index: np.ndarray) -> np.ndarray:
        coords = np.empty((index.shape[0], self.ndim), dtype=np.int64)
        mask = self.side - 1
        for i in range(self.ndim - 1, -1, -1):
            coords[:, i] = index & mask
            index = index >> self.bits
        return coords
