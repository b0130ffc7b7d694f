"""Space-filling curves: the k-D → 1-D mappings at the heart of QBISM's physical design."""

from __future__ import annotations

from repro.errors import ValidationError

from repro.curves.base import GridSpec, SpaceFillingCurve, stack_shape
from repro.curves.hilbert import HilbertCurve
from repro.curves.morton import MortonCurve
from repro.curves.rowmajor import RowMajorCurve

__all__ = [
    "GridSpec",
    "SpaceFillingCurve",
    "HilbertCurve",
    "MortonCurve",
    "RowMajorCurve",
    "curve_for_grid",
    "CURVE_CLASSES",
    "stack_shape",
]

#: registry of curve implementations by short name
CURVE_CLASSES: dict[str, type[SpaceFillingCurve]] = {
    HilbertCurve.name: HilbertCurve,
    MortonCurve.name: MortonCurve,
    RowMajorCurve.name: RowMajorCurve,
}


def curve_for_grid(grid: GridSpec, name: str = "hilbert") -> SpaceFillingCurve:
    """Construct the named curve sized to cover ``grid``.

    The curve lives on the smallest power-of-two cube enclosing the grid;
    voxels outside the grid simply never appear in any REGION or VOLUME.
    """
    try:
        cls = CURVE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(CURVE_CLASSES))
        raise ValidationError(f"unknown curve {name!r}; known curves: {known}") from None
    return cls(grid.ndim, grid.bits)
