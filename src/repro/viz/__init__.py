"""Visualization substrate: rendering, surface meshes, the DX stand-in."""

from __future__ import annotations

from repro.viz.dx import DataExplorer, DXObject
from repro.viz.mesh import TriangleMesh, extract_surface_mesh
from repro.viz.render import (
    render_mip,
    render_slice,
    render_surface,
    render_textured_surface,
    to_pgm,
)

__all__ = [
    "DataExplorer",
    "DXObject",
    "TriangleMesh",
    "extract_surface_mesh",
    "render_mip",
    "render_slice",
    "render_surface",
    "render_textured_surface",
    "to_pgm",
]
