"""The visualization front end: a stand-in for IBM Data Explorer/6000.

Reproduces the pieces of DX that matter to the paper's evaluation:

* **ImportVolume** (§5.2) — the module the authors added to the DX
  executive: it takes the serialized, spatially restricted query result off
  the wire and turns it into a renderable object.
* **the result cache** — "because of the caching mechanism built into DX,
  the user can quickly review ... recently issued queries without
  necessitating a database reaccess"; the experiments flush it per run.
* **rendering** — real images via :mod:`repro.viz.render`, with elapsed
  time modeled by the calibrated cost model.
"""

from __future__ import annotations

from repro.errors import ValidationError

from dataclasses import dataclass

import numpy as np

from repro.net.costmodel import CostModel1994
from repro.obs import metrics
from repro.viz import render
from repro.volumes import DataRegion

__all__ = ["DXObject", "DataExplorer"]

_CACHE_HITS = metrics.counter("dx.cache_hits")
_IMPORTS = metrics.counter("dx.imports")
_RENDERS = metrics.counter("dx.renders")


@dataclass
class DXObject:
    """A query result imported into the visualization environment."""

    data: DataRegion
    import_cpu_seconds: float
    import_real_seconds: float

    @property
    def voxel_count(self) -> int:
        """Number of voxels carried by the object."""
        return self.data.voxel_count


class DataExplorer:
    """Import, cache, and render query results."""

    def __init__(self, cost_model: CostModel1994 | None = None):
        self.cost_model = cost_model or CostModel1994()
        self._cache: dict[str, DXObject] = {}
        self.imports = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------ #
    # ImportVolume
    # ------------------------------------------------------------------ #

    def import_volume(self, payload: bytes, cache_key: str | None = None) -> DXObject:
        """Convert a serialized DATA_REGION payload into a DX object.

        With a ``cache_key``, a repeated query returns the cached object
        without re-importing (and without a database re-access upstream).
        """
        if cache_key is not None and cache_key in self._cache:
            self.cache_hits += 1
            _CACHE_HITS.inc()
            return self._cache[cache_key]
        data = DataRegion.from_bytes(payload)
        size = (data.voxel_count, data.region.run_count)
        obj = DXObject(data, self.cost_model.import_cpu_seconds(*size),
                       self.cost_model.import_real_seconds(*size))
        self.imports += 1
        _IMPORTS.inc()
        if cache_key is not None:
            self._cache[cache_key] = obj
        return obj

    def flush_cache(self) -> None:
        """What the experiments do before every timed run (§6.1)."""
        self._cache.clear()

    @property
    def cache_size(self) -> int:
        """Number of objects currently cached."""
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def render(self, obj: DXObject, mode: str = "mip", axis: int = 2) -> tuple[np.ndarray, float]:
        """Render an imported object; returns ``(image, modeled_seconds)``.

        Modes: ``mip`` (intensity projection), ``slice`` (cutting plane),
        ``surface`` (structure only), ``textured`` (data mapped onto the
        structure surface — Figure 6c).
        """
        if mode == "mip":
            image = render.render_mip(obj.data, axis=axis)
        elif mode == "slice":
            image = render.render_slice(obj.data, axis=axis)
        elif mode == "surface":
            image = render.render_surface(obj.data.region, axis=axis)
        elif mode == "textured":
            image = render.render_textured_surface(
                obj.data.region, obj.data, axis=axis
            )
        else:
            raise ValidationError(f"unknown render mode {mode!r}")
        seconds = self.cost_model.render_seconds(obj.voxel_count)
        _RENDERS.inc()
        return image, seconds
