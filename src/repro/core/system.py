"""The assembled QBISM system (Figures 7 and 8).

:class:`QbismSystem` wires every component together the way the paper's
testbed does: the Starburst-like engine and MedicalServer share a process
over the Long Field Manager and block device (machine 1); query results
ship through the RPC channel to the DX executive (machine 2), which imports
and renders them.  :meth:`QbismSystem.query` runs one user query end to end
and returns the data, the rendered image, and a Table 3 timing row.

``build_demo`` constructs a fully loaded instance from synthetic data — the
equivalent of the paper's pre-warped, pre-banded UCLA database.
"""

from __future__ import annotations

from repro.errors import ValidationError

from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.db.spatial import register_spatial_functions
from repro.medical.entities import Atlas
from repro.medical.loader import MedicalLoader
from repro.medical.schema import create_medical_schema
from repro.medical.server import MedicalQueryResult, MedicalServer, QuerySpec
from repro.net.costmodel import CostModel1994
from repro.net.rpc import RpcChannel
from repro.core.timing import Table4Row, TimingBreakdown
from repro.regions import Region
from repro.storage.device import PAGE_SIZE, BlockDevice
from repro.storage.lfm import LongFieldManager
from repro.synthdata.phantom import BrainPhantom, build_phantom
from repro.synthdata.studies import generate_mri_studies, generate_pet_studies
from repro.viz.dx import DataExplorer

__all__ = ["QbismSystem", "QueryOutcome"]


@dataclass
class QueryOutcome:
    """Everything produced by one end-to-end query."""

    result: MedicalQueryResult
    timing: TimingBreakdown
    image: np.ndarray | None = None

    @property
    def data(self):
        """The query's result payload."""
        return self.result.data


@dataclass
class QbismSystem:
    """The full prototype: storage + DBMS + MedicalServer + network + DX."""

    device: BlockDevice
    lfm: LongFieldManager
    db: Database
    server: MedicalServer
    rpc: RpcChannel
    dx: DataExplorer
    cost_model: CostModel1994
    atlas: Atlas
    phantom: BrainPhantom
    pet_study_ids: list[int] = field(default_factory=list)
    mri_study_ids: list[int] = field(default_factory=list)
    #: seed the phantom was built with, recorded so save/load can re-derive it
    _phantom_seed: int = 1994

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build_demo(
        cls,
        seed: int = 1994,
        grid_side: int = 128,
        n_pet: int = 5,
        n_mri: int = 3,
        band_encodings: tuple[str, ...] = ("hilbert-naive",),
        device_capacity: int | None = None,
        device_path=None,
        use_ground_truth_warp: bool = True,
        wal: bool = False,
    ) -> "QbismSystem":
        """Build and populate a complete system from synthetic data.

        ``grid_side = 128`` reproduces the paper's scale (2M voxels per
        warped study); tests use 32 for speed.  With
        ``use_ground_truth_warp`` the loader uses each study's known
        misalignment (the "semi-automatic" path); otherwise it runs
        moment-based registration.

        With ``wal=True`` the block device is wrapped in a write-ahead log
        over an in-memory journal, so every load and query runs through
        crash-safe transactions; journal I/O is accounted separately and
        the Table 3/4 LFM page counts are unchanged.
        """
        phantom, pet, mri = demo_inputs(seed, grid_side, n_pet, n_mri)

        if device_capacity is None:
            device_capacity = _estimate_capacity(grid_side, pet, mri, band_encodings)
        device, lfm, db = node_stack(
            BlockDevice(device_capacity, path=device_path), wal
        )

        loader = MedicalLoader(db, lfm, encodings=band_encodings)
        atlas = loader.load_atlas(phantom)
        reference = None
        if not use_ground_truth_warp:
            reference = (phantom.anatomy * 255).astype(np.uint8)

        rng = np.random.default_rng(seed + 3)
        pet_ids, mri_ids = [], []
        for i, study in enumerate(pet + mri):
            patient = loader.register_patient(
                name=f"subject-{i + 1:02d}",
                birth_date=f"{1930 + int(rng.integers(0, 45))}-01-01",
                sex="F" if rng.integers(0, 2) else "M",
                age=int(rng.integers(20, 75)),
            )
            study_id = loader.load_study(
                study.data,
                study.modality,
                patient.patient_id,
                atlas,
                phantom.grid,
                warp=study.patient_to_atlas if use_ground_truth_warp else None,
                registration_reference=reference,
            )
            (pet_ids if study.modality == "PET" else mri_ids).append(study_id)

        index_and_analyze(db)

        cost_model = CostModel1994()
        return cls(
            device=device,
            lfm=lfm,
            db=db,
            server=MedicalServer(db),
            rpc=RpcChannel(),
            dx=DataExplorer(cost_model),
            cost_model=cost_model,
            atlas=atlas,
            phantom=phantom,
            pet_study_ids=pet_ids,
            mri_study_ids=mri_ids,
            _phantom_seed=seed,
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path) -> None:
        """Persist the whole system to a directory.

        The database (catalog + device image) is saved via
        :func:`repro.db.persist.save_database`; the deterministic build
        parameters needed to re-derive the phantom and the study-id lists
        go into ``system.json``.
        """
        import json
        from pathlib import Path

        from repro.db.persist import save_database

        path = Path(path)
        save_database(self.db, path)
        meta = {
            "grid_side": self.phantom.grid.shape[0],
            "phantom_seed": self._phantom_seed,
            "pet_study_ids": self.pet_study_ids,
            "mri_study_ids": self.mri_study_ids,
            "atlas": {
                "atlas_id": self.atlas.atlas_id,
                "name": self.atlas.name,
                "demographic_group": self.atlas.demographic_group,
                "resolution": self.atlas.resolution,
                "origin": list(self.atlas.origin),
                "voxel_size": list(self.atlas.voxel_size),
            },
        }
        (path / "system.json").write_text(json.dumps(meta))

    @classmethod
    def load(cls, path, in_memory: bool = True) -> "QbismSystem":
        """Reopen a system saved with :meth:`save`."""
        import json
        from pathlib import Path

        from repro.db.persist import load_database

        path = Path(path)
        meta = json.loads((path / "system.json").read_text())
        db = load_database(path, in_memory=in_memory)
        register_spatial_functions(db)
        phantom = build_phantom(
            grid_side=meta["grid_side"], seed=meta["phantom_seed"]
        )
        atlas_meta = meta["atlas"]
        atlas = Atlas(
            atlas_id=atlas_meta["atlas_id"],
            name=atlas_meta["name"],
            demographic_group=atlas_meta["demographic_group"],
            resolution=atlas_meta["resolution"],
            origin=tuple(atlas_meta["origin"]),
            voxel_size=tuple(atlas_meta["voxel_size"]),
        )
        cost_model = CostModel1994()
        system = cls(
            device=db.lfm.device,
            lfm=db.lfm,
            db=db,
            server=MedicalServer(db),
            rpc=RpcChannel(),
            dx=DataExplorer(cost_model),
            cost_model=cost_model,
            atlas=atlas,
            phantom=phantom,
            pet_study_ids=list(meta["pet_study_ids"]),
            mri_study_ids=list(meta["mri_study_ids"]),
        )
        system._phantom_seed = meta["phantom_seed"]
        return system

    # ------------------------------------------------------------------ #
    # end-to-end queries (Table 3)
    # ------------------------------------------------------------------ #

    def query(
        self,
        spec: QuerySpec,
        render_mode: str | None = "mip",
        label: str | None = None,
        flush_cache: bool = True,
    ) -> QueryOutcome:
        """Run one user query through the full pipeline of Figure 7."""
        if flush_cache:
            self.dx.flush_cache()  # the per-run flush of §6.1
        result = self.server.execute(spec)
        transfer = self.rpc.send(result.payload)
        obj = self.dx.import_volume(result.payload, cache_key=spec.label())
        image = None
        render_seconds = 0.0
        if render_mode is not None:
            image, render_seconds = self.dx.render(obj, mode=render_mode)
        model = self.cost_model
        timing = TimingBreakdown(
            label=label or spec.label(),
            runs=obj.data.region.run_count,
            voxels=obj.data.voxel_count,
            lfm_page_ios=result.io.pages_read if result.io else 0,
            starburst_cpu=model.starburst_cpu_seconds(result.work, result.io),
            starburst_real=model.starburst_real_seconds(result.work, result.io),
            net_messages=transfer.messages,
            net_seconds=model.network_seconds(transfer),
            import_cpu=obj.import_cpu_seconds,
            import_real=obj.import_real_seconds,
            render_seconds=render_seconds,
            other_seconds=model.other_seconds,
        )
        return QueryOutcome(result=result, timing=timing, image=image)

    # Convenience wrappers matching the paper's query classes (§6.2).

    def query_full_study(self, study_id: int, **kwargs) -> QueryOutcome:
        """Q1: "show a full PET study"."""
        return self.query(QuerySpec(study_id=study_id), **kwargs)

    def query_box(self, study_id: int, lower, upper, **kwargs) -> QueryOutcome:
        """Q2-style spatial query on a rectangular solid."""
        return self.query(QuerySpec(study_id=study_id, box=(tuple(lower), tuple(upper))), **kwargs)

    def query_structure(self, study_id: int, structure_name: str, **kwargs) -> QueryOutcome:
        """Q3/Q4-style spatial query on an anatomical structure."""
        return self.query(QuerySpec(study_id=study_id, structures=(structure_name,)), **kwargs)

    def query_band(self, study_id: int, low: int, high: int, **kwargs) -> QueryOutcome:
        """Q5-style attribute query on an intensity range."""
        return self.query(QuerySpec(study_id=study_id, intensity_range=(low, high)), **kwargs)

    def query_mixed(self, study_id: int, structure_name: str, low: int, high: int, **kwargs) -> QueryOutcome:
        """Q6-style mixed query: intensity range inside a structure."""
        return self.query(
            QuerySpec(
                study_id=study_id,
                structures=(structure_name,),
                intensity_range=(low, high),
            ),
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # multi-study queries (Table 4)
    # ------------------------------------------------------------------ #

    def multi_study_band(
        self, study_ids: list[int], low: int, high: int, encoding: str = "hilbert-naive"
    ) -> tuple[Region, Table4Row]:
        """The Table 4 experiment under one REGION encoding."""
        region, query_result = self.server.band_consistency_region(
            study_ids, low, high, encoding
        )
        io = query_result.io
        work = query_result.work
        row = Table4Row(
            encoding=encoding,
            lfm_page_ios=io.pages_read if io else 0,
            starburst_cpu=self.cost_model.starburst_cpu_seconds(work, io),
            starburst_real=self.cost_model.starburst_real_seconds(work, io),
            result_runs=region.run_count,
            result_voxels=region.voxel_count,
        )
        return region, row

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def study_ids(self) -> list[int]:
        """Every loaded study id (PET first, then MRI)."""
        return self.pet_study_ids + self.mri_study_ids

    def structure_names(self) -> list[str]:
        """Names of every atlas structure in the phantom."""
        return self.phantom.structure_names

    def __repr__(self) -> str:
        return (
            f"QbismSystem(atlas={self.atlas.name!r}, grid={self.phantom.grid.shape}, "
            f"{len(self.pet_study_ids)} PET + {len(self.mri_study_ids)} MRI studies)"
        )


def demo_inputs(seed: int, grid_side: int, n_pet: int, n_mri: int):
    """The demo's synthetic ``(phantom, PET studies, MRI studies)``."""
    if grid_side < 8 or grid_side & (grid_side - 1):
        raise ValidationError(
            f"grid_side must be a power of two >= 8 (VOLUMEs are stored on "
            f"power-of-two cubes), got {grid_side}"
        )
    phantom = build_phantom(grid_side=grid_side, seed=seed)
    pet = generate_pet_studies(phantom, count=n_pet, seed=seed + 1)
    mri = generate_mri_studies(phantom, count=n_mri, seed=seed + 2)
    return phantom, pet, mri


def node_stack(device, wal: bool):
    """One node's ``(device, lfm, db)`` over a base block device, medical
    schema created; with ``wal`` the returned device is a write-ahead log
    over ``device`` and an in-memory journal."""
    if wal:
        from repro.storage.wal import WriteAheadLog

        journal = BlockDevice(min(device.capacity, 64 << 20))
        device = WriteAheadLog(device, journal, recover=False)
    lfm = LongFieldManager(device)
    db = Database(lfm=lfm)
    register_spatial_functions(db)
    create_medical_schema(db)
    return device, lfm, db


def index_and_analyze(db: Database) -> None:
    """§7 spatial indexing: Hilbert-ordered box columns over the stored
    REGION columns plus optimizer statistics, so the cost-based planner prunes
    with index probes instead of query shape."""
    db.execute("create spatial index sxAtlasRegion on atlasStructure (region)")
    db.execute("create spatial index sxBandRegion on intensityBand (region)")
    db.execute("analyze")


def _estimate_capacity(grid_side: int, pet, mri, band_encodings) -> int:
    """A device size comfortably holding raw + warped + band data."""
    raw_bytes = sum(s.nbytes for s in pet + mri)
    n_studies = len(pet) + len(mri)
    warped_bytes = n_studies * (grid_side**3 + PAGE_SIZE)
    # Bands, structures, meshes: proportional to warped data, generously.
    extra = warped_bytes * (1 + len(band_encodings))
    total = 2 * (raw_bytes + warped_bytes + extra) + (32 << 20)
    capacity = 1 << (total - 1).bit_length()
    return capacity
