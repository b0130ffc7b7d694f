"""The study load pipeline (§2.2 / §3.3).

"When a study is loaded into the database, warping matrices are computed
and stored along with the original and warped study" — and the intensity
bands are computed too, "at database load time (rather than query time)
since the computation is expensive".  :class:`MedicalLoader` performs all
of it:

1. store the raw scanline volume (*Raw Volume*),
2. register patient space to the atlas (given warp, or moment-based),
3. resample, Hilbert-order, and store the warped VOLUME page-aligned,
4. compute the uniform intensity bands, store each REGION under one or
   more encodings, and insert every band's row in one statement.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.db.database import Database
from repro.db.spatial import store_region
from repro.errors import MedicalError
from repro.medical.entities import Atlas, Patient
from repro.medical.warp import AffineTransform, register_moments, resample_to_grid
from repro.storage.device import PAGE_SIZE
from repro.storage.lfm import LongFieldManager
from repro.synthdata.phantom import BrainPhantom
from repro.viz.mesh import extract_surface_mesh
from repro.volumes import Volume, uniform_bands

__all__ = ["MedicalLoader", "DEFAULT_ENCODINGS"]

#: encodings stored for every intensity band: the default query path uses
#: Hilbert runs with the naive scheme (as the paper's experiments do);
#: extra encodings feed the Table 4 comparison.
DEFAULT_ENCODINGS = ("hilbert-naive",)

#: encoding label -> (curve name, run codec name)
ENCODING_SPECS = {
    "hilbert-naive": ("hilbert", "naive"),
    "hilbert-elias": ("hilbert", "elias"),
    "z-naive": ("morton", "naive"),
    "octant": ("morton", "octant"),
    "oblong": ("morton", "oblong"),
}


@dataclass
class MedicalLoader:
    """Populates the Figure 1 schema through the database's SQL interface."""

    db: Database
    lfm: LongFieldManager
    encodings: tuple[str, ...] = DEFAULT_ENCODINGS
    _next_ids: dict[str, int] = field(default_factory=dict)

    def _allocate_id(self, kind: str) -> int:
        next_id = self._next_ids.get(kind, 1)
        self._next_ids[kind] = next_id + 1
        return next_id

    def seed_ids(self, kind: str, next_id: int) -> None:
        """Pin the next id of one kind (``"study"``, ``"patient"``, ...),
        so the next allocation of that kind lands on ``next_id``."""
        self._next_ids[kind] = int(next_id)

    @contextmanager
    def _unit(self):
        """One load is one ``Database.transaction``: one journal commit and
        one published snapshot.  A load that fails, or whose commit never
        reaches the journal, leaves no row behind on any device.  Under a
        write-ahead log it is atomic — its long fields go too, and it gives
        back the ids it took; a raw device cannot roll back, so there the
        fields stay allocated, unreferenced, and the ids stay taken."""
        with self.db.transaction():
            ids = dict(self._next_ids)

            def restore_ids() -> None:
                self._next_ids = ids

            self.lfm.on_rollback(restore_ids)
            yield

    # ------------------------------------------------------------------ #
    # reference data
    # ------------------------------------------------------------------ #

    def load_atlas(
        self,
        phantom: BrainPhantom,
        name: str = "Talairach",
        demographic_group: str = "adult",
        voxel_size_mm: tuple[float, float, float] = (1.5, 1.2, 2.3),
        systems: dict[str, tuple[str, ...]] | None = None,
    ) -> Atlas:
        """Store an atlas: coordinate frame, structures (REGION + mesh), systems."""
        with self._unit():
            atlas_id = self._allocate_id("atlas")
            side = phantom.grid.shape[0]
            self.db.execute(
                "insert into atlas values (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [atlas_id, name, demographic_group, side, 0.0, 0.0, 0.0, *voxel_size_mm],
            )
            structure_ids: dict[str, int] = {}
            for structure_name, region in phantom.structures.items():
                structure_id = self._allocate_id("structure")
                structure_ids[structure_name] = structure_id
                self.db.execute(
                    "insert into neuralStructure values (?, ?)",
                    [structure_id, structure_name],
                )
                region_lf = store_region(self.db, region, "naive")
                mesh_lf = self.lfm.create(extract_surface_mesh(region).to_bytes())
                if region.voxel_count:
                    lower, upper = region.bounding_box()
                else:
                    lower = upper = (None, None, None)
                self.db.execute(
                    "insert into atlasStructure values (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [atlas_id, structure_id, region_lf, mesh_lf, *lower, *upper],
                )
            if systems is None:
                systems = _default_systems(set(structure_ids))
            for system_name, members in systems.items():
                system_id = self._allocate_id("system")
                self.db.execute(
                    "insert into neuralSystem values (?, ?)", [system_id, system_name]
                )
                for member in members:
                    if member not in structure_ids:
                        raise MedicalError(
                            f"system {system_name!r} references unknown structure {member!r}"
                        )
                    self.db.execute(
                        "insert into systemStructure values (?, ?)",
                        [system_id, structure_ids[member]],
                    )
        return Atlas(
            atlas_id=atlas_id,
            name=name,
            demographic_group=demographic_group,
            resolution=side,
            origin=(0.0, 0.0, 0.0),
            voxel_size=voxel_size_mm,
        )

    def register_patient(self, name: str, birth_date: str, sex: str, age: int) -> Patient:
        """Insert a *Patient* row; returns the typed record."""
        patient_id = self._allocate_id("patient")
        self.db.execute(
            "insert into patient values (?, ?, ?, ?, ?)",
            [patient_id, name, birth_date, sex, age],
        )
        return Patient(patient_id, name, birth_date, sex, age)

    def create_standard_indexes(self) -> list[str]:
        """Indexes on the join/lookup columns of the Figure 1 schema.

        The paper's experiments ran without relational indexes (§6.1); call
        this to measure their effect or to serve larger populations.
        Returns the created index names.
        """
        specs = [
            ("idx_wv_study", "warpedVolume", "studyId"),
            ("idx_rv_study", "rawVolume", "studyId"),
            ("idx_rv_patient", "rawVolume", "patientId"),
            ("idx_ib_study", "intensityBand", "studyId"),
            ("idx_as_atlas", "atlasStructure", "atlasId"),
            ("idx_ns_name", "neuralStructure", "structureName"),
            ("idx_p_id", "patient", "patientId"),
        ]
        created = []
        for name, table, column in specs:
            self.db.execute(f"create index {name} on {table} ({column})")
            created.append(name)
        return created

    # ------------------------------------------------------------------ #
    # studies
    # ------------------------------------------------------------------ #

    def load_raw_study(
        self,
        data: np.ndarray,
        modality: str,
        patient_id: int,
        date: str = "1993-08-17",
    ) -> int:
        """Store a raw study (the *Raw Volume* entity); returns the study id.

        Raw volumes are stored "in scanline order" (§3.3): slice-major, so
        each acquired slice (the last axis indexes slices) is one contiguous
        piece of the long field and can be fetched alone.
        """
        if data.ndim != 3:
            raise MedicalError("raw studies must be 3-D scanline arrays")
        slice_major = np.ascontiguousarray(
            np.moveaxis(np.asarray(data, dtype=np.uint8), 2, 0)
        )
        with self._unit():
            study_id = self._allocate_id("study")
            raw_lf = self.lfm.create(slice_major.tobytes())
            self.db.execute(
                "insert into rawVolume values (?, ?, ?, ?, ?, ?, ?, ?)",
                [study_id, patient_id, modality, date, *data.shape, raw_lf],
            )
        return study_id

    def read_raw_study(self, study_id: int) -> np.ndarray:
        """Reload a raw study's scanline data as its (x, y, slice) array."""
        row = self.db.execute(
            "select width, height, depth, data from rawVolume where studyId = ?",
            [study_id],
        ).first()
        if row is None:
            raise MedicalError(f"no raw volume for study {study_id}")
        width, height, depth, handle = row
        flat = np.frombuffer(self.lfm.read(handle), dtype=np.uint8)
        return np.moveaxis(flat.reshape(depth, width, height), 0, 2)

    def warp_study(
        self,
        study_id: int,
        atlas: Atlas,
        atlas_grid,
        warp: AffineTransform | None = None,
        registration_reference: np.ndarray | None = None,
    ) -> AffineTransform:
        """Warp a stored raw study into an atlas space (§2.2).

        A raw volume "can be warped to one or more atlas reference brains";
        each call adds one *Warped Volume* row plus its intensity bands.
        ``warp`` supplies a known patient->atlas transform (the
        "semi-automatic" path); otherwise ``registration_reference`` (an
        atlas-space intensity template) drives moment-based registration.
        Returns the warp that was stored.
        """
        with self._unit():
            return self._warp(study_id, self.read_raw_study(study_id), atlas,
                              atlas_grid, warp, registration_reference)

    def _warp(self, study_id, data, atlas, atlas_grid, warp,
              registration_reference) -> AffineTransform:
        """:meth:`warp_study` inside an open unit, on the study's voxels
        ``data`` — read back, or still in hand from storing them."""
        existing = self.db.execute(
            "select count(*) from warpedVolume where studyId = ? and atlasId = ?",
            [study_id, atlas.atlas_id],
        ).scalar()
        if existing:
            raise MedicalError(
                f"study {study_id} is already warped to atlas {atlas.name!r}"
            )
        if warp is None:
            if registration_reference is None:
                raise MedicalError(
                    "warp_study needs either an explicit warp or a registration reference"
                )
            # Register in a common frame: resample the study onto the atlas
            # grid with the plain axis scaling first, then match moments.
            scale = np.diag([atlas_grid.shape[i] / data.shape[i] for i in range(3)])
            base = AffineTransform.from_linear(scale, np.zeros(3))
            roughly = resample_to_grid(data, base, atlas_grid)
            correction = register_moments(roughly, registration_reference)
            warp = correction.compose(base)
        warped_array = resample_to_grid(data, warp, atlas_grid)
        volume = Volume.from_array(warped_array, curve="hilbert")
        volume_lf = self.lfm.create(volume.to_bytes(align=PAGE_SIZE))
        self.db.execute(
            "insert into warpedVolume values (?, ?, ?, " + ", ".join(["?"] * 12) + ")",
            [study_id, atlas.atlas_id, volume_lf, *warp.parameters()],
        )
        self._store_bands(study_id, atlas.atlas_id, volume)
        return warp

    def load_study(
        self,
        data: np.ndarray,
        modality: str,
        patient_id: int,
        atlas: Atlas,
        atlas_grid,
        date: str = "1993-08-17",
        warp: AffineTransform | None = None,
        registration_reference: np.ndarray | None = None,
    ) -> int:
        """The full load pipeline: store raw, warp, band; returns the study id."""
        stored = np.asarray(data, dtype=np.uint8)  # what a read-back gives
        with self._unit():
            study_id = self.load_raw_study(stored, modality, patient_id, date)
            self._warp(study_id, stored, atlas, atlas_grid, warp,
                       registration_reference)
        return study_id

    def _store_bands(self, study_id: int, atlas_id: int, volume: Volume) -> None:
        rows = []
        for band in uniform_bands(volume):
            along = {}  # curve name -> the band along it: one reorder per curve
            for encoding in self.encodings:
                try:
                    curve_name, codec = ENCODING_SPECS[encoding]
                except KeyError:
                    known = ", ".join(sorted(ENCODING_SPECS))
                    raise MedicalError(
                        f"unknown band encoding {encoding!r}; known: {known}"
                    ) from None
                if curve_name not in along:
                    along[curve_name] = band.region.reorder(curve_name)
                region_lf = store_region(self.db, along[curve_name], codec)
                rows.append((study_id, atlas_id, band.low, band.high, encoding, region_lf))
        if rows:  # every band's row in one statement, in the order stored
            self.db.execute(
                "insert into intensityBand values "
                + ", ".join(["(?, ?, ?, ?, ?, ?)"] * len(rows)),
                [value for row in rows for value in row],
            )


def _default_systems(structures: set[str]) -> dict[str, tuple[str, ...]]:
    """Plausible neural-system groupings over whatever structures exist."""
    candidates = {
        "limbic": ("hippocampus_l", "hippocampus_r", "thalamus"),
        "motor": ("putamen_l", "putamen_r", "caudate_l", "caudate_r", "cerebellum"),
        "visual": ("cortex_band", "ntal"),
    }
    return {
        name: tuple(m for m in members if m in structures)
        for name, members in candidates.items()
        if any(m in structures for m in members)
    }
