"""Integration tests for the medical layer: schema, loader, server.

These run against a freshly loaded small database (not the shared session
fixture) so they can assert on exact load-time artifacts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import Database, register_spatial_functions
from repro.errors import MedicalError
from repro.medical import (
    MEDICAL_TABLES,
    MedicalLoader,
    MedicalServer,
    QuerySpec,
    create_medical_schema,
)
from repro.regions import Region
from repro.storage import BlockDevice, LongFieldManager
from repro.synthdata import build_phantom, generate_pet_studies
from repro.volumes import DataRegion, Volume


@pytest.fixture(scope="module")
def loaded():
    device = BlockDevice(256 << 20)
    lfm = LongFieldManager(device)
    db = Database(lfm=lfm)
    register_spatial_functions(db)
    create_medical_schema(db)
    phantom = build_phantom(grid_side=32, seed=77)
    loader = MedicalLoader(db, lfm, encodings=("hilbert-naive", "z-naive", "octant"))
    atlas = loader.load_atlas(phantom)
    studies = generate_pet_studies(phantom, count=2, seed=78)
    study_ids = []
    for i, study in enumerate(studies):
        patient = loader.register_patient(f"p{i}", "1950-01-01", "F", 44)
        study_ids.append(
            loader.load_study(
                study.data,
                "PET",
                patient.patient_id,
                atlas,
                phantom.grid,
                warp=study.patient_to_atlas,
            )
        )
    return db, lfm, phantom, atlas, loader, study_ids


class TestSchema:
    def test_all_tables_created(self, loaded):
        db = loaded[0]
        assert {t.lower() for t in MEDICAL_TABLES} <= {
            t.lower() for t in db.table_names()
        }

    def test_atlas_row(self, loaded):
        db, _, phantom, atlas, _, _ = loaded
        row = db.execute("select atlasName, n from atlas").first()
        assert row == ("Talairach", 32)

    def test_structures_registered(self, loaded):
        db, _, phantom, _, _, _ = loaded
        count = db.execute("select count(*) from neuralStructure").scalar()
        assert count == len(phantom.structures)

    def test_systems_reference_structures(self, loaded):
        db = loaded[0]
        orphans = db.execute(
            """
            select count(*) from systemStructure ss, neuralStructure ns
            where ss.structureId = ns.structureId
            """
        ).scalar()
        total = db.execute("select count(*) from systemStructure").scalar()
        assert orphans == total > 0


class TestLoader:
    def test_raw_volume_stored_scanline(self, loaded):
        db, lfm, _, _, _, study_ids = loaded
        row = db.execute(
            "select width, height, depth, data from rawVolume where studyId = ?",
            [study_ids[0]],
        ).first()
        width, height, depth, handle = row
        assert handle.length == width * height * depth

    def test_warped_volume_is_hilbert_cube(self, loaded):
        db, lfm, phantom, _, _, study_ids = loaded
        handle = db.execute(
            "select data from warpedVolume where studyId = ?", [study_ids[0]]
        ).scalar()
        volume = Volume.from_bytes(lfm.read(handle))
        assert volume.grid.shape == phantom.grid.shape
        assert volume.curve.name == "hilbert"

    def test_warp_parameters_stored(self, loaded):
        db, _, _, _, _, study_ids = loaded
        row = db.execute(
            "select w11, w22, w33 from warpedVolume where studyId = ?", [study_ids[0]]
        ).first()
        # Diagonal terms of a near-axis-scaling warp are positive.
        assert all(v > 0 for v in row)

    def test_bands_stored_per_encoding(self, loaded):
        db, _, _, _, _, study_ids = loaded
        for encoding in ("hilbert-naive", "z-naive", "octant"):
            count = db.execute(
                "select count(*) from intensityBand where studyId = ? and encoding = ?",
                [study_ids[0], encoding],
            ).scalar()
            assert count == 8  # width-32 bands over 0-255

    def test_bands_partition_the_volume(self, loaded):
        db, lfm, phantom, _, _, study_ids = loaded
        result = db.execute(
            "select region from intensityBand where studyId = ? and encoding = 'hilbert-naive'",
            [study_ids[0]],
        )
        total = 0
        for (handle,) in result:
            total += Region.from_bytes(lfm.read(handle)).voxel_count
        assert total == phantom.grid.size

    def test_band_encodings_agree_spatially(self, loaded):
        db, lfm, _, _, _, study_ids = loaded
        regions = {}
        for encoding in ("hilbert-naive", "z-naive", "octant"):
            handle = db.execute(
                "select region from intensityBand "
                "where studyId = ? and encoding = ? and low = 96",
                [study_ids[0], encoding],
            ).scalar()
            regions[encoding] = Region.from_bytes(lfm.read(handle))
        masks = [r.to_mask() for r in regions.values()]
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_unknown_encoding_rejected(self, loaded):
        db, lfm, phantom, atlas, loader, _ = loaded
        study = generate_pet_studies(phantom, count=1, seed=99)[0]
        patient = loader.register_patient("x", "1960-01-01", "M", 30)
        study_id = loader.load_raw_study(study.data, "PET", patient.patient_id)
        bad = MedicalLoader(db, lfm, encodings=("gzip",))
        with pytest.raises(MedicalError, match="unknown band encoding"):
            bad.warp_study(
                study_id, atlas, phantom.grid, warp=study.patient_to_atlas
            )

    def test_load_requires_warp_or_reference(self, loaded):
        db, lfm, phantom, atlas, loader, _ = loaded
        study = generate_pet_studies(phantom, count=1, seed=100)[0]
        with pytest.raises(MedicalError, match="registration reference"):
            loader.load_study(study.data, "PET", 1, atlas, phantom.grid)

    def test_moment_registration_path(self, loaded):
        db, lfm, phantom, atlas, loader, _ = loaded
        study = generate_pet_studies(phantom, count=1, seed=101)[0]
        patient = loader.register_patient("reg", "1970-01-01", "F", 25)
        reference = (phantom.anatomy * 255).astype(np.uint8)
        study_id = loader.load_study(
            study.data, "PET", patient.patient_id, atlas, phantom.grid,
            registration_reference=reference,
        )
        handle = db.execute(
            "select data from warpedVolume where studyId = ?", [study_id]
        ).scalar()
        warped = Volume.from_bytes(lfm.read(handle))
        # The warped brain must overlap the envelope substantially.
        brain_mean = warped.extract(phantom.envelope).mean()
        outside_mean = warped.extract(phantom.envelope.complement()).mean()
        assert brain_mean > 2 * outside_mean

    def test_pipeline_output_overlaps_the_phantom_envelope(self, demo_system):
        """Every study the demo loader warped lands on the atlas: its bright
        voxels (above a tenth of its maximum) overlap the phantom envelope
        with Dice > 0.7, and > 0.8 of its intensity mass lies inside it."""
        envelope = demo_system.phantom.envelope.to_mask()
        for study_id in demo_system.study_ids:
            handle = demo_system.db.execute(
                "select data from warpedVolume where studyId = ?", [study_id]
            ).scalar()
            warped = Volume.from_bytes(demo_system.lfm.read(handle))
            values = warped.to_array().astype(np.float64)
            bright = values > 0.1 * values.max()
            dice = 2 * (bright & envelope).sum() / (bright.sum() + envelope.sum())
            mass_inside = values[envelope].sum() / values.sum()
            assert dice > 0.7, f"study {study_id}: envelope Dice {dice:.3f}"
            assert mass_inside > 0.8, (
                f"study {study_id}: mass inside envelope {mass_inside:.3f}")


class TestServer:
    def test_metadata_query(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(QuerySpec(study_id=study_ids[0]))
        assert result.metadata["n"] == 32
        assert result.metadata["atlasId"] == 1
        assert "name" in result.metadata

    def test_generated_sql_matches_paper_shape(self, loaded):
        db = loaded[0]
        server = MedicalServer(db)
        spec = QuerySpec(study_id=loaded[5][0], structures=("putamen_l",))
        result = server.execute(spec)
        data_sql = result.sql[1].lower()
        assert "extractvoxels" in data_sql
        assert "atlasstructure" in data_sql
        assert "neuralstructure" in data_sql
        assert "structurename = ?" in data_sql

    def test_structure_query_returns_structure_data(self, loaded):
        db, lfm, phantom, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], structures=("thalamus",))
        )
        assert result.data.region == phantom.structures["thalamus"]

    def test_union_of_structures(self, loaded):
        db, _, phantom, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], structures=("putamen_l", "putamen_r"))
        )
        expected = phantom.structures["putamen_l"].union(phantom.structures["putamen_r"])
        assert result.data.region == expected

    def test_band_aligned_query(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], intensity_range=(96, 127))
        )
        assert not result.post_filtered
        assert (result.data.values >= 96).all()
        assert (result.data.values <= 127).all()

    def test_multi_band_range(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], intensity_range=(96, 159))
        )
        assert not result.post_filtered
        assert (result.data.values >= 96).all() and (result.data.values <= 159).all()

    def test_misaligned_range_post_filters(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], intensity_range=(100, 140))
        )
        assert result.post_filtered
        assert (result.data.values >= 100).all() and (result.data.values <= 140).all()

    def test_mixed_query_is_intersection(self, loaded):
        db, _, phantom, _, _, study_ids = loaded
        server = MedicalServer(db)
        mixed = server.execute(
            QuerySpec(study_id=study_ids[0], structures=("ntal1",), intensity_range=(96, 127))
        )
        band_only = server.execute(
            QuerySpec(study_id=study_ids[0], intensity_range=(96, 127))
        )
        expected = band_only.data.region.intersection(phantom.structures["ntal1"])
        assert mixed.data.region == expected

    def test_box_query(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.execute(
            QuerySpec(study_id=study_ids[0], box=((4, 4, 4), (12, 12, 12)))
        )
        assert result.data.voxel_count == 8**3

    def test_unknown_study_rejected(self, loaded):
        server = MedicalServer(loaded[0])
        with pytest.raises(MedicalError, match="no warped volume"):
            server.execute(QuerySpec(study_id=999))

    def test_unknown_structure_returns_no_rows(self, loaded):
        server = MedicalServer(loaded[0])
        with pytest.raises(MedicalError):
            server.execute(QuerySpec(study_id=loaded[5][0], structures=("amygdala",)))

    def test_invalid_intensity_range(self, loaded):
        server = MedicalServer(loaded[0])
        for bad in ((200, 100), (-1, 10), (200, 300)):
            with pytest.raises(MedicalError):
                server.execute(QuerySpec(study_id=loaded[5][0], intensity_range=bad))

    def test_band_consistency_region(self, loaded):
        db, lfm, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        region, query_result = server.band_consistency_region(study_ids, 96, 127)
        # Verify against the stored per-study bands.
        per_study = []
        for sid in study_ids:
            handle = db.execute(
                "select region from intensityBand "
                "where studyId = ? and encoding = 'hilbert-naive' and low = 96",
                [sid],
            ).scalar()
            per_study.append(Region.from_bytes(lfm.read(handle)))
        expected = per_study[0].intersection(*per_study[1:])
        assert region == expected
        assert query_result.io.pages_read > 0

    def test_band_consistency_needs_two_studies(self, loaded):
        server = MedicalServer(loaded[0])
        with pytest.raises(MedicalError):
            server.band_consistency_region([loaded[5][0]], 96, 127)

    def test_average_in_structure(self, loaded):
        db, lfm, phantom, _, _, study_ids = loaded
        server = MedicalServer(db)
        mean_data, outcomes = server.average_in_structure(study_ids, "thalamus")
        assert mean_data.region == phantom.structures["thalamus"]
        assert len(outcomes) == len(study_ids)
        stacked = np.stack([o.data.values.astype(np.float64) for o in outcomes])
        assert np.allclose(mean_data.values, stacked.mean(axis=0))

    def test_find_studies_by_activity(self, loaded):
        db, _, phantom, _, _, study_ids = loaded
        server = MedicalServer(db)
        result = server.find_studies("hippocampus_l", min_mean_intensity=0.0)
        # Other tests in this module may have loaded extra studies.
        assert len(result.rows) >= len(study_ids)
        returned = {row[0] for row in result.rows}
        assert set(study_ids) <= returned
        means = result.column("meanIntensity")
        assert means == sorted(means, reverse=True)
        assert result.columns == ["studyId", "name", "age", "sex", "meanIntensity"]

    def test_find_studies_threshold_filters(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        all_rows = server.find_studies("hippocampus_l", 0.0).rows
        cutoff = all_rows[0][4]  # only the hottest study clears this bar
        top = server.find_studies("hippocampus_l", cutoff).rows
        assert len(top) == 1
        assert top[0][0] == all_rows[0][0]

    def test_find_studies_demographics(self, loaded):
        db = loaded[0]
        server = MedicalServer(db)
        rows = server.find_studies("thalamus", 0.0, sex="F", min_age=40, max_age=50).rows
        for row in rows:
            assert row[3] == "F"
            assert 40 <= row[2] <= 50

    def test_raw_roundtrip_through_lfm(self, loaded):
        db, lfm, phantom, atlas, loader, _ = loaded
        from repro.synthdata import generate_pet_studies

        study = generate_pet_studies(phantom, count=1, seed=501)[0]
        patient = loader.register_patient("raw", "1945-03-03", "F", 61)
        study_id = loader.load_raw_study(study.data, "PET", patient.patient_id)
        assert np.array_equal(loader.read_raw_study(study_id), study.data)

    def test_one_raw_study_warped_to_two_atlases(self, loaded):
        """§2.2: 'a Raw Volume can be warped to one or more atlas reference
        brains' — one raw row, two warped rows, two band sets."""
        db, lfm, phantom, atlas, loader, _ = loaded
        from repro.synthdata import build_phantom, generate_pet_studies

        second_phantom = build_phantom(grid_side=32, seed=909)
        second_atlas = loader.load_atlas(second_phantom, name="Schaltenbrand")
        study = generate_pet_studies(phantom, count=1, seed=502)[0]
        patient = loader.register_patient("multi", "1948-04-04", "M", 57)
        study_id = loader.load_raw_study(study.data, "PET", patient.patient_id)
        loader.warp_study(study_id, atlas, phantom.grid, warp=study.patient_to_atlas)
        loader.warp_study(
            study_id, second_atlas, second_phantom.grid, warp=study.patient_to_atlas
        )
        raw_rows = db.execute(
            "select count(*) from rawVolume where studyId = ?", [study_id]
        ).scalar()
        warped_rows = db.execute(
            "select count(*) from warpedVolume where studyId = ?", [study_id]
        ).scalar()
        assert (raw_rows, warped_rows) == (1, 2)
        # Queries against each atlas hit the matching warped volume.
        server = MedicalServer(db)
        for atlas_name in ("Talairach", "Schaltenbrand"):
            result = server.execute(
                QuerySpec(study_id=study_id, atlas_name=atlas_name)
            )
            assert result.metadata["atlasId"] is not None
            assert result.data.voxel_count == 32**3

    def test_double_warp_to_same_atlas_rejected(self, loaded):
        db, lfm, phantom, atlas, loader, _ = loaded
        from repro.synthdata import generate_pet_studies

        study = generate_pet_studies(phantom, count=1, seed=503)[0]
        patient = loader.register_patient("dup", "1952-02-02", "F", 42)
        study_id = loader.load_study(
            study.data, "PET", patient.patient_id, atlas, phantom.grid,
            warp=study.patient_to_atlas,
        )
        with pytest.raises(MedicalError, match="already warped"):
            loader.warp_study(
                study_id, atlas, phantom.grid, warp=study.patient_to_atlas
            )

    def test_standard_indexes_preserve_answers(self, loaded):
        db, _, _, _, loader, study_ids = loaded
        server = MedicalServer(db)
        before = server.execute(QuerySpec(study_id=study_ids[0], structures=("ntal",)))
        created = loader.create_standard_indexes()
        assert len(created) == 7
        after = server.execute(QuerySpec(study_id=study_ids[0], structures=("ntal",)))
        assert np.array_equal(after.data.values, before.data.values)
        assert after.work.rows_scanned <= before.work.rows_scanned

    def test_raw_slice_matches_source(self, loaded):
        db, lfm, phantom, atlas, loader, study_ids = loaded
        from repro.synthdata import generate_pet_studies

        study = generate_pet_studies(phantom, count=1, seed=402)[0]
        patient = loader.register_patient("slice", "1955-05-05", "M", 39)
        study_id = loader.load_study(
            study.data, "PET", patient.patient_id, atlas, phantom.grid,
            warp=study.patient_to_atlas,
        )
        server = MedicalServer(db)
        k = study.data.shape[2] // 2
        plane, result = server.raw_slice(study_id, k)
        assert np.array_equal(plane, study.data[:, :, k])
        # One slice = one contiguous piece: its pages, not the whole study.
        slice_pages = -(-plane.nbytes // 4096) + 1
        assert result.io.pages_read <= slice_pages + 1

    def test_raw_slice_bounds(self, loaded):
        db, _, _, _, _, study_ids = loaded
        server = MedicalServer(db)
        with pytest.raises(MedicalError, match="out of range"):
            server.raw_slice(study_ids[0], 10_000)
        with pytest.raises(MedicalError, match="no raw volume"):
            server.raw_slice(99_999, 0)

    def test_payload_is_shippable(self, loaded):
        server = MedicalServer(loaded[0])
        result = server.execute(QuerySpec(study_id=loaded[5][0], structures=("ntal",)))
        assert DataRegion.from_bytes(result.payload) == result.data
