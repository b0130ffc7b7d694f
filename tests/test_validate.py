"""Tests for registration-quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.medical import (
    centroid_distance,
    dice_coefficient,
    registration_report,
    resample_to_grid,
    AffineTransform,
)
from repro.regions import Region
from repro.synthdata import build_phantom
from repro.volumes import Volume


class TestDice:
    def test_identical_regions(self, sphere_region):
        assert dice_coefficient(sphere_region, sphere_region) == 1.0

    def test_disjoint_regions(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (4, 4, 4))
        b = Region.from_box(grid3, (8, 8, 8), (12, 12, 12))
        assert dice_coefficient(a, b) == 0.0

    def test_half_overlap(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (4, 4, 4))
        b = Region.from_box(grid3, (2, 0, 0), (6, 4, 4))
        assert dice_coefficient(a, b) == pytest.approx(0.5)

    def test_both_empty(self, grid3):
        empty = Region.empty(grid3)
        assert dice_coefficient(empty, empty) == 1.0

    def test_symmetry(self, sphere_region, blob_region):
        assert dice_coefficient(sphere_region, blob_region) == pytest.approx(
            dice_coefficient(blob_region, sphere_region)
        )


class TestCentroidDistance:
    def test_zero_for_same_region(self, sphere_region):
        assert centroid_distance(sphere_region, sphere_region) == 0.0

    def test_known_shift(self, grid3):
        a = Region.from_box(grid3, (0, 0, 0), (4, 4, 4))
        b = Region.from_box(grid3, (3, 0, 0), (7, 4, 4))
        assert centroid_distance(a, b) == pytest.approx(3.0)


class TestRegistrationReport:
    @pytest.fixture(scope="class")
    def phantom(self):
        return build_phantom(grid_side=32, seed=55)

    def test_perfectly_aligned_study_passes(self, phantom):
        aligned = Volume.from_array((phantom.anatomy * 255).astype(np.uint8))
        report = registration_report(aligned, phantom)
        assert report.envelope_dice > 0.9
        assert report.mass_inside_envelope > 0.95
        assert report.acceptable

    def test_badly_shifted_study_fails(self, phantom):
        reference = (phantom.anatomy * 255).astype(np.uint8)
        shift = AffineTransform.from_params(translation=(14, 0, 0))
        moved = resample_to_grid(reference, shift, phantom.grid)
        report = registration_report(Volume.from_array(moved), phantom)
        assert not report.acceptable
        assert report.envelope_dice < 0.7

    def test_empty_study(self, phantom):
        silent = Volume.from_array(np.zeros(phantom.grid.shape, dtype=np.uint8))
        report = registration_report(silent, phantom)
        assert report.mass_inside_envelope == 0.0
        assert not report.acceptable

    def test_pipeline_output_is_acceptable(self, demo_system):
        """Every study the demo loader warped must pass the sanity bar."""
        from repro.volumes import Volume as V

        for study_id in demo_system.study_ids:
            handle = demo_system.db.execute(
                "select data from warpedVolume where studyId = ?", [study_id]
            ).scalar()
            warped = V.from_bytes(demo_system.lfm.read(handle))
            report = registration_report(warped, demo_system.phantom)
            assert report.acceptable, f"study {study_id}: {report}"
