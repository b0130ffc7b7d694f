"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import pytest

from repro.__main__ import main, space_rows
from repro.core import QbismSystem


@pytest.fixture(scope="module")
def saved_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "db"
    code = main(
        ["build", "--grid", "32", "--pet", "2", "--mri", "0", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBuildInfo:
    def test_info(self, saved_db, capsys):
        assert main(["info", "--db", str(saved_db)]) == 0
        out = capsys.readouterr().out
        assert "Talairach" in out
        assert "warpedVolume" in out
        assert "PET studies: [1, 2]" in out


class TestSpace:
    def test_rows_sum_to_the_managers_totals(self):
        system = QbismSystem.build_demo(
            grid_side=16, n_pet=1, n_mri=1,
            band_encodings=("hilbert-naive", "z-naive", "octant"))
        rows = space_rows(system.db)
        labels = [label for label, *_ in rows]
        for label in ("atlasStructure.region", "atlasStructure.surfaceMesh",
                      "rawVolume.data", "warpedVolume.data",
                      "intensityBand.region [hilbert-naive]",
                      "intensityBand.region [z-naive]", "intensityBand.region [octant]"):
            assert label in labels
        lfm = system.lfm
        assert sum(row[1] for row in rows) == lfm.field_count
        assert sum(row[2] for row in rows) == lfm.stored_bytes
        assert sum(row[3] for row in rows) == lfm.allocated_bytes

    def test_info_prints_the_table(self, saved_db, capsys):
        assert main(["info", "--db", str(saved_db), "--space"]) == 0
        out = capsys.readouterr().out
        assert "intensityBand.region [hilbert-naive]" in out
        assert "(no row names it)" in out


class TestQuery:
    def test_structure_query(self, saved_db, capsys):
        code = main(
            ["query", "--db", str(saved_db), "--study", "1", "--structure", "ntal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "voxels in" in out
        assert "LFM I/Os" in out

    def test_band_query_with_sql(self, saved_db, capsys):
        code = main(
            ["query", "--db", str(saved_db), "--band", "224", "255", "--sql"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "extractVoxels" in out

    def test_box_query_writes_image(self, saved_db, tmp_path, capsys):
        image = tmp_path / "probe.pgm"
        code = main(
            [
                "query", "--db", str(saved_db),
                "--box", "4", "4", "4", "20", "20", "20",
                "--render", "mip", "--image", str(image),
            ]
        )
        assert code == 0
        assert image.read_bytes().startswith(b"P5\n")


class TestTable3:
    def test_table3_fresh_build(self, capsys):
        code = main(["table3", "--grid", "32", "--pet", "1", "--mri", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Q1: entire study" in out
        assert "Q6: band in ntal1" in out


class TestArgHandling:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            main(["build"])
