"""Tests for the error hierarchy, package exports, and bench harness helpers."""

from __future__ import annotations

import pytest

import repro
from repro import errors
from repro.bench import (
    PAPER_RUN_RATIOS,
    PAPER_SIZE_RATIOS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    ratio_line,
)
from repro.core.timing import Table4Row, TimingBreakdown, format_table3, format_table4


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaf_errors = [
            errors.GridMismatchError,
            errors.CurveMismatchError,
            errors.CodecError,
            errors.AllocationError,
            errors.LongFieldError,
            errors.SqlSyntaxError,
            errors.SqlTypeError,
            errors.CatalogError,
            errors.ExecutionError,
            errors.RegistrationError,
            errors.MedicalError,
        ]
        for cls in leaf_errors:
            assert issubclass(cls, errors.ReproError), cls

    def test_value_errors_double_as_value_errors(self):
        assert issubclass(errors.CodecError, ValueError)
        assert issubclass(errors.GridMismatchError, ValueError)

    def test_sql_syntax_error_location(self):
        exc = errors.SqlSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(exc) and "column 7" in str(exc)
        assert exc.line == 3 and exc.column == 7

    def test_catalog_error_is_lookup_error(self):
        assert issubclass(errors.CatalogError, KeyError)


class TestPackageExports:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_lazy_exports_resolve(self):
        assert repro.Region.__name__ == "Region"
        assert repro.Volume.__name__ == "Volume"
        assert repro.DataRegion.__name__ == "DataRegion"
        assert repro.QbismSystem.__name__ == "QbismSystem"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing


class TestBenchHarness:
    def test_paper_constants_shape(self):
        assert set(PAPER_TABLE3) == {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}
        assert all(len(v) == 12 for v in PAPER_TABLE3.values())
        assert len(PAPER_TABLE4) == 3
        assert PAPER_RUN_RATIOS[0] == 1.0
        assert PAPER_SIZE_RATIOS["entropy"] == 1.0

    def test_ratio_line(self):
        line = ratio_line("x", [2.0, 4.0, 6.0], ["a", "b", "c"])
        assert "1.00 : 2.00 : 3.00" in line
        assert "(a : b : c)" in line

    def test_ratio_line_zero_base(self):
        with pytest.raises(ValueError):
            ratio_line("x", [0.0, 1.0], ["a", "b"])


class TestCounterArithmetic:
    def test_iostats_add_sub(self):
        from repro.storage import IOStats

        a = IOStats(pages_read=5, bytes_read=100)
        b = IOStats(pages_read=2, bytes_read=30)
        assert (a + b).pages_read == 7
        assert (a - b).bytes_read == 70
        assert a.copy() is not a

    def test_workcounters_add_sub(self):
        from repro.db import WorkCounters

        a = WorkCounters(runs_processed=10, udf_calls=2)
        b = WorkCounters(runs_processed=4)
        assert (a + b).runs_processed == 14
        assert (a - b).udf_calls == 2

    def test_counters_reset(self):
        from repro.db import WorkCounters

        w = WorkCounters(rows_scanned=9)
        w.reset()
        assert w.rows_scanned == 0


class TestTimingFormatting:
    def test_table3_total_is_sum_of_components(self):
        t = TimingBreakdown(
            label="q", runs=1, voxels=2, lfm_page_ios=3,
            starburst_cpu=0.1, starburst_real=1.0,
            net_messages=4, net_seconds=2.0,
            import_cpu=0.2, import_real=0.5,
            render_seconds=10.0, other_seconds=3.5,
        )
        assert t.total_seconds == pytest.approx(17.0)

    def test_format_table3_alignment(self):
        t = TimingBreakdown("q", 1, 2, 3, 0.1, 1.0, 4, 2.0, 0.2, 0.5, 10.0, 3.5)
        text = format_table3([t, t])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_format_table4(self):
        row = Table4Row("h-runs", 10, 0.5, 1.5, 100, 1000)
        assert "h-runs" in format_table4([row])

    def test_format_table3_interleaves_paper_rows(self):
        t = TimingBreakdown("Q1: q", 1, 2, 3, 0.1, 1.0, 4, 2.0, 0.2, 0.5, 10.0, 3.5)
        u = TimingBreakdown("Q9: u", 5, 6, 7, 0.1, 1.0, 4, 2.0, 0.2, 0.5, 10.0, 3.5)
        lines = format_table3([t, u], [PAPER_TABLE3["Q1"], PAPER_TABLE3["Q2"]]).splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["Q1:", "(paper)", "Q9:", "(paper)"]
        assert lines[3].split()[1:4] == ["1", "2097152", "513"]  # Q1's paper row
        assert len(set(map(len, lines))) == 1  # aligned
        with pytest.raises(ValueError):  # one paper row per measured row
            format_table4([Table4Row("h", 1, 0.1, 0.2, 1, 1)], [])
