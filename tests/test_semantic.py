"""Tests for the SQL semantic analyzer (repro.db.semantic).

The bad-query corpus below asserts, per query, the *exact* stable QBxxx
diagnostic code — codes are a public contract and must never drift — and
that rejection happens before execution: no long-field page I/O, no UDF
calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import Database, analyze, register_spatial_functions
from repro.db.functions import FunctionSignature
from repro.db.semantic import check
from repro.db.sql.parser import parse
from repro.errors import (
    AggregateUsageError,
    CatalogError,
    DatabaseError,
    ExecutionError,
    FunctionUsageError,
    ResolutionError,
    SpatialUsageError,
    SqlTypeError,
    StaticAnalysisError,
    TypeCheckError,
    UnsupportedStatementError,
)
from repro.storage import BlockDevice, LongFieldManager
from repro.volumes import Volume
from tests.conftest import ball

PROBE_CALLS = {"count": 0}


@pytest.fixture
def db(rng):
    device = BlockDevice(8 << 20)
    lfm = LongFieldManager(device)
    database = Database(lfm=lfm)
    register_spatial_functions(database)
    database.execute("create table patient (id integer, name text)")
    database.execute(
        "create table study (id integer, patientId integer, data longfield)"
    )
    grid = __import__("repro").GridSpec((8, 8, 8))
    region = ball(grid, (4, 4, 4), 3.0)
    volume = Volume.from_array(rng.integers(0, 9, grid.shape).astype(np.uint8))
    database.execute("insert into patient values (1, 'ann')")
    database.execute(
        "insert into study values (?, ?, ?)", [1, 1, lfm.create(volume.to_bytes())]
    )
    database.execute("create table shapes (shapeId integer, region longfield)")
    database.execute(
        "insert into shapes values (?, ?)", [1, lfm.create(region.to_bytes("naive"))]
    )

    PROBE_CALLS["count"] = 0

    def probe(x):
        PROBE_CALLS["count"] += 1
        return x

    database.register_function("probe", probe)
    return database


# (sql, expected primary code) — one entry per corpus query
BAD_QUERIES = [
    # QB1xx — resolution / structure
    ("select * from nosuch", "QB101"),
    ("insert into nosuch values (1)", "QB101"),
    ("update nosuch set a = 1", "QB101"),
    ("delete from nosuch", "QB101"),
    ("drop table nosuch", "QB101"),
    ("create index idx_nope on nosuch (a)", "QB101"),
    ("select nope from patient", "QB102"),
    ("select p.nope from patient p", "QB102"),
    ("insert into patient (id, nope) values (1, 2)", "QB102"),
    ("update patient set nope = 1", "QB102"),
    ("create index idx_nope2 on patient (nope)", "QB102"),
    ("select id from patient, study", "QB103"),
    ("select nosuchfn(id) from patient", "QB104"),
    ("select * from patient p, study p", "QB105"),
    ("create table patient (a integer)", "QB106"),
    ("select q.id from patient p", "QB107"),
    ("select * from patient where count(*) > 0", "QB110"),
    ("insert into patient values (1, nosuchfn('x'))", "QB104"),
    ("select name from patient having name > 'a'", "QB111"),
    ("select count(probe(sum(id))) from patient", "QB112"),
    ("select * from patient where id in (select id, patientId from study)", "QB113"),
    ("select id from patient where id = (select id, patientId from study)", "QB113"),
    ("select name, count(*) from patient group by id", "QB114"),
    ("select sum(id, patientId) from study", "QB115"),
    # QB2xx — typing
    ("select name + 1 from patient", "QB201"),
    ("select sum(name) from patient", "QB201"),
    ("select * from patient where name > 5", "QB202"),
    ("select voxelCount() from shapes", "QB203"),
    ("select probe() from patient", "QB203"),
    ("select voxelCount(shapeId) from shapes", "QB204"),
    ("select extractVoxels(id, name) from patient", "QB204"),
    ("select regionDilate(region, name) from shapes, patient", "QB204"),
    ("create table t_bad (a floaty)", "QB205"),
    ("insert into patient values (1)", "QB206"),
    ("insert into patient (id) values (1, 2)", "QB206"),
    ("insert into patient values (1, 42)", "QB207"),
    ("insert into patient values ('x', 'bob')", "QB207"),
    ("update patient set name = 7", "QB207"),
    ("create table t_dup (a integer, a text)", "QB208"),
    # QB3xx — spatial / LONGFIELD misuse
    ("select region + 1 from shapes", "QB301"),
    ("select -region from shapes", "QB301"),
    ("select region || 'x' from shapes", "QB301"),
    ("select * from shapes where region and 1", "QB301"),
    ("select * from shapes a, shapes b where a.region < b.region", "QB302"),
    ("select sum(region) from shapes", "QB303"),
    ("select avg(data) from study", "QB303"),
]


class TestBadQueryCorpus:
    @pytest.mark.parametrize("sql,code", BAD_QUERIES, ids=[c for _, c in BAD_QUERIES])
    def test_rejected_with_exact_code(self, db, sql, code):
        with pytest.raises(StaticAnalysisError) as excinfo:
            db.execute(sql)
        assert excinfo.value.code == code
        assert excinfo.value.diagnostics[0].code == code

    @pytest.mark.parametrize("sql,code", BAD_QUERIES, ids=[c for _, c in BAD_QUERIES])
    def test_rejected_before_any_io_or_udf(self, db, sql, code):
        before = db.lfm.stats.copy()
        PROBE_CALLS["count"] = 0
        with pytest.raises(StaticAnalysisError):
            db.execute(sql)
        delta = db.lfm.stats - before
        assert delta.pages_read == 0 and delta.pages_written == 0
        assert delta.read_calls == 0 and delta.write_calls == 0
        assert PROBE_CALLS["count"] == 0

    def test_every_diagnostic_carries_a_span(self, db):
        for sql, _ in BAD_QUERIES:
            with pytest.raises(StaticAnalysisError) as excinfo:
                db.execute(sql)
            assert excinfo.value.span is not None, sql

    def test_rejected_under_executemany(self, db):
        with pytest.raises(ResolutionError):
            db.executemany("insert into nosuch values (?)", [[1], [2]])


class TestExceptionBridging:
    """Static rejection must preserve the legacy exception types."""

    def test_resolution_is_catalog_error(self, db):
        with pytest.raises(CatalogError):
            db.execute("select nope from patient")

    def test_ambiguous_is_catalog_error_with_message(self, db):
        with pytest.raises(CatalogError, match="ambiguous"):
            db.execute("select id from patient, study")

    def test_typing_is_sql_type_error(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("select name + 1 from patient")

    def test_aggregate_misuse_is_execution_error(self, db):
        with pytest.raises(ExecutionError):
            db.execute("select * from patient where count(*) > 0")

    def test_bad_udf_args_are_execution_error(self, db):
        with pytest.raises(ExecutionError):
            db.execute("select extractVoxels(1, 2) from study")

    def test_spatial_misuse_is_sql_type_error(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("select sum(region) from shapes")

    def test_all_bridges_are_static_and_database_errors(self):
        for cls in (ResolutionError, TypeCheckError, SpatialUsageError,
                    AggregateUsageError, FunctionUsageError):
            assert issubclass(cls, StaticAnalysisError)
            assert issubclass(cls, DatabaseError)


class TestDiagnosticsAPI:
    def test_analyze_reports_all_problems(self, db):
        diags = db.analyze("select nope, name + 1, sum(region) from patient, shapes")
        codes = [d.code for d in diags]
        assert "QB102" in codes and "QB201" in codes and "QB303" in codes

    def test_analyze_clean_query_is_empty(self, db):
        assert db.analyze("select name from patient where id = 1") == []

    def test_spans_are_exact(self, db):
        (diag,) = db.analyze("select nope from patient")
        assert diag.code == "QB102"
        assert (diag.span.line, diag.span.column) == (1, 8)

    def test_format_mentions_code_and_location(self, db):
        (diag,) = db.analyze("select nope from patient")
        text = diag.format()
        assert text.startswith("QB102:") and "line 1" in text

    def test_module_level_analyze(self, db):
        stmt = parse("select nope from patient")
        diags = analyze(stmt, db.catalog, db.functions)
        assert [d.code for d in diags] == ["QB102"]
        with pytest.raises(ResolutionError):
            check(stmt, db.catalog, db.functions)


class TestConservativeness:
    """Queries that execute successfully must pass analysis unchanged."""

    def test_params_are_unknown_and_unchecked(self, db):
        result = db.execute("select voxelCount(?) from patient",
                            [db.execute("select region from shapes").scalar()])
        assert result.scalar() > 0

    def test_correlated_subquery_resolves_outward(self, db):
        result = db.execute(
            "select name from patient p where exists "
            "(select 1 from study s where s.patientId = p.id)"
        )
        assert result.rows == [("ann",)]

    def test_order_by_alias_resolves(self, db):
        result = db.execute(
            "select id * 2 as double from patient order by double desc"
        )
        assert result.rows == [(2,)]

    def test_group_key_expressions_allowed(self, db):
        result = db.execute(
            "select upper(name), count(*) from patient group by upper(name)"
        )
        assert result.rows == [("ANN", 1)]

    def test_longfield_equality_is_allowed(self, db):
        result = db.execute(
            "select count(*) from shapes a, shapes b where a.region = b.region"
        )
        assert result.scalar() == 1

    def test_udf_composition_type_checks(self, db):
        result = db.execute(
            "select dataMean(extractVoxels(s.data, sh.region)) "
            "from study s, shapes sh"
        )
        assert isinstance(result.scalar(), float)


class TestExplain:
    def test_explain_rejects_bad_query_without_planning(self, db):
        with pytest.raises(ResolutionError) as excinfo:
            db.explain("select nope from patient")
        assert excinfo.value.code == "QB102"

    def test_explain_non_select_raises_dedicated_error(self, db):
        with pytest.raises(UnsupportedStatementError):
            db.explain("insert into patient values (1, 'b')")
        # legacy callers catching ValueError keep working
        with pytest.raises(ValueError):
            db.explain("delete from patient")

    def test_explain_valid_select_still_works(self, db):
        assert "patient" in db.explain("select name from patient")


class TestRegistryReplace:
    def test_duplicate_registration_rejected(self, db):
        with pytest.raises(CatalogError, match="replace=True"):
            db.register_function("probe", lambda x: x)

    def test_replace_overrides_function_and_signature(self, db):
        db.register_function(
            "probe",
            lambda x, y: (x, y),
            signature=FunctionSignature("probe", 2, 2),
            replace=True,
        )
        sig = db.functions.signature("probe")
        assert (sig.min_args, sig.max_args) == (2, 2)
        # the analyzer now enforces the *new* arity
        with pytest.raises(FunctionUsageError) as excinfo:
            db.execute("select probe(id) from patient")
        assert excinfo.value.code == "QB203"

    def test_derived_arity_from_callable(self, db):
        db.register_function("two_or_three", lambda a, b, c=0: a + b + c)
        sig = db.functions.signature("two_or_three")
        assert (sig.min_args, sig.max_args) == (2, 3)
        with pytest.raises(FunctionUsageError):
            db.execute("select two_or_three(id) from patient")
