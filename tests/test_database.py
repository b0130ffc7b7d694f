"""Unit tests for the relational engine: planner, executor, Database facade."""

from __future__ import annotations

import pytest

from repro.db import Database, SqlType
from repro.db.sql import parse
from repro.db.planner import columns_in, conjuncts_of, plan_select
from repro.db.semantic import check
from repro.errors import (
    CatalogError,
    ExecutionError,
    SqlTypeError,
)


@pytest.fixture
def db():
    db = Database()
    db.execute("create table patient (patientId integer, name text, age integer)")
    db.execute("create table study (studyId integer, patientId integer, modality text)")
    db.executemany(
        "insert into patient values (?, ?, ?)",
        [[1, "alice", 40], [2, "bob", 55], [3, "carol", 40]],
    )
    db.executemany(
        "insert into study values (?, ?, ?)",
        [[10, 1, "PET"], [11, 1, "MRI"], [12, 2, "PET"], [13, 3, "PET"]],
    )
    return db


class TestDdlAndDml:
    def test_create_and_insert(self, db):
        assert set(db.table_names()) == {"patient", "study"}
        assert db.execute("select count(*) from patient").scalar() == 3

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("create table patient (x integer)")

    def test_drop_table(self, db):
        db.execute("drop table study")
        assert db.table_names() == ["patient"]
        with pytest.raises(CatalogError):
            db.execute("select * from study")

    def test_insert_named_columns(self, db):
        db.execute("insert into patient (patientId, name) values (4, 'dan')")
        row = db.execute("select age from patient where patientId = 4").scalar()
        assert row is None  # unspecified column becomes NULL

    def test_insert_type_checked(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("insert into patient values ('oops', 'x', 1)")

    def test_insert_arity_checked(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("insert into patient values (1, 'x')")

    def test_delete_with_where(self, db):
        result = db.execute("delete from study where modality = 'PET'")
        assert result.rowcount == 3
        assert db.execute("select count(*) from study").scalar() == 1

    def test_delete_all(self, db):
        assert db.execute("delete from patient").rowcount == 3

    def test_unknown_type_rejected(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("create table t (x wibble)")


class TestSelect:
    def test_projection(self, db):
        result = db.execute("select name, age from patient where patientId = 2")
        assert result.columns == ["name", "age"]
        assert result.rows == [("bob", 55)]

    def test_star(self, db):
        result = db.execute("select * from patient where name = 'alice'")
        assert result.rows == [(1, "alice", 40)]
        assert result.columns == ["patientId", "name", "age"]

    def test_case_insensitive_columns(self, db):
        result = db.execute("select PATIENTID from patient where NAME = 'bob'")
        assert result.rows == [(2,)]

    def test_join(self, db):
        result = db.execute(
            """
            select p.name, s.modality
            from patient p, study s
            where p.patientId = s.patientId and s.modality = 'PET'
            order by p.name
            """
        )
        assert result.rows == [("alice", "PET"), ("bob", "PET"), ("carol", "PET")]

    def test_three_way_join(self, db):
        db.execute("create table site (studyId integer, room text)")
        db.execute("insert into site values (10, 'A'), (12, 'B')")
        result = db.execute(
            """
            select p.name, site.room
            from patient p, study s, site
            where p.patientId = s.patientId and s.studyId = site.studyId
            order by site.room
            """
        )
        assert result.rows == [("alice", "A"), ("bob", "B")]

    def test_expressions_in_select(self, db):
        result = db.execute("select age * 2 + 1 from patient where patientId = 1")
        assert result.scalar() == 81

    def test_string_concat(self, db):
        result = db.execute("select name || '!' from patient where patientId = 2")
        assert result.scalar() == "bob!"

    def test_order_by_desc(self, db):
        result = db.execute("select age from patient order by age desc, patientId")
        assert result.column("age") == [55, 40, 40]

    def test_order_by_select_alias(self, db):
        result = db.execute(
            "select name, age * 2 as doubled from patient order by doubled desc"
        )
        assert result.column("doubled") == [110, 80, 80]

    def test_order_by_alias_in_grouped_query(self, db):
        result = db.execute(
            "select age, count(*) as n from patient group by age order by n desc"
        )
        assert result.rows == [(40, 2), (55, 1)]

    def test_limit(self, db):
        result = db.execute("select * from patient order by patientId limit 2")
        assert len(result) == 2

    def test_distinct(self, db):
        result = db.execute("select distinct age from patient order by age")
        assert result.rows == [(40,), (55,)]

    def test_in_predicate(self, db):
        result = db.execute("select name from patient where patientId in (1, 3) order by name")
        assert result.column("name") == ["alice", "carol"]

    def test_between(self, db):
        result = db.execute("select count(*) from patient where age between 39 and 41")
        assert result.scalar() == 2

    def test_is_null(self, db):
        db.execute("insert into patient values (9, null, null)")
        assert db.execute("select count(*) from patient where name is null").scalar() == 1
        assert db.execute("select count(*) from patient where name is not null").scalar() == 3

    def test_null_comparison_is_false(self, db):
        db.execute("insert into patient values (9, null, null)")
        assert db.execute("select count(*) from patient where age > 0").scalar() == 3

    def test_params(self, db):
        result = db.execute("select name from patient where age = ? and patientId > ?", [40, 1])
        assert result.rows == [("carol",)]

    def test_missing_param_errors(self, db):
        with pytest.raises(ExecutionError, match="parameter"):
            db.execute("select * from patient where age = ?")

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(CatalogError, match="ambiguous"):
            db.execute("select patientId from patient, study")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("select wibble from patient")

    def test_unknown_alias_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("select q.name from patient p")

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("select * from patient p, study p")

    def test_division(self, db):
        assert db.execute("select 7 / 2 from patient limit 1").scalar() == 3.5
        assert db.execute("select 8 / 2 from patient limit 1").scalar() == 4

    def test_division_by_zero(self, db):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute("select 1 / 0 from patient")


class TestAggregates:
    def test_count_star(self, db):
        assert db.execute("select count(*) from study").scalar() == 4

    def test_count_column_skips_nulls(self, db):
        db.execute("insert into patient values (9, null, null)")
        assert db.execute("select count(name) from patient").scalar() == 3

    def test_sum_avg_min_max(self, db):
        result = db.execute("select sum(age), avg(age), min(age), max(age) from patient")
        assert result.rows == [(135, 45.0, 40, 55)]

    def test_aggregate_with_filter(self, db):
        assert db.execute("select count(*) from patient where age = 40").scalar() == 2

    def test_aggregate_on_empty_input(self, db):
        result = db.execute("select max(age), count(*) from patient where age > 1000")
        assert result.rows == [(None, 0)]

    def test_bare_column_with_aggregate_rejected(self, db):
        with pytest.raises(ExecutionError, match="must appear in GROUP BY"):
            db.execute("select name, count(*) from patient")

    def test_group_by(self, db):
        result = db.execute(
            "select age, count(*) n from patient group by age order by age"
        )
        assert result.rows == [(40, 2), (55, 1)]

    def test_group_by_join(self, db):
        result = db.execute(
            """
            select p.name, count(*) studies
            from patient p, study s
            where p.patientId = s.patientId
            group by p.name
            order by p.name
            """
        )
        assert result.rows == [("alice", 2), ("bob", 1), ("carol", 1)]

    def test_group_by_having(self, db):
        result = db.execute(
            "select age from patient group by age having count(*) > 1"
        )
        assert result.rows == [(40,)]

    def test_group_by_expression_over_aggregates(self, db):
        result = db.execute(
            "select age, max(patientId) - min(patientId) from patient "
            "group by age order by age"
        )
        assert result.rows == [(40, 2), (55, 0)]

    def test_group_by_empty_input(self, db):
        result = db.execute(
            "select age, count(*) from patient where age > 900 group by age"
        )
        assert result.rows == []

    def test_having_without_group_rejected(self, db):
        with pytest.raises(ExecutionError, match="HAVING"):
            db.execute("select name from patient having age > 1")

    def test_nested_aggregate_rejected(self, db):
        with pytest.raises(ExecutionError, match="nested"):
            db.execute("select sum(count(age)) from patient group by age")

    def test_scalar_function_of_group_key(self, db):
        result = db.execute(
            "select upper(name), count(*) from patient group by upper(name) "
            "order by upper(name) limit 1"
        )
        assert result.rows == [("ALICE", 1)]

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("select name from patient where count(*) > 1")


class TestNullOrdering:
    """NULLs sort high — last ascending, first descending (the
    DB2/Starburst convention) — and never escape as a bare TypeError."""

    @pytest.fixture
    def t(self):
        db = Database()
        db.execute("create table t (a integer, b text)")
        db.executemany("insert into t values (?, ?)",
                       [[2, "x"], [None, "y"], [1, None], [2, None]])
        return db

    def test_ascending_puts_null_last(self, t):
        assert t.execute("select a from t order by a").column("a") == [1, 2, 2, None]

    def test_descending_puts_null_first(self, t):
        assert t.execute("select a from t order by a desc").column("a") == [None, 2, 2, 1]

    def test_multi_key(self, t):
        rows = t.execute("select a, b from t order by a desc, b").rows
        assert rows == [(None, "y"), (2, "x"), (2, None), (1, None)]

    def test_grouped(self, t):
        rows = t.execute("select b, count(*) from t group by b order by b").rows
        assert rows == [("x", 1), ("y", 1), (None, 2)]
        rows = t.execute(
            "select b, max(a) m from t group by b order by m desc, b").rows
        assert rows == [("y", None), ("x", 2), (None, 2)]

    def test_incomparable_keys_raise_a_typed_error(self, t):
        with pytest.raises(SqlTypeError, match="order"):
            t.execute("select coalesce(b, a) k from t order by k")
        with pytest.raises(SqlTypeError, match="order"):
            t.execute("select a from t order by coalesce(b, a) desc")


class TestAggregateTypeErrors:
    @pytest.mark.parametrize("call", ["avg(?)", "sum(?)"])
    def test_fold_over_text_is_a_type_error(self, db, call):
        with pytest.raises(SqlTypeError, match="aggregate"):
            db.execute(f"select {call} from patient", ["x"])

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_min_max_over_mixed_types(self, db, name):
        db.register_function("mixed", lambda i: i if i % 2 else str(i))
        with pytest.raises(SqlTypeError, match="aggregate"):
            db.execute(f"select {name}(mixed(patientId)) from patient")


class TestGroupedShortCircuit:
    """HAVING and grouped select items run the evaluator WHERE runs: the
    right operand of AND / OR is not evaluated once the left decides."""

    @pytest.mark.parametrize("where, having", [
        ("patientId > 100 and 1 / 0 > 1", "count(*) > 100 and 1 / 0 > 1"),
        ("patientId > 0 or 1 / 0 > 1", "count(*) > 0 or 1 / 0 > 1"),
    ])
    def test_where_and_having_agree(self, db, where, having):
        in_where = db.execute(f"select count(*) from patient where {where}")
        in_having = db.execute(f"select count(*) from patient having {having}")
        in_items = db.execute(f"select {having} from patient")
        assert in_where.scalar() in (0, 3)
        assert len(in_having.rows) == (in_where.scalar() > 0)
        assert in_items.scalar() is (in_where.scalar() > 0)

    @pytest.mark.parametrize("clause", ["where patientId > 0 and 1 / 0 > 1",
                                        "having count(*) > 0 and 1 / 0 > 1"])
    def test_the_decisive_side_still_raises(self, db, clause):
        with pytest.raises(ExecutionError, match="division by zero"):
            db.execute(f"select count(*) from patient {clause}")


class TestFunctions:
    def test_builtin_functions(self, db):
        assert db.execute("select upper(name) from patient where patientId = 1").scalar() == "ALICE"
        assert db.execute("select length(name) from patient where patientId = 2").scalar() == 3
        assert db.execute("select abs(0 - age) from patient where patientId = 1").scalar() == 40

    def test_coalesce(self, db):
        db.execute("insert into patient values (9, null, null)")
        result = db.execute("select coalesce(name, 'unknown') from patient where patientId = 9")
        assert result.scalar() == "unknown"

    def test_user_registered_function(self, db):
        db.register_function("double", lambda x: x * 2)
        assert db.execute("select double(age) from patient where patientId = 2").scalar() == 110

    def test_function_with_ctx(self, db):
        def counted(ctx, x):
            ctx.work.runs_processed += 5
            return x

        db.register_function("counted", counted)
        result = db.execute("select counted(1) from patient where patientId = 1")
        assert result.work.runs_processed == 5
        assert result.work.udf_calls == 1

    def test_execution_context_dies_with_the_statement(self, db):
        """No reference cycle outlives a SELECT: its context — LFM view,
        parameters, plan table — is freed by reference counting alone,
        so a dropped database does not wait for a full collection."""
        import gc
        import weakref

        seen = []
        db.register_function(
            "peek", lambda ctx, x: seen.append(weakref.ref(ctx)) or x)
        gc.collect()
        gc.disable()
        try:
            rows = db.execute(
                "select peek(s.studyId) from patient p, study s"
                " where s.patientId = p.patientId and p.age >= ? limit 2", [50])
            assert len(rows.rows) == 1 and seen
            assert all(ref() is None for ref in seen)
        finally:
            gc.enable()

    def test_repeated_call_memoized_within_row(self, db):
        """A function in both WHERE and the select list runs once per row."""
        calls = []

        def traced(ctx, x):
            calls.append(x)
            return x * 10

        db.register_function("traced", traced)
        result = db.execute(
            "select traced(age) from patient where traced(age) > 100 and patientId < 3"
        )
        assert sorted(result.column("traced")) == [400, 550]
        assert len(calls) == 3  # once per scanned row, not twice

    def test_cache_invalidated_across_rows(self, db):
        db.register_function("ident", lambda x: x)
        result = db.execute("select ident(age) from patient order by patientId")
        assert result.column("ident") == [40, 55, 40]

    def test_duplicate_function_rejected(self, db):
        db.register_function("f", lambda: 1)
        with pytest.raises(CatalogError):
            db.register_function("F", lambda: 2)

    def test_unknown_function(self, db):
        with pytest.raises(CatalogError):
            db.execute("select nosuch(1) from patient")

    def test_function_failure_wrapped(self, db):
        db.register_function("boom", lambda: 1 / 0)
        with pytest.raises(ExecutionError, match="boom"):
            db.execute("select boom() from patient")


class TestPlanner:
    def test_conjuncts_flattened(self):
        stmt = parse("select * from t where a = 1 and b = 2 and c = 3")
        assert len(conjuncts_of(stmt.where)) == 3

    def test_columns_in_nested_expr(self):
        stmt = parse("select * from t where f(a, g(b)) = c + 1")
        names = {c.name for c in columns_in(stmt.where)}
        assert names == {"a", "b", "c"}

    def test_plan_starts_with_most_filtered_table(self, db):
        plan = db.explain(
            "select * from patient p, study s "
            "where p.patientId = s.patientId and s.studyId = 12 and s.modality = 'PET'"
        )
        assert plan.splitlines()[0].startswith("scan study")

    def test_predicates_pushed_to_earliest_level(self, db):
        stmt = parse(
            "select * from patient p, study s "
            "where p.age = 40 and p.patientId = s.patientId"
        )
        plan = plan_select(stmt, db.catalog, check(stmt, db.catalog))
        # The single-table predicate lands at the patient level, join at level 2.
        assert len(plan.level_predicates[0]) >= 1
        assert sum(len(p) for p in plan.level_predicates) == 2

    def test_explain_rejects_non_select(self, db):
        with pytest.raises(ValueError):
            db.explain("drop table patient")

    def test_work_counters_track_scans(self, db):
        result = db.execute("select * from patient")
        assert result.work.rows_scanned == 3
        assert result.work.rows_output == 3
