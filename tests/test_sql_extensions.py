"""Tests for UPDATE, CREATE/DROP INDEX, and nested query blocks.

The paper's §5.1 notes QBISM relies on "the complex predicate construction
and query block nesting features of the SQL language"; §6.1 mentions the
option of relational indexes.  These tests cover both engine extensions.
"""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.errors import CatalogError, ExecutionError, SqlSyntaxError
from repro.db.sql import parse
from repro.db.sql.ast import CreateIndex, DropIndex, Exists, InSubquery, Subquery, Update
from tests.conftest import executemany, explain


@pytest.fixture
def db():
    db = Database()
    db.execute("create table patient (patientId integer, name text, age integer)")
    db.execute("create table study (studyId integer, patientId integer, modality text)")
    executemany(
        db, "insert into patient values (?, ?, ?)",
        [[1, "alice", 40], [2, "bob", 55], [3, "carol", 40], [4, "dan", 22]],
    )
    executemany(
        db, "insert into study values (?, ?, ?)",
        [[10, 1, "PET"], [11, 1, "MRI"], [12, 2, "PET"]],
    )
    return db


class TestUpdateParsing:
    def test_parse_update(self):
        stmt = parse("update t set a = 1, b = b + 1 where c = 2")
        assert isinstance(stmt, Update)
        assert [col for col, _ in stmt.assignments] == ["a", "b"]
        assert stmt.where is not None

    def test_parse_update_no_where(self):
        assert parse("update t set a = 0").where is None

    def test_parse_create_drop_index(self):
        stmt = parse("create index idx on t (col)")
        assert stmt == CreateIndex("idx", "t", "col")
        assert parse("drop index idx") == DropIndex("idx")

    def test_update_requires_set(self):
        with pytest.raises(SqlSyntaxError):
            parse("update t where a = 1")


class TestUpdateExecution:
    def test_update_with_where(self, db):
        result = db.execute("update patient set age = age + 1 where age = 40")
        assert result.rowcount == 2
        assert db.execute("select count(*) from patient where age = 41").scalar() == 2

    def test_update_all_rows(self, db):
        assert db.execute("update patient set age = 0").rowcount == 4

    def test_update_multiple_columns(self, db):
        db.execute("update patient set name = upper(name), age = age * 2 where patientId = 1")
        assert db.execute("select name, age from patient where patientId = 1").first() == (
            "ALICE", 80,
        )

    def test_update_with_params(self, db):
        db.execute("update patient set age = ? where name = ?", [99, "bob"])
        assert db.execute("select age from patient where patientId = 2").scalar() == 99

    def test_update_type_checked(self, db):
        with pytest.raises(Exception):
            db.execute("update patient set age = 'not a number'")

    def test_update_maintains_indexes(self, db):
        db.execute("create index idx_age on patient (age)")
        db.execute("update patient set age = 77 where patientId = 1")
        rows = db.execute("select name from patient where age = 77").rows
        assert rows == [("alice",)]


class TestIndexes:
    def test_create_and_use(self, db):
        db.execute("create index idx_pid on study (patientId)")
        plan = explain(
            db, "select * from patient p, study s where p.patientId = s.patientId"
        )
        assert "probe study" in plan and "index(patientId)" in plan

    def test_probe_reduces_rows_scanned(self, db):
        sql = (
            "select p.name, s.studyId from patient p, study s "
            "where p.patientId = s.patientId"
        )
        before = db.execute(sql)
        db.execute("create index idx_pid on study (patientId)")
        after = db.execute(sql)
        assert sorted(after.rows) == sorted(before.rows)
        assert after.work.rows_scanned < before.work.rows_scanned

    def test_constant_probe(self, db):
        db.execute("create index idx_name on patient (name)")
        result = db.execute("select age from patient where name = 'carol'")
        assert result.scalar() == 40
        assert result.work.rows_scanned == 1

    def test_index_used_only_for_equality(self, db):
        db.execute("create index idx_age on patient (age)")
        plan = explain(db, "select * from patient where age > 30")
        assert "probe" not in plan

    def test_insert_maintains_index(self, db):
        db.execute("create index idx_name on patient (name)")
        db.execute("insert into patient values (5, 'eve', 33)")
        result = db.execute("select patientId from patient where name = 'eve'")
        assert result.scalar() == 5
        assert result.work.rows_scanned == 1

    def test_delete_maintains_index(self, db):
        db.execute("create index idx_name on patient (name)")
        db.execute("delete from patient where name = 'alice'")
        assert db.execute("select count(*) from patient where name = 'alice'").scalar() == 0

    def test_null_probe_matches_nothing(self, db):
        db.execute("insert into patient values (9, null, null)")
        db.execute("create index idx_name on patient (name)")
        assert db.execute(
            "select count(*) from patient p, study s where p.name = s.modality"
        ).scalar() == 0

    def test_duplicate_index_rejected(self, db):
        db.execute("create index idx_a on patient (age)")
        with pytest.raises(CatalogError):
            db.execute("create index idx_a on study (modality)")
        with pytest.raises(CatalogError):
            db.execute("create index idx_b on patient (age)")

    def test_drop_index(self, db):
        db.execute("create index idx_a on patient (age)")
        db.execute("drop index idx_a")
        assert "probe" not in explain(db, "select * from patient where age = 40")
        with pytest.raises(CatalogError):
            db.execute("drop index idx_a")

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("create index idx_a on study (modality)")
        db.execute("drop table study")
        assert db.catalog.index_names() == []


class TestSubqueries:
    def test_parse_forms(self):
        stmt = parse("select * from t where a in (select b from u)")
        assert isinstance(stmt.where, InSubquery)
        stmt = parse("select * from t where a > (select max(b) from u)")
        assert isinstance(stmt.where.right, Subquery)
        stmt = parse("select * from t where exists (select b from u)")
        assert isinstance(stmt.where, Exists)

    def test_in_subquery(self, db):
        result = db.execute(
            "select name from patient where patientId in "
            "(select patientId from study where modality = 'PET') order by name"
        )
        assert result.column("name") == ["alice", "bob"]

    def test_not_in_subquery(self, db):
        result = db.execute(
            "select name from patient where patientId not in "
            "(select patientId from study) order by name"
        )
        assert result.column("name") == ["carol", "dan"]

    def test_scalar_subquery_comparison(self, db):
        # avg(40, 55, 40, 22) = 39.25: everyone but dan clears it.
        result = db.execute(
            "select name from patient where age > (select avg(age) from patient) "
            "order by name"
        )
        assert result.column("name") == ["alice", "bob", "carol"]

    def test_scalar_subquery_in_select_list(self, db):
        result = db.execute(
            "select name, (select count(*) from study) from patient where patientId = 1"
        )
        assert result.first() == ("alice", 3)

    def test_exists(self, db):
        assert db.execute(
            "select count(*) from patient where exists (select studyId from study)"
        ).scalar() == 4

    def test_not_exists(self, db):
        db.execute("delete from study")
        assert db.execute(
            "select count(*) from patient where not exists (select studyId from study)"
        ).scalar() == 4

    def test_scalar_subquery_empty_is_null(self, db):
        result = db.execute(
            "select (select age from patient where patientId = 99) from patient limit 1"
        )
        assert result.scalar() is None

    def test_scalar_subquery_multirow_rejected(self, db):
        with pytest.raises(ExecutionError, match="more than one row"):
            db.execute("select (select age from patient) from study")

    def test_multicolumn_subquery_rejected(self, db):
        with pytest.raises(ExecutionError, match="one column"):
            db.execute("select * from patient where patientId in (select studyId, patientId from study)")

    def test_correlated_exists(self, db):
        result = db.execute(
            "select name from patient p where exists "
            "(select studyId from study where patientId = p.patientId) "
            "order by name"
        )
        assert result.column("name") == ["alice", "bob"]

    def test_correlated_not_exists(self, db):
        result = db.execute(
            "select name from patient p where not exists "
            "(select studyId from study where patientId = p.patientId) "
            "order by name"
        )
        assert result.column("name") == ["carol", "dan"]

    def test_correlated_scalar_subquery(self, db):
        result = db.execute(
            "select name, (select count(*) from study s where s.patientId = p.patientId) "
            "from patient p order by name"
        )
        assert result.rows == [
            ("alice", 2), ("bob", 1), ("carol", 0), ("dan", 0),
        ]

    def test_correlated_with_unqualified_outer_column(self, db):
        """Unqualified `age` resolves outward when the inner block lacks it."""
        result = db.execute(
            "select name from patient p where exists "
            "(select studyId from study where patientId = p.patientId and age > 50)"
        )
        assert result.rows == [("bob",)]

    def test_inner_scope_shadows_outer(self, db):
        """`patientId` exists in both blocks; the inner table wins."""
        result = db.execute(
            "select count(*) from patient p where patientId in "
            "(select patientId from study)"
        )
        assert result.scalar() == 2  # alice and bob have studies

    def test_correlated_subquery_uses_index(self, db):
        db.execute("create index idx_s_pid on study (patientId)")
        result = db.execute(
            "select name from patient p where exists "
            "(select studyId from study s where s.patientId = p.patientId) "
            "order by name"
        )
        assert result.column("name") == ["alice", "bob"]
        # 4 outer rows + index-probed inner rows (3 study rows total match)
        assert result.work.rows_scanned <= 4 + 3

    def test_in_subquery_in_select_list(self, db):
        result = db.execute(
            "select name, patientId in (select patientId from study) from patient "
            "order by patientId limit 2"
        )
        assert result.rows == [("alice", True), ("bob", True)]

    def test_subquery_in_having(self, db):
        result = db.execute(
            "select age, count(*) from patient group by age "
            "having count(*) > (select count(*) from study where modality = 'MRI') "
            "order by age"
        )
        assert result.rows == [(40, 2)]

    def test_subquery_against_group_key(self, db):
        result = db.execute(
            "select age from patient group by age "
            "having age > (select min(age) from patient) order by age"
        )
        assert result.column("age") == [40, 55]

    def test_truly_unknown_column_still_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute(
                "select name from patient p where exists "
                "(select studyId from study where wibble = 1)"
            )

    def test_nested_subquery_levels(self, db):
        result = db.execute(
            "select name from patient where patientId in "
            "(select patientId from study where studyId in (select studyId from study where modality = 'MRI'))"
        )
        assert result.rows == [("alice",)]

    def test_subquery_runs_once_per_statement(self, db):
        """The nested block executes once, not once per outer row."""
        calls = []
        db.register_function("traced2", lambda x: calls.append(x) or x)
        db.execute(
            "select name from patient where age > (select traced2(min(age)) from patient)"
        )
        assert len(calls) == 1  # 4 outer rows, 1 subquery execution
