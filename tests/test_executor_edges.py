"""Edge-case tests for expression evaluation and result handling."""

from __future__ import annotations

import sqlite3

import pytest

from repro.db import Database
from repro.db.semantic import check
from repro.db.sql import parse
from repro.errors import ExecutionError, ResolutionError, SqlTypeError
from tests.conftest import executemany, explain


@pytest.fixture
def db():
    db = Database()
    db.execute("create table t (id integer, name text, score real, flag boolean)")
    executemany(
        db, "insert into t values (?, ?, ?, ?)",
        [
            [1, "a", 1.5, True],
            [2, "b", None, False],
            [3, None, 3.0, None],
        ],
    )
    return db


class TestNullPropagation:
    def test_arithmetic_with_null_is_null(self, db):
        result = db.execute("select score + 1 from t where id = 2")
        assert result.scalar() is None

    def test_concat_with_null_is_null(self, db):
        assert db.execute("select name || 'x' from t where id = 3").scalar() is None

    def test_unary_minus_null(self, db):
        assert db.execute("select -score from t where id = 2").scalar() is None

    def test_not_null_is_null(self, db):
        assert db.execute("select not flag from t where id = 3").scalar() is None

    def test_comparisons_with_null_filter_out(self, db):
        assert db.execute("select count(*) from t where score < 10").scalar() == 2

    def test_aggregates_skip_null(self, db):
        result = db.execute("select avg(score), count(score), count(*) from t")
        assert result.rows == [(2.25, 2, 3)]


class TestBooleansAndLiterals:
    def test_boolean_column_in_where(self, db):
        assert db.execute("select id from t where flag = true").rows == [(1,)]

    def test_literal_true_false(self, db):
        assert db.execute("select count(*) from t where true").scalar() == 3
        assert db.execute("select count(*) from t where false").scalar() == 0

    def test_boolean_not_storable_in_integer(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("insert into t values (true, 'x', 1.0, true)")

    def test_int_accepted_in_real_column(self, db):
        db.execute("insert into t values (4, 'd', 7, false)")
        value = db.execute("select score from t where id = 4").scalar()
        assert value == 7.0 and isinstance(value, float)

    def test_whole_float_accepted_in_integer_column(self, db):
        db.execute("insert into t (id) values (5.0)")
        assert db.execute("select count(*) from t where id = 5").scalar() == 1

    def test_fractional_float_rejected_in_integer_column(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("insert into t (id) values (5.5)")


class TestExpressionEdges:
    def test_nested_parentheses(self, db):
        assert db.execute("select ((1 + 2)) * (3 - (1)) from t limit 1").rows[0][0] == 6

    def test_mixed_type_comparison_rejected(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("select count(*) from t where name > 5")

    def test_mixed_type_arithmetic_rejected(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("select name + 1 from t where id = 1")

    def test_concat_coerces_numbers(self, db):
        assert db.execute("select 'id=' || id from t where id = 1").scalar() == "id=1"

    def test_unary_minus_chains(self, db):
        # note: `--` would start a comment, so the chain needs parentheses
        assert db.execute("select -(-id) from t where id = 2").scalar() == 2

    def test_star_in_where_rejected(self, db):
        from repro.errors import SqlSyntaxError

        with pytest.raises((ExecutionError, SqlSyntaxError)):
            db.execute("select id from t where * = 1")


class TestResultSet:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(ExecutionError):
            db.execute("select id from t").scalar()
        with pytest.raises(ExecutionError):
            db.execute("select id, name from t where id = 1").scalar()

    def test_first_on_empty(self, db):
        assert db.execute("select id from t where id = 99").first() is None

    def test_to_dicts(self, db):
        dicts = db.execute("select id, name from t where id = 1").to_dicts()
        assert dicts == [{"id": 1, "name": "a"}]

    def test_unknown_column_lookup(self, db):
        with pytest.raises(ExecutionError):
            db.execute("select id from t").column("wibble")

    def test_distinct_with_unhashable_values(self, db):
        db.register_function("aslist", lambda x: [x])
        result = db.execute("select distinct aslist(1) from t")
        # Unhashable outputs fall back to identity; all three survive.
        assert len(result) == 3

    def test_len_and_iter(self, db):
        result = db.execute("select id from t order by id")
        assert len(result) == 3
        assert [row[0] for row in result] == [1, 2, 3]


class TestInsertTouchesOnlyItsRows:
    """An INSERT learns the rows it stored from ``Table.insert``, not by
    walking its target to the rows past the old count — work, not time:
    with ``Table.scan`` forbidden the statement still maintains the
    statistics, and a rollback takes back exactly its rows."""

    def test_insert_neither_scans_nor_loses_track_of_its_rows(self, monkeypatch):
        from repro.db.table import Table
        from repro.storage import BlockDevice, LongFieldManager, WriteAheadLog

        lfm = LongFieldManager(WriteAheadLog(
            BlockDevice(1 << 20), BlockDevice(1 << 20), recover=False))
        db = Database(lfm=lfm)
        db.execute("create table t (id integer, name text)")
        executemany(db, "insert into t values (?, ?)",
                       [[k, "old"] for k in range(50)])

        def no_scan(self):
            raise AssertionError("INSERT walked its target")

        with pytest.raises(RuntimeError, match="abort"):
            with db.transaction():
                with monkeypatch.context() as patched:
                    patched.setattr(Table, "scan", no_scan)
                    assert db.execute(
                        "insert into t values (?, 'one')", [100]).rowcount == 1
                    table = db.catalog.table("t")
                    assert db.execute(
                        "insert into t (name, id) values ('three', 101), "
                        "('three', 102), ('three', 103)").rowcount == 3
                    # the stored rows were folded into the stats
                    stats = table.fresh_stats()
                    assert stats is not None and stats.row_total == 54
                    assert stats.eq_fraction(0, 102) == 1 / 54
                    assert stats.eq_fraction(1, "three") == 3 / 54
                    assert stats.eq_fraction(1, "one") == 1 / 54
                assert [row[0] for row in table.scan()][50:] == [100, 101, 102, 103]
                raise RuntimeError("abort")
        # exactly the four rows went with the transaction (the rollback
        # reinstated the published table in place of the live one)
        table = db.catalog.table("t")
        assert [row[0] for row in table.scan()] == list(range(50))
        stats = table.fresh_stats()
        assert stats is not None and stats.row_total == 50
        assert stats.eq_fraction(1, "three") == 0


class TestConstantEqualityBuckets:
    """A scan level of a published table reads the bucket its ``column =
    constant`` conjuncts key (``Table.equal_buckets``), built on first use
    and kept with that version; every predicate still runs on the rows
    read, and ``planner="naive"`` keeps the full scan as the oracle."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("create table g (id integer, grp integer, name text)")
        executemany(db, "insert into g values (?, ?, ?)",
                       [[k, k % 3, f"n{k % 2}"] for k in range(30)])
        return db

    @staticmethod
    def outcome(db, sql, params, planner):
        from repro.errors import ReproError

        try:
            return db.execute(sql, params, planner=planner).column("id")
        except ReproError as exc:
            return getattr(exc, "code", type(exc).__name__)

    def test_a_constant_equality_scans_only_its_bucket(self, db):
        for sql, params, bucket in (
                ("select id from g where grp = ?", [1], 10),
                ("select id from g where ? = grp and name = ?", [1, "n1"], 5),
                ("select id from g where grp = 2 and id > 20", [], 10)):
            cost = db.execute(sql, params)
            naive = db.execute(sql, params, planner="naive")
            assert cost.rows == naive.rows
            assert cost.work.rows_scanned == bucket
            assert naive.work.rows_scanned == 30
        # EXPLAIN does not show the bucket: the level is still a scan
        assert explain(db, "select id from g where grp = 1") == "scan g [1 predicate(s)] (est rows=10)"

    def test_unpublished_tables_scan_and_see_their_own_rows(self, db):
        from repro.errors import DatabaseError

        published = db.catalog.table("g")
        assert published.equal_buckets((1,))[(1,)][0][0] == 1
        with db.transaction():
            db.execute("insert into g values (100, 1, 'new')")
            live = db.catalog.table("g")
            assert live is not published and not live.published
            with pytest.raises(DatabaseError):
                live.equal_buckets((1,))
            result = db.execute("select id from g where grp = ?", [1])
            assert 100 in result.column("id")
            assert result.work.rows_scanned == 31
        result = db.execute("select id from g where grp = ?", [1])
        assert 100 in result.column("id") and result.work.rows_scanned == 11
        assert db.catalog.table("g")._equal.keys() == {(1,)}
        # a copy starts without the map
        assert not db.catalog.table("g").copy()._equal

    def test_a_pinned_version_answers_from_its_own_rows(self, db):
        sql = "select id from g where grp = ?"
        with db.read_view() as view:
            before = db.execute(sql, [1], view=view).column("id")
            db.execute("insert into g values (100, 1, 'new')")
            assert db.execute(sql, [1], view=view).column("id") == before
            assert db.execute(sql, [1]).column("id") == before + [100]
            assert db.execute(sql, [1], view=view).column("id") == before

    @pytest.mark.parametrize("sql, params", [
        ("select id from g where grp = ?", [None]),
        ("select id from g where grp = ? and name = ?", [1, None]),
        ("select id from g where grp = 1.0", []),
        ("select id from g where grp = ?", [1.0]),
        ("select id from g where grp = '1'", []),
        ("select id from g where grp = ?", ["1"]),
        ("select id from g where grp = ?", [[1]]),
        ("select id from g where name = 'none' and grp = ?", []),
        ("select id from g where id = 5 and grp = ?", []),
    ])
    def test_edge_values_match_the_naive_scan(self, db, sql, params):
        cost = self.outcome(db, sql, params, "cost")
        assert cost == self.outcome(db, sql, params, "naive")

    @pytest.mark.parametrize("planner", ["cost", "naive"])
    def test_an_index_does_not_change_a_statement_outcome(self, planner):
        """A probe value is evaluated only when a row reaches it, with or
        without an index: a missing parameter over an empty table is no
        error."""
        from repro.errors import ReproError

        sql = "select u.k from u, t where t.k = ?"
        outcomes = []
        for indexed in (False, True):
            db = Database()
            db.execute("create table t (k integer, v text)")
            db.execute("create table u (k integer)")
            db.execute("insert into u values (1)")
            if indexed:
                db.execute("create index ik on t (k)")
                assert "via index(k)" in explain(db, sql)
            outcome = []
            for _ in range(2):  # cold, then the memoized plan
                try:
                    outcome.append(db.execute(sql, [], planner=planner).rows)
                except ReproError as exc:
                    outcome.append(type(exc).__name__)
            db.execute("insert into t values (1, 'x')")
            with pytest.raises(ExecutionError, match="parameter 1"):
                db.execute(sql, [], planner=planner)
            outcomes.append(outcome)
        assert outcomes == [[[], []], [[], []]]

    def test_an_index_probe_keys_the_other_constants_too(self, db):
        """An index probe's bucket is keyed on the level's other ``col =
        constant`` conjuncts too: the index changes no row and no count."""
        sql = "select id from g where grp = ? and name = ?"
        plain = db.execute(sql, [1, "n1"])
        db.execute("create index ig on g (grp)")
        assert "via index(grp)" in explain(db, sql)
        indexed = db.execute(sql, [1, "n1"])
        assert indexed.rows == plain.rows
        assert indexed.work.rows_scanned == plain.work.rows_scanned == 5

    def test_an_indexed_table_in_a_write_scope_scans(self):
        """Inside a write scope an indexed table's copy answers an equality
        by scanning, row for row as the same table without the index; after
        the commit the published bucket agrees too."""
        db = Database()
        for name in ("a", "b"):
            db.execute(f"create table {name} (id integer, grp integer)")
            executemany(db, f"insert into {name} values (?, ?)",
                           [[k, k % 3] for k in range(12)])
        db.execute("create index ia on a (grp)")
        sql = "select id, grp from {} where grp = ?"
        assert "via index(grp)" in explain(db, sql.format("a"))

        def agree(scanned: int | None) -> None:
            for grp in range(3):
                for planner in ("cost", "naive"):
                    indexed = db.execute(sql.format("a"), [grp], planner=planner)
                    plain = db.execute(sql.format("b"), [grp], planner=planner)
                    assert indexed.rows == plain.rows
                    if scanned is not None:
                        assert indexed.work.rows_scanned == scanned

        with db.transaction():
            for write in ("insert into {} values (20, 1)",
                          "update {} set grp = 2 where id < 4",
                          "delete from {} where id = 5"):
                for name in ("a", "b"):
                    db.execute(write.format(name))
                assert not db.catalog.table("a").published
                agree(scanned=db.catalog.table("a").row_count)
        table = db.catalog.table("a")
        assert table.published
        agree(scanned=None)
        buckets = table.equal_buckets((1,))
        for grp in range(3):
            assert [tuple(row) for row in buckets.get((grp,), [])] == (
                db.execute(sql.format("b"), [grp]).rows)
            assert db.execute(sql.format("a"), [grp]).work.rows_scanned == len(
                buckets.get((grp,), []))

    def test_racing_first_uses_agree(self, db):
        import sys
        import threading

        sql = "select id from g where grp = ? and name = ?"
        keys = [(grp, name) for grp in range(3) for name in ("n0", "n1")]
        db.execute("insert into g values (100, 1, 'n1')")  # a fresh version
        expected = {key: db.execute(sql, list(key), planner="naive").rows for key in keys}
        table = db.catalog.table("g")
        assert not table._equal
        barrier, answers, maps = threading.Barrier(2 * len(keys), timeout=30), [], []

        def sql_reader(key):
            barrier.wait()
            answers.append((key, db.execute(sql, list(key)).rows))

        def map_reader():
            barrier.wait()
            maps.append(table.equal_buckets((1, 2)))

        threads = [threading.Thread(target=sql_reader, args=(key,)) for key in keys]
        threads += [threading.Thread(target=map_reader) for _ in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(answers) == sorted(expected.items())
        # every racer reads the one map that landed
        assert len(maps) == len(keys) and all(m is table._equal[1, 2] for m in maps)
        assert list(table._equal) == [(1, 2)]


class TestOneBinder:
    """Every name is resolved once, by the analyzer: a block nested two
    deep reads the outermost block's row, and ORDER BY's choice between an
    output column and a FROM column is made there too.  ``sqlite3`` over
    the same rows is the oracle."""

    NESTED = [
        "select a from t where exists (select 1 from u where exists"
        " (select 1 from u u2 where u2.k = t.a))",
        "select a from t where a in (select k from u where k in"
        " (select k from u u2 where u2.v = t.b))",
        "select (select count(*) from u where exists"
        " (select 1 from u u2 where u2.k = t.a)) from t",
    ]

    @pytest.fixture
    def pair(self):
        db, lite = Database(), sqlite3.connect(":memory:")
        rows = {"t": [(k % 7, k % 4) for k in range(30)],
                "u": [(k % 5, k % 3) for k in range(12)]}
        for name, columns in (("t", "a integer, b integer"),
                              ("u", "k integer, v integer")):
            for target in (db.execute, lite.execute):
                target(f"create table {name} ({columns})")
            executemany(db, f"insert into {name} values (?, ?)", rows[name])
            lite.executemany(f"insert into {name} values (?, ?)", rows[name])
        yield db, lite
        lite.close()

    @pytest.mark.parametrize("planner", ["cost", "naive"])
    @pytest.mark.parametrize("sql", NESTED)
    def test_a_block_two_deep_reads_the_outermost_row(self, pair, sql, planner):
        db, lite = pair
        expected = sorted(lite.execute(sql).fetchall())
        assert len(expected) > 1 and expected != [expected[0]] * len(expected)
        for params in (None, [], []):  # ad hoc, then bound, then warm
            assert sorted(db.execute(sql, params, planner=planner).rows) == expected

    def test_a_reference_two_blocks_out_correlates_both(self, pair):
        db, _ = pair
        stmt = parse(self.NESTED[0])
        blocks = check(stmt, db.catalog, db.functions)
        middle = stmt.where.subquery
        inner = middle.where.subquery
        assert [blocks[id(b)].correlated for b in (stmt, middle, inner)] == [
            False, True, True]
        assert blocks[id(inner)].columns == {
            ("u2", "k"): (0, "u2", 0), ("t", "a"): (2, "t", 0)}

    @pytest.mark.parametrize("planner", ["cost", "naive"])
    def test_star_is_from_order_whatever_the_join_order(self, pair, planner):
        db, lite = pair
        db.execute("analyze")
        sql = "select * from t, u where u.k = 1 and t.a = u.v"
        cursor = lite.execute(sql)
        expected = sorted(cursor.fetchall())
        assert expected
        for params in (None, [], []):  # ad hoc, then bound, then warm
            result = db.execute(sql, params, planner=planner)
            assert result.columns == [d[0] for d in cursor.description]
            assert sorted(result.rows) == expected

    def test_order_by_a_name_of_two_output_columns(self, pair):
        db, lite = pair
        with pytest.raises(ResolutionError) as info:
            db.execute("select a as x, b as x from t order by x")
        assert info.value.code == "QB103"
        # a name both output columns share and t has: t's column
        sql = "select a, a from t order by a"
        for planner in ("cost", "naive"):
            assert db.execute(sql, planner=planner).rows == lite.execute(sql).fetchall()
