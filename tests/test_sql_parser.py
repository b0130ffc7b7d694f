"""Unit tests for the SQL parser."""

from __future__ import annotations

import pytest

from repro.db.sql import parse, parse_expression
from repro.db.sql.ast import (
    BinOp,
    ColumnRef,
    CreateTable,
    Delete,
    DropTable,
    FuncCall,
    Insert,
    Literal,
    Param,
    Select,
    Star,
    UnaryOp,
)
from repro.errors import SqlSyntaxError


class TestSelect:
    def test_simple(self):
        stmt = parse("select a, b from t")
        assert isinstance(stmt, Select)
        assert len(stmt.items) == 2
        assert stmt.tables[0].name == "t"
        assert stmt.where is None

    def test_star(self):
        stmt = parse("select * from t")
        assert isinstance(stmt.items[0].expr, Star)

    def test_qualified_columns_and_aliases(self):
        stmt = parse("select wv.data from warpedVolume wv")
        expr = stmt.items[0].expr
        assert expr == ColumnRef("wv", "data")
        assert stmt.tables[0].alias == "wv"
        assert stmt.tables[0].binding == "wv"

    def test_as_alias(self):
        stmt = parse("select a as alpha from t as tee")
        assert stmt.items[0].alias == "alpha"
        assert stmt.tables[0].alias == "tee"

    def test_implicit_column_alias(self):
        stmt = parse("select count(x) total from t")
        assert stmt.items[0].alias == "total"

    def test_multiple_tables(self):
        stmt = parse("select * from a, b x, c")
        assert [t.binding for t in stmt.tables] == ["a", "x", "c"]

    def test_where_conjunction(self):
        stmt = parse("select * from t where a = 1 and b > 2")
        assert isinstance(stmt.where, BinOp)
        assert stmt.where.op == "and"

    def test_order_by_limit(self):
        stmt = parse("select * from t order by a desc, b limit 10")
        assert len(stmt.order_by) == 2
        assert not stmt.order_by[0].ascending
        assert stmt.order_by[1].ascending
        assert stmt.limit == 10

    def test_distinct(self):
        assert parse("select distinct a from t").distinct

    def test_group_by(self):
        stmt = parse("select a, count(*) from t group by a")
        assert stmt.group_by == (ColumnRef(None, "a"),)
        assert stmt.having is None

    def test_group_by_multiple_keys_and_having(self):
        stmt = parse(
            "select a, b, sum(c) from t group by a, b having sum(c) > 10 order by a"
        )
        assert len(stmt.group_by) == 2
        assert stmt.having is not None
        assert len(stmt.order_by) == 1

    def test_group_by_expression(self):
        stmt = parse("select upper(a), count(*) from t group by upper(a)")
        assert isinstance(stmt.group_by[0], FuncCall)

    def test_paper_metadata_query_parses(self):
        """The exact first query of §3.4 (with the reserved alias renamed)."""
        stmt = parse(
            """
            select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
                   a.atlasId, p.name, p.patientId, rv.date
            from atlas a, rawVolume rv, warpedVolume wv, patient p
            where a.atlasId = wv.atlasId and
                  wv.studyId = rv.studyId and
                  rv.patientId = p.patientId and
                  rv.studyId = 53 and a.atlasName = 'Talairach'
            """
        )
        assert len(stmt.items) == 11
        assert len(stmt.tables) == 4

    def test_paper_data_query_parses(self):
        stmt = parse(
            """
            select s.region, extractVoxels(wv.data, s.region)
            from warpedVolume wv, atlasStructure s, neuralStructure ns
            where wv.studyId = 53 and
                  s.structureId = ns.structureId and
                  ns.structureName = 'putamen'
            """
        )
        call = stmt.items[1].expr
        assert isinstance(call, FuncCall)
        assert call.name == "extractVoxels"
        assert len(call.args) == 2

    def test_nested_function_calls(self):
        stmt = parse("select f(g(a, 1), h()) from t")
        outer = stmt.items[0].expr
        assert isinstance(outer.args[0], FuncCall)
        assert outer.args[1].args == ()

    def test_limit_requires_integer(self):
        with pytest.raises(SqlSyntaxError):
            parse("select * from t limit 2.5")


class TestExpressions:
    def test_precedence_arith(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == BinOp("+", Literal(1), BinOp("*", Literal(2), Literal(3)))

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_comparison_precedence(self):
        expr = parse_expression("a + 1 > b * 2")
        assert expr.op == ">"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not(self):
        expr = parse_expression("not a = 1")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "not"

    def test_unary_minus(self):
        expr = parse_expression("-x")
        assert expr == UnaryOp("-", ColumnRef(None, "x"))

    def test_unary_plus_is_noop(self):
        assert parse_expression("+5") == Literal(5)

    def test_is_null(self):
        expr = parse_expression("a is null")
        assert expr == FuncCall("__is_null", (ColumnRef(None, "a"),))

    def test_is_not_null(self):
        expr = parse_expression("a is not null")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_between_desugars(self):
        expr = parse_expression("x between 1 and 5")
        assert expr.op == "and"
        assert expr.left.op == ">="
        assert expr.right.op == "<="

    def test_in_list_desugars(self):
        expr = parse_expression("x in (1, 2, 3)")
        assert expr.op == "or"

    def test_not_in(self):
        expr = parse_expression("x not in (1, 2)")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_params_numbered_in_order(self):
        stmt = parse("select f(?) from t where a = ? and b = ?")
        select_param = stmt.items[0].expr.args[0]
        assert select_param == Param(0)
        assert stmt.where.left.right == Param(1)
        assert stmt.where.right.right == Param(2)

    def test_boolean_and_null_literals(self):
        assert parse_expression("true") == Literal(True)
        assert parse_expression("FALSE") == Literal(False)
        assert parse_expression("null") == Literal(None)

    def test_string_concat(self):
        assert parse_expression("a || b").op == "||"

    def test_neq_normalized(self):
        assert parse_expression("a != b").op == "<>"
        assert parse_expression("a <> b").op == "<>"


class TestOtherStatements:
    def test_insert_positional(self):
        stmt = parse("insert into t values (1, 'x', ?)")
        assert isinstance(stmt, Insert)
        assert stmt.columns is None
        assert len(stmt.rows) == 1 and len(stmt.rows[0]) == 3

    def test_insert_named_columns(self):
        stmt = parse("insert into t (a, b) values (1, 2), (3, 4)")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_create_table(self):
        stmt = parse("create table t (id integer, name varchar(40), blob longfield)")
        assert isinstance(stmt, CreateTable)
        assert stmt.columns == (("id", "integer"), ("name", "varchar"), ("blob", "longfield"))

    def test_drop_table(self):
        stmt = parse("drop table t")
        assert isinstance(stmt, DropTable)

    def test_delete(self):
        stmt = parse("delete from t where id = 3")
        assert isinstance(stmt, Delete)
        assert stmt.where is not None

    def test_delete_without_where(self):
        assert parse("delete from t").where is None

    def test_trailing_semicolon_ok(self):
        parse("select * from t;")


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "select",
            "select from t",
            "select * from",
            "select * from t where",
            "insert into t",
            "create table t ()",
            "select * from t garbage garbage",
            "select f( from t",
            "wibble wobble",
            "select * from t where a ==",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse(bad)

    def test_trailing_input_after_expression(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("1 + 2 extra")


class TestEndsInASyntaxError:
    """Input the parser once answered with a hang or a bare RecursionError."""

    def test_type_length_cut_off_by_the_end_of_input(self):
        with pytest.raises(SqlSyntaxError, match=r"expected '\)' \(found 'end of input'\)"):
            parse("create table t (a varchar(40")

    @pytest.mark.parametrize("sql", [
        "select " + "(" * 3000 + "1" + ")" * 3000 + " from t",
        "select " + "not " * 3000 + "1 from t",
    ])
    def test_statement_nested_too_deeply(self, sql):
        with pytest.raises(SqlSyntaxError, match="nests too deeply"):
            parse(sql)

    def test_expression_nested_too_deeply(self):
        with pytest.raises(SqlSyntaxError, match="nests too deeply"):
            parse_expression("- " * 3000 + "1")
