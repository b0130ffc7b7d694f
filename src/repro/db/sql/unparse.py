"""Render an AST back to SQL text that re-parses to the same AST.

The generator is the parser's inverse on parser-producible trees:
``parse(unparse(stmt)) == stmt`` (spans are excluded from node equality,
so positions need not survive).  The round-trip property test leans on
this to catch lexer/parser drift.

Expressions are fully parenthesized, which sidesteps precedence entirely:
the parser drops redundant parentheses without creating nodes, so the
extra grouping is invisible in the AST.  A few forms the parser
normalizes away (``BETWEEN``, ``IN`` value lists, ``!=``) naturally
unparse as their desugared equivalents.
"""

from __future__ import annotations

from repro.db.sql.ast import (
    Analyze,
    BinOp,
    ColumnRef,
    CreateIndex,
    CreateSpatialIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Exists,
    Explain,
    Expr,
    FuncCall,
    InSubquery,
    Insert,
    Literal,
    OrderItem,
    Param,
    Select,
    SelectItem,
    Star,
    Statement,
    Subquery,
    TableRef,
    UnaryOp,
    Update,
)
from repro.errors import UnsupportedStatementError

__all__ = ["unparse", "unparse_expression"]


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, (int, float)):
        return repr(value)
    raise UnsupportedStatementError(
        f"cannot render a literal of type {type(value).__name__}"
    )


def unparse_expression(expr: Expr, lit=_literal) -> str:
    """One expression as SQL text (the inverse of ``parse_expression``).

    ``lit`` renders a literal's value; :func:`unparse` swaps in one that
    prints every constant as ``?``.
    """
    if isinstance(expr, Literal):
        return lit(expr.value)
    if isinstance(expr, Param):
        return "?"
    if isinstance(expr, ColumnRef):
        return f"{expr.qualifier}.{expr.name}" if expr.qualifier else expr.name
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, FuncCall):
        if expr.name == "__is_null" and len(expr.args) == 1:
            return f"({unparse_expression(expr.args[0], lit)} IS NULL)"
        args = ", ".join(unparse_expression(a, lit) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, BinOp):
        op = expr.op.upper() if expr.op in ("and", "or") else expr.op
        left, right = (unparse_expression(e, lit) for e in (expr.left, expr.right))
        return f"({left} {op} {right})"
    if isinstance(expr, UnaryOp):
        op = "NOT" if expr.op == "not" else expr.op
        return f"({op} {unparse_expression(expr.operand, lit)})"
    if isinstance(expr, Subquery):
        return f"({_select(expr.select, lit)})"
    if isinstance(expr, InSubquery):
        negated = "NOT " if expr.negated else ""
        return (
            f"({unparse_expression(expr.value, lit)} {negated}IN "
            f"({_select(expr.subquery, lit)}))"
        )
    if isinstance(expr, Exists):
        negated = "NOT " if expr.negated else ""
        return f"{negated}EXISTS ({_select(expr.subquery, lit)})"
    raise UnsupportedStatementError(
        f"cannot render an expression of type {type(expr).__name__}"
    )


def _select_item(item: SelectItem, lit) -> str:
    if isinstance(item.expr, Star) and item.alias is None:
        return "*"
    text = unparse_expression(item.expr, lit)
    return f"{text} AS {item.alias}" if item.alias else text


def _table_ref(ref: TableRef) -> str:
    return f"{ref.name} AS {ref.alias}" if ref.alias else ref.name


def _order_item(item: OrderItem, lit) -> str:
    direction = "ASC" if item.ascending else "DESC"
    return f"{unparse_expression(item.expr, lit)} {direction}"


def _select(stmt: Select, lit) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(i, lit) for i in stmt.items))
    parts.append("FROM")
    parts.append(", ".join(_table_ref(t) for t in stmt.tables))
    if stmt.where is not None:
        parts.append("WHERE " + unparse_expression(stmt.where, lit))
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(
            unparse_expression(e, lit) for e in stmt.group_by))
    if stmt.having is not None:
        parts.append("HAVING " + unparse_expression(stmt.having, lit))
    if stmt.order_by:
        parts.append("ORDER BY " + ", ".join(_order_item(i, lit) for i in stmt.order_by))
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)


def unparse(stmt: Statement, literals: bool = True) -> str:
    """One statement as SQL text; ``parse(unparse(stmt)) == stmt``.

    With ``literals=False`` every constant prints as ``?``: the
    statement's *shape*, shared by all statements differing only in
    constants (LIMIT's count is syntax, not a literal, and stays).
    """
    lit = _literal if literals else (lambda value: "?")
    if isinstance(stmt, Select):
        return _select(stmt, lit)
    if isinstance(stmt, Insert):
        columns = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
        rows = ", ".join(
            "(" + ", ".join(unparse_expression(e, lit) for e in row) + ")"
            for row in stmt.rows
        )
        return f"INSERT INTO {stmt.table}{columns} VALUES {rows}"
    if isinstance(stmt, CreateTable):
        columns = ", ".join(f"{name} {type_name}" for name, type_name in stmt.columns)
        return f"CREATE TABLE {stmt.table} ({columns})"
    if isinstance(stmt, DropTable):
        return f"DROP TABLE {stmt.table}"
    if isinstance(stmt, Delete):
        where = (f" WHERE {unparse_expression(stmt.where, lit)}"
                 if stmt.where is not None else "")
        return f"DELETE FROM {stmt.table}{where}"
    if isinstance(stmt, Update):
        assignments = ", ".join(
            f"{column} = {unparse_expression(value, lit)}"
            for column, value in stmt.assignments
        )
        where = (f" WHERE {unparse_expression(stmt.where, lit)}"
                 if stmt.where is not None else "")
        return f"UPDATE {stmt.table} SET {assignments}{where}"
    if isinstance(stmt, CreateIndex):
        return f"CREATE INDEX {stmt.name} ON {stmt.table} ({stmt.column})"
    if isinstance(stmt, DropIndex):
        return f"DROP INDEX {stmt.name}"
    if isinstance(stmt, CreateSpatialIndex):
        return f"CREATE SPATIAL INDEX {stmt.name} ON {stmt.table} ({stmt.column})"
    if isinstance(stmt, Analyze):
        return f"ANALYZE {stmt.table}" if stmt.table else "ANALYZE"
    if isinstance(stmt, Explain):
        analyze = "ANALYZE " if stmt.analyze else ""
        return f"EXPLAIN {analyze}{unparse(stmt.statement, literals)}"
    raise UnsupportedStatementError(
        f"cannot render a statement of type {type(stmt).__name__}"
    )
