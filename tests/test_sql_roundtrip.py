"""SQL parse → unparse → parse fixed-point property test.

Statements are generated directly as ASTs (restricted to forms the parser
itself can produce — no negative literals, no ``!=``, ``*`` only where the
grammar allows it), rendered with :func:`repro.db.sql.unparse`, and
re-parsed.  Spans are excluded from node equality, so the assertion
``parse(unparse(stmt)) == stmt`` is exact structural round-tripping; a
second render guarantees the text itself is a fixed point.  This guards
the whole lexer/parser/unparser triangle against drift.
"""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql import parse, parse_expression, unparse, unparse_expression
from repro.db.sql.ast import (
    BinOp,
    ColumnRef,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Exists,
    Explain,
    FuncCall,
    InSubquery,
    Insert,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    Subquery,
    TableRef,
    UnaryOp,
    Update,
)
from repro.db.sql.lexer import TokenType, tokenize
from repro.db.sql.parser import _KEYWORDS, last_tokens
from repro.db.sql.prepared import Prepared

_ident = (
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=1)
    .flatmap(
        lambda head: st.text(
            alphabet=string.ascii_lowercase + string.digits + "_", max_size=8
        ).map(lambda tail: head + tail)
    )
    .filter(lambda name: name not in _KEYWORDS)
)

_string_value = st.text(
    alphabet=string.ascii_letters + string.digits + " '_,.-()*", max_size=12
)

# Parser-producible literals only: negative numbers arrive as UnaryOp('-').
_literal = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(0, 10_000),
    st.integers(0, 400).map(lambda n: n / 4.0),
    _string_value,
).map(Literal)

_column = st.tuples(st.one_of(st.none(), _ident), _ident).map(
    lambda pair: ColumnRef(pair[0], pair[1])
)


def _exprs(children):
    return st.one_of(
        st.tuples(_ident, st.lists(children, max_size=3)).map(
            lambda t: FuncCall(t[0], tuple(t[1]))
        ),
        st.tuples(_ident, st.just(None)).map(
            lambda t: FuncCall(t[0], (Star(),))  # count(*)-style calls
        ),
        st.tuples(
            st.sampled_from(["=", "<>", "<", "<=", ">", ">=", "+", "-",
                             "*", "/", "and", "or", "||"]),
            children,
            children,
        ).map(lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["-", "not"]), children).map(
            lambda t: UnaryOp(t[0], t[1])
        ),
        children.map(lambda e: FuncCall("__is_null", (e,))),
    )


_expr = st.recursive(st.one_of(_literal, _column), _exprs, max_leaves=12)

_select_item = st.one_of(
    st.just(SelectItem(Star())),
    st.tuples(_expr, st.one_of(st.none(), _ident)).map(
        lambda t: SelectItem(t[0], t[1])
    ),
)

_table_ref = st.tuples(_ident, st.one_of(st.none(), _ident)).map(
    lambda t: TableRef(t[0], t[1])
)

_order_item = st.tuples(_expr, st.booleans()).map(
    lambda t: OrderItem(t[0], t[1])
)

_simple_select = st.builds(
    Select,
    items=st.lists(_select_item, min_size=1, max_size=3).map(tuple),
    tables=st.lists(_table_ref, min_size=1, max_size=2).map(tuple),
    where=st.one_of(st.none(), _expr),
    group_by=st.lists(_expr, max_size=2).map(tuple),
    having=st.one_of(st.none(), _expr),
    order_by=st.lists(_order_item, max_size=2).map(tuple),
    limit=st.one_of(st.none(), st.integers(0, 50)),
    distinct=st.booleans(),
)

# Subquery forms wrap a (non-recursive) select inside an expression.
_subquery_expr = st.one_of(
    _simple_select.map(Subquery),
    st.tuples(_expr, _simple_select, st.booleans()).map(
        lambda t: InSubquery(t[0], t[1], t[2])
    ),
    _simple_select.map(lambda s: Exists(s)),  # parser never sets negated=True
)

_full_expr = st.recursive(
    st.one_of(_literal, _column, _subquery_expr), _exprs, max_leaves=16
)

_select = st.builds(
    Select,
    items=st.lists(_select_item, min_size=1, max_size=3).map(tuple),
    tables=st.lists(_table_ref, min_size=1, max_size=2).map(tuple),
    where=st.one_of(st.none(), _full_expr),
    group_by=st.lists(_expr, max_size=2).map(tuple),
    having=st.one_of(st.none(), _full_expr),
    order_by=st.lists(_order_item, max_size=2).map(tuple),
    limit=st.one_of(st.none(), st.integers(0, 50)),
    distinct=st.booleans(),
)

_insert = st.builds(
    Insert,
    table=_ident,
    columns=st.one_of(
        st.none(), st.lists(_ident, min_size=1, max_size=4, unique=True).map(tuple)
    ),
    rows=st.lists(
        st.lists(_expr, min_size=1, max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ).map(tuple),
)

_create_table = st.builds(
    CreateTable,
    table=_ident,
    columns=st.lists(
        st.tuples(_ident, _ident), min_size=1, max_size=4
    ).map(tuple),
)

_update = st.builds(
    Update,
    table=_ident,
    assignments=st.lists(
        st.tuples(_ident, _expr), min_size=1, max_size=3
    ).map(tuple),
    where=st.one_of(st.none(), _expr),
)

_bare_statement = st.one_of(
    _select,
    _insert,
    _create_table,
    st.builds(DropTable, table=_ident),
    st.builds(Delete, table=_ident, where=st.one_of(st.none(), _expr)),
    _update,
    st.builds(CreateIndex, name=_ident, table=_ident, column=_ident),
    st.builds(DropIndex, name=_ident),
)

_statement = st.one_of(
    _bare_statement,
    st.tuples(_select, st.booleans()).map(lambda t: Explain(t[0], t[1])),
)


@given(stmt=_statement)
@settings(max_examples=300, deadline=None)
def test_parse_unparse_parse_fixed_point(stmt):
    text = unparse(stmt)
    reparsed = parse(text)
    assert reparsed == stmt, f"drift through {text!r}"
    assert unparse(reparsed) == text  # the text itself is a fixed point


def _with_other_literals(text: str) -> str:
    """``text`` re-spelled token by token, every literal replaced: the
    same masked token stream, so the same key in the shape memo."""
    other = {TokenType.NUMBER: "7", TokenType.STRING: "'z'"}
    return " ".join(other.get(t.type, t.text) for t in tokenize(text))


@given(stmt=_statement)
@settings(max_examples=300, deadline=None)
def test_memoized_shape_is_the_unparsed_shape(stmt):
    # The memo keys the shape by the masked token stream; a statement and
    # one differing from it only in literals share the key, and each must
    # still get exactly its own unparsed shape.
    text = unparse(stmt)
    for sql in (text, _with_other_literals(text)):
        ast = parse(sql)
        prepared = Prepared(sql, ast, tokens=last_tokens())
        assert prepared.shape == unparse(ast, literals=False), sql


@given(expr=_full_expr)
@settings(max_examples=300, deadline=None)
def test_expression_roundtrip(expr):
    text = unparse_expression(expr)
    reparsed = parse_expression(text)
    assert reparsed == expr, f"drift through {text!r}"
    assert unparse_expression(reparsed) == text


def test_roundtrip_preserves_known_normalizations():
    # Forms the parser normalizes must still be fixed points AFTER one trip.
    for sql in (
        "SELECT a FROM t WHERE a != 1",          # != becomes <>
        "SELECT a FROM t WHERE a BETWEEN 1 AND 2",  # desugars to AND
        "SELECT a FROM t WHERE a IN (1, 2)",     # desugars to ORs
        "SELECT a FROM t WHERE a IS NOT NULL",   # becomes NOT(__is_null)
        "SELECT a b FROM t u",                   # implicit aliases
    ):
        first = parse(sql)
        assert parse(unparse(first)) == first
