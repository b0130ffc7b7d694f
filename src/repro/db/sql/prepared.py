"""A parsed statement plus every fact its syntax tree alone determines.

Serving, caching, routing and per-class accounting all ask the same
questions of a statement — does it only read, which tables and functions
does it name, what is its canonical text, what is its literal-free shape
— and every answer is a pure function of the AST.  :class:`Prepared`
computes each once, on first use, and is the only place that does.

Nothing here may depend on a catalog, a function registry or statistics:
those change under a statement text that stays the same, so a fact that
needs them (column types, chosen plan, whether a called name is a
session-local UDF) cannot be memoized by text and belongs to the layer
that holds that state.
"""

from __future__ import annotations

from functools import cached_property

from repro.db.sql.ast import (
    Exists,
    Explain,
    FuncCall,
    InSubquery,
    Select,
    Span,
    Statement,
    Subquery,
    TableRef,
)
from repro.db.sql.unparse import unparse
from repro.obs.digest import fingerprint

__all__ = ["Prepared"]


def _collect(node, tables: set[str], funcs: set[str],
             nested: set[str]) -> None:
    """Add every table and function name at or below ``node``.

    ``tables`` receives the names found outside any subquery, ``nested``
    those found inside one.
    """
    if isinstance(node, tuple):
        for child in node:
            _collect(child, tables, funcs, nested)
        return
    fields = getattr(node, "__dict__", None)
    if fields is None or isinstance(node, Span):  # a leaf: str, int, None
        return
    if isinstance(node, TableRef):
        tables.add(node.name.lower())
    elif isinstance(node, FuncCall):
        funcs.add(node.name.lower())
    elif isinstance(node, (Subquery, InSubquery, Exists)):
        tables = nested
    elif isinstance(fields.get("table"), str):  # a DML / DDL target
        tables.add(fields["table"].lower())
    for child in fields.values():
        _collect(child, tables, funcs, nested)


class Prepared:
    """One statement: its text, its AST, and the facts derived from them."""

    def __init__(self, sql: str, ast: Statement):
        self.sql = sql
        self.ast = ast
        self.is_explain = isinstance(ast, Explain)
        #: SELECT / EXPLAIN only read; everything else takes the write lock
        self.is_read = self.is_explain or isinstance(ast, Select)
        #: the flight recorder's statement kinds
        self.kind = ("explain" if self.is_explain
                     else "read" if self.is_read else "write")

    @cached_property
    def canonical(self) -> str:
        """The unparsed tree: one text per AST, whatever the formatting."""
        return unparse(self.ast)

    @cached_property
    def shape(self) -> str:
        """The canonical text with every constant printed as ``?``."""
        return unparse(self.ast, literals=False)

    @cached_property
    def digest(self) -> str:
        """The shape's 16-hex fingerprint: the statement-class id."""
        return fingerprint(self.shape)

    @cached_property
    def _names(self) -> tuple[frozenset[str], ...]:
        outer: set[str] = set()
        funcs: set[str] = set()
        nested: set[str] = set()
        _collect(self.ast, outer, funcs, nested)
        return (frozenset(outer | nested), frozenset(funcs),
                frozenset(nested))

    @property
    def tables(self) -> frozenset[str]:
        """Every table read or written, subqueries included, lowercased."""
        return self._names[0]

    @property
    def funcs(self) -> frozenset[str]:
        """Every function called anywhere in the statement, lowercased."""
        return self._names[1]

    @property
    def subquery_tables(self) -> frozenset[str]:
        """The tables read inside a subquery (a subset of :attr:`tables`)."""
        return self._names[2]
