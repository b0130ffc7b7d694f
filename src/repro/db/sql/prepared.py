"""A parsed statement plus every fact its syntax tree alone determines.

Serving, caching, routing and per-class accounting all ask the same
questions of a statement — does it only read, which tables and functions
does it name, what is its literal-free shape — and every answer is a
pure function of the AST.  :class:`Prepared` computes each once, on
first use, and is the only place that does.

No syntactic fact may depend on a catalog, a function registry or
statistics: those change under a statement text that stays the same.
What does depend on them — that the semantic check passed, what its
names resolved to, and the plan of every query block — lives in the one
:attr:`Prepared.bound` slot, and is safe to keep there because it
carries the *stamp* it was computed against: the identity, mutation
count and statistics stamp of every table the statement names (identity
alone for :attr:`is_values_insert`), in the catalog (live or snapshot)
it ran on, plus the function registry's registration count.  Whoever
runs the statement (:class:`~repro.db.database.Database`) recomputes the
stamp — a few dict lookups — and uses the slot only on an exact match,
so DDL, DML, ``ANALYZE``, a replaced function or a reader pinned to
another version all simply miss and re-bind.  The slot is replaced wholesale,
never edited in place: a reader holding an older :class:`Bound` keeps a
consistent one, and plans of two stamps never mix.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from repro.db.sql.ast import (
    Exists,
    Explain,
    FuncCall,
    InSubquery,
    Insert,
    Select,
    Span,
    Statement,
    Subquery,
    TableRef,
)
from repro.db.sql.unparse import unparse
from repro.obs import recorder
from repro.obs.digest import fingerprint

__all__ = ["Bound", "Prepared"]


class Bound(NamedTuple):
    """What one passed semantic check and its planning produced."""

    #: the catalog + registry state the check and every plan are valid for
    #: (None: made for one run and never kept)
    stamp: tuple | None
    #: the binder's record (:func:`repro.db.semantic.check`): ``id`` of
    #: each query block -> what its names resolved to
    blocks: dict
    #: ``(id of the query block, outer binding names, planner mode)`` ->
    #: its :class:`~repro.db.planner.Plan` with the compiled program on
    #: it, for the outer SELECT and every nested block; an INSERT, DELETE
    #: or UPDATE keeps its compiled expressions under its own id the same
    #: way
    plans: dict


_LEAVES = frozenset({str, int, float, bool, type(None), Span})

# The shape of a statement is an unparse, but it is a function of its
# token stream with the literals masked: the parser builds the same tree,
# up to literal values, from streams that differ only in them, and
# ``shape`` prints every literal (and every ``?``) as ``?``.  So the shape
# and its digest id are memoized by the masked stream, and an ad hoc
# statement pays one pass over the tokens the parse already made instead
# of an unparse and a SHA-256.  LIMIT's count is printed in the shape, so
# a statement that may have one skips the memo.
#: masked token stream -> (shape, digest id); bounded, oldest dropped first
_SHAPES: dict[str, tuple[str, str]] = {}
_SHAPES_CAPACITY = 1024


def _masked(tokens) -> str:
    """The token texts, every literal and parameter as ``?`` (an
    identifier's or operator's value *is* its text; no other's is)."""
    return "\0".join([t.text if t.value is t.text else "?" for t in tokens])


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
    # Field names come from the class: reading an instance's ``__dict__``
    # would materialize it on every node, and the executor's attribute
    # reads on those nodes would then take the slow path for good.
    fields = getattr(type(node), "__dataclass_fields__", None)
    if fields is None or isinstance(node, Span):  # a leaf: str, int, None
        return
    if isinstance(node, TableRef):
        tables.add(node.name.lower())
    elif isinstance(node, FuncCall):
        funcs.add(node.name.lower())
    elif isinstance(node, (Subquery, InSubquery, Exists)):
        tables = nested
    elif "table" in fields and isinstance(node.table, str):  # a DML / DDL target
        tables.add(node.table.lower())
    for name in fields:
        child = getattr(node, name)
        if child.__class__ not in _LEAVES:  # most fields; spare the call
            _collect(child, tables, funcs, nested)


class Prepared:
    """One statement: its text, its AST, and the facts derived from them."""

    def __init__(self, sql: str, ast: Statement, ad_hoc: bool = False,
                 tokens: list | None = None):
        self.sql = sql
        self.ast = ast
        self.is_explain = isinstance(ast, Explain)
        #: SELECT / EXPLAIN only read; everything else takes the write lock
        self.is_read = self.is_explain or isinstance(ast, Select)
        #: the flight recorder's statement kinds
        self.kind = ("explain" if self.is_explain
                     else "read" if self.is_read else "write")
        #: the catalog-dependent half (module docstring); None until bound
        self.bound: Bound | None = None
        #: compiled for one run (bare text, or a text the statement memo
        #: turned away): checked and planned afresh, never bound
        self.ad_hoc = ad_hoc
        #: ``(shape, digest)``: classified now from the parse's ``tokens``,
        #: while they are still in the CPU's caches, or on first use
        self._class = None if tokens is None else self._classify(tokens)

    @property
    def shape(self) -> str:
        """The unparsed tree with every constant printed as ``?``: one
        text per statement class, whatever the formatting."""
        return (self._class or self._classify())[0]

    @property
    def digest(self) -> str:
        """The shape's 16-hex fingerprint: the statement-class id."""
        return (self._class or self._classify())[1]

    def _classify(self, tokens=None) -> tuple[str, str]:
        """``(shape, digest)``, from the memo when the masked ``tokens``
        are in it; unparsed otherwise."""
        key = (None if tokens is None or "limit" in self.sql.lower()
               else _masked(tokens))
        found = _SHAPES.get(key)
        if found is None:
            was = recorder.enter("db.sql")
            try:
                shape = unparse(self.ast, literals=False)
            finally:
                recorder.leave(was)
            found = (shape, fingerprint(shape))
            if key is not None:
                if len(_SHAPES) >= _SHAPES_CAPACITY:
                    _SHAPES.pop(next(iter(_SHAPES)), None)
                _SHAPES[key] = found
        self._class = found
        return found

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

    @cached_property
    def is_values_insert(self) -> bool:
        """An INSERT whose values read no table: only its target's
        schema binds it, not the rows it appends."""
        return isinstance(self.ast, Insert) and not self.subquery_tables
