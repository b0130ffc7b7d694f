"""Abstract syntax tree for the SQL subset.

Expressions and statements are plain frozen dataclasses; the executor
compiles each query block's expressions to closures once, when it is
planned, and never walks the tree per row (queries here are small and the
heavy lifting happens inside the spatial functions, as in the paper).

Every node carries an optional :class:`Span` — the source position of the
token that introduced it, threaded through from the lexer — so the semantic
analyzer can attach precise locations to its diagnostics.  Spans never
participate in equality or hashing: the executor compares and caches nodes
structurally (GROUP BY matching, per-statement subquery memoization), and
two occurrences of the same expression must stay equal even though they sit
at different source positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Expr",
    "Literal",
    "Param",
    "ColumnRef",
    "FuncCall",
    "BinOp",
    "UnaryOp",
    "Star",
    "Subquery",
    "InSubquery",
    "Exists",
    "SelectItem",
    "TableRef",
    "OrderItem",
    "Select",
    "Insert",
    "CreateTable",
    "DropTable",
    "Delete",
    "Update",
    "CreateIndex",
    "DropIndex",
    "CreateSpatialIndex",
    "Analyze",
    "Explain",
    "Statement",
]


@dataclass(frozen=True)
class Span:
    """A 1-based (line, column) source position of one token."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


#: shorthand for the span field every node carries (excluded from equality)
def _span_field():
    return field(default=None, compare=False, repr=False)


class Expr:
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A literal constant (number, string, NULL, or boolean)."""
    value: object
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Param(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    index: int
    span: Span | None = _span_field()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference, optionally qualified by a table name."""
    qualifier: str | None
    name: str
    span: Span | None = _span_field()

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call expression."""
    name: str
    args: tuple[Expr, ...]
    span: Span | None = _span_field()


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation (arithmetic, comparison, or logical)."""
    op: str  # one of = <> < <= > >= + - * / and or ||
    left: Expr
    right: Expr
    span: Span | None = _span_field()


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation (``-expr`` or ``NOT expr``)."""
    op: str  # '-' or 'not'
    operand: Expr
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list or ``count(*)``."""

    span: Span | None = _span_field()


@dataclass(frozen=True)
class SelectItem:
    """One item of a SELECT list: an expression plus optional alias."""
    expr: Expr
    alias: str | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class TableRef:
    """A table named in FROM, with an optional alias."""
    name: str
    alias: str | None = None
    span: Span | None = _span_field()

    @property
    def binding(self) -> str:
        """The name rows of this table are visible under."""
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: an expression plus sort direction."""
    expr: Expr
    ascending: bool = True
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Select:
    """A SELECT statement."""
    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Insert:
    """An INSERT statement."""
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Expr, ...], ...]
    span: Span | None = _span_field()


@dataclass(frozen=True)
class CreateTable:
    """A CREATE TABLE statement."""
    table: str
    columns: tuple[tuple[str, str], ...]  # (name, type name)
    span: Span | None = _span_field()


@dataclass(frozen=True)
class DropTable:
    """A DROP TABLE statement."""
    table: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Delete:
    """A DELETE statement."""
    table: str
    where: Expr | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Update:
    """An UPDATE statement."""
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class CreateIndex:
    """A CREATE INDEX statement."""
    name: str
    table: str
    column: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class DropIndex:
    """A DROP INDEX statement."""
    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class CreateSpatialIndex:
    """A CREATE SPATIAL INDEX statement (box column over a LONGFIELD column)."""

    name: str
    table: str
    column: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Analyze:
    """An ANALYZE statement: recompute optimizer statistics.

    With a table name only that table is analyzed; without one, every
    table in the catalog.
    """

    table: str | None = None
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Subquery(Expr):
    """A nested SELECT used as an expression (scalar or IN-list source)."""

    select: "Select"
    span: Span | None = _span_field()


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    value: Expr
    subquery: "Select"
    negated: bool = False
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Explain:
    """``EXPLAIN [ANALYZE] <statement>``.

    Plain EXPLAIN renders the planner's chosen plan without running it;
    with ``analyze`` the statement is executed and the plan tree comes back
    annotated with per-operator rows, time, and page I/Os.
    """

    statement: "Statement"
    analyze: bool = False
    span: Span | None = _span_field()


Statement = (
    Select | Insert | CreateTable | DropTable | Delete | Update
    | CreateIndex | DropIndex | CreateSpatialIndex | Analyze | Explain
)
