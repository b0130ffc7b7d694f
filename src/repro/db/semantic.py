"""Catalog-aware semantic analysis of parsed SQL, run between parse and plan.

The analyzer is the engine's one binder.  It makes one pass over a
statement and decides everything that can be decided without touching a
single row:

* **Resolution** — every table, alias, column, and function name resolves;
  unqualified columns are unambiguous across the FROM tables; a nested
  query block resolves its names inner-scope-first, then outward.  What
  each name resolved to is recorded per query block (:class:`Block`) and
  returned by :func:`check`: the planner and the compiler read that record
  and resolve nothing themselves.
* **Typing** — expression types are inferred bottom-up from the catalog's
  column types (:class:`~repro.db.types.SqlType`); operators and UDF calls
  are checked against the declared signature table in
  :mod:`repro.db.functions` (arity and per-argument types).
* **Spatial misuse** — LONGFIELD values (REGION/VOLUME handles) may flow
  into functions, equality tests, and select lists, but never into
  arithmetic, ordering, logical connectives, or numeric aggregates.

Findings are :class:`~repro.db.diagnostics.Diagnostic` records with stable
``QBxxx`` codes and source spans.  ``check`` raises the first error as the
legacy exception type runtime callers already catch, so a statement fails
before any Long Field Manager I/O is issued.  Inference is deliberately
conservative: an unknown type (parameters, undeclared UDF results) never
produces a diagnostic, so every query that would execute successfully still
passes analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.catalog import Catalog
from repro.db.diagnostics import Diagnostic, raise_diagnostics
from repro.db.functions import ANY, FunctionRegistry
from repro.db.schema import TableSchema
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
    Param,
    Select,
    Span,
    Star,
    Statement,
    Subquery,
    UnaryOp,
    Update,
)
from repro.db.types import SqlType, coerce_value, type_of_value
from repro.errors import SqlTypeError

__all__ = ["AGGREGATES", "Block", "SemanticAnalyzer", "analyze", "check"]

#: the aggregate functions, by lowercased name
AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})
_NUMERIC = {SqlType.INTEGER, SqlType.REAL}
#: types arithmetic accepts (booleans are ints to the runtime, as in Python)
_ARITHMETIC = {SqlType.INTEGER, SqlType.REAL, SqlType.BOOLEAN}
_ORDERING_OPS = {"<", "<=", ">", ">="}
_COMPARISON_OPS = {"=", "<>"} | _ORDERING_OPS


def _comparable(a: SqlType, b: SqlType) -> bool:
    """Can values of these two types meet in a comparison at runtime?"""
    if a in _ARITHMETIC and b in _ARITHMETIC:
        return True
    return a is b


@dataclass
class Block:
    """What the binder decided for one query block: a SELECT, or the one
    table scope of an INSERT, UPDATE or DELETE."""

    #: ``(qualifier, name)`` of each column reference -> ``(depth, binding,
    #: position)``: how many blocks out it resolved (0 = this one), the
    #: FROM binding it resolved to there, and its column's position
    columns: dict = field(default_factory=dict)
    #: a reference here or in any block nested in this one resolves
    #: outside it: its rows depend on the enclosing block's row
    correlated: bool = False
    #: per select item, its output column name (None for a ``*``)
    names: tuple = ()
    #: GROUP BY, or an aggregate in the select list
    grouped: bool = False
    #: per ORDER BY key, the select item it names, or None for an expression
    order: tuple = ()


@dataclass
class _Scope:
    """One block's FROM bindings, chained to the enclosing block's.

    ``bindings`` maps a FROM binding name to its schema; a ``None`` schema
    marks a table that failed to resolve (already diagnosed), which then
    absorbs column lookups silently instead of cascading false errors.
    """

    bindings: dict[str, TableSchema | None]
    block: Block
    outer: "_Scope | None" = None


@dataclass
class _SelectInfo:
    """What an analyzed SELECT exposes to its enclosing expression."""

    column_count: int | None  # None when a '*' hit an unresolved table
    single_type: SqlType | None  # type of the only column, when known


class SemanticAnalyzer:
    """One-statement semantic pass against a catalog and function registry."""

    def __init__(self, catalog: Catalog, functions: FunctionRegistry | None = None):
        self.catalog = catalog
        self.functions = functions
        self.diagnostics: list[Diagnostic] = []
        #: the binder's record: ``id`` of each query block -> its Block
        self.blocks: dict[int, Block] = {}

    # -------------------------------------------------------------- #
    # entry points
    # -------------------------------------------------------------- #

    def analyze(self, stmt: Statement) -> list[Diagnostic]:
        """Collect every diagnostic for one statement."""
        if isinstance(stmt, Explain):
            # EXPLAIN adds no names of its own; analyze what it wraps.
            stmt = stmt.statement
        if isinstance(stmt, Select):
            self._select(stmt, None)
        elif isinstance(stmt, Insert):
            self._insert(stmt)
        elif isinstance(stmt, Update):
            self._update(stmt)
        elif isinstance(stmt, Delete):
            self._delete(stmt)
        elif isinstance(stmt, CreateTable):
            self._create_table(stmt)
        elif isinstance(stmt, CreateIndex):
            self._create_index(stmt)
        elif isinstance(stmt, CreateSpatialIndex):
            self._create_spatial_index(stmt)
        elif isinstance(stmt, Analyze):
            self._analyze_stmt(stmt)
        elif isinstance(stmt, DropTable):
            self._drop_table(stmt)
        elif isinstance(stmt, DropIndex):
            pass  # index existence is checked by the catalog at run time
        return self.diagnostics

    def _error(self, code: str, message: str, span: Span | None) -> None:
        self.diagnostics.append(Diagnostic(code, message, span))

    def _scope(self, node, bindings: dict, outer: _Scope | None = None) -> _Scope:
        """Open the scope of query block ``node`` and its :class:`Block`."""
        block = self.blocks[id(node)] = Block()
        return _Scope(bindings, block, outer)

    # -------------------------------------------------------------- #
    # statements
    # -------------------------------------------------------------- #

    def _select(self, select: Select, outer: _Scope | None) -> _SelectInfo:
        scope = self._scope(select, {}, outer)
        for ref in select.tables:
            if ref.binding in scope.bindings:
                self._error(
                    "QB105", f"duplicate table binding {ref.binding!r} in FROM", ref.span
                )
                continue
            if ref.name in self.catalog:
                scope.bindings[ref.binding] = self.catalog.table(ref.name).schema
            else:
                self._error("QB101", f"no such table {ref.name!r}", ref.span)
                scope.bindings[ref.binding] = None

        grouped = bool(select.group_by) or any(
            not isinstance(item.expr, Star) and _contains_aggregate(item.expr)
            for item in select.items
        )

        if select.where is not None:
            self._expr(select.where, scope, allow_aggregates=False)
        for group_expr in select.group_by:
            self._expr(group_expr, scope, allow_aggregates=False)
        if select.having is not None:
            if not grouped:
                self._error(
                    "QB111", "HAVING requires GROUP BY or aggregates", select.span
                )
            else:
                self._expr(select.having, scope, allow_aggregates=True)

        # Select list: infer types, expand stars, name the output columns
        # (``outputs``: the select item of each, None inside a star).
        column_count: int | None = 0
        outputs: list[tuple[int | None, str]] = []
        names: list[str | None] = []
        single_type: SqlType | None = None
        for index, item in enumerate(select.items):
            if isinstance(item.expr, Star):
                names.append(None)
                for schema in scope.bindings.values():
                    if schema is None:
                        column_count = None
                    elif column_count is not None:
                        column_count += len(schema)
                    if schema is not None:
                        outputs.extend((None, name) for name in schema.column_names())
                continue
            item_type = self._expr(item.expr, scope, allow_aggregates=True)
            if column_count == 0:
                single_type = item_type
            if column_count is not None:
                column_count += 1
            names.append(item.alias or _derive_name(item.expr))
            outputs.append((index, names[-1]))
        if column_count != 1:
            single_type = None

        # ORDER BY: a bare name of exactly one output column sorts by that
        # column (its select item; inside a star, the FROM column it is);
        # any other key is an expression over the FROM scope, and a name
        # of several output columns that no table has is ambiguous.
        order: list[int | None] = []
        order_exprs: list[Expr] = []
        for order_item in select.order_by:
            expr, named = order_item.expr, []
            if isinstance(expr, ColumnRef) and expr.qualifier is None:
                wanted = expr.name.lower()
                named = [index for index, name in outputs if name.lower() == wanted]
            if len(named) == 1 and named[0] is not None:
                order.append(named[0])
                continue
            order.append(None)
            if len(named) > 1 and not _visible(expr.name, scope):
                self._error(
                    "QB103", f"ORDER BY {expr.name!r} names several output columns",
                    expr.span,
                )
                continue
            self._expr(expr, scope, allow_aggregates=grouped)
            order_exprs.append(expr)

        if grouped:
            for item in select.items:
                self._check_grouped(item.expr, select)
            if select.having is not None:
                self._check_grouped(select.having, select)
            for expr in order_exprs:
                self._check_grouped(expr, select)

        block = scope.block
        block.names, block.grouped, block.order = tuple(names), grouped, tuple(order)
        return _SelectInfo(column_count, single_type)

    def _insert(self, stmt: Insert) -> None:
        schema = self._require_table(stmt.table, stmt.span)
        targets: list[tuple[str, SqlType] | None] | None = None
        if schema is not None:
            if stmt.columns is None:
                targets = [(c.name, c.sql_type) for c in schema.columns]
            else:
                targets = []
                for name in stmt.columns:
                    if name in schema:
                        column = schema.column(name)
                        targets.append((column.name, column.sql_type))
                    else:
                        self._error(
                            "QB102",
                            f"table {stmt.table!r} has no column {name!r}",
                            stmt.span,
                        )
                        targets.append(None)
        scope = self._scope(stmt, {})  # INSERT values reference no tables
        for row in stmt.rows:
            if targets is not None and len(row) != len(targets):
                if stmt.columns is not None:
                    message = "INSERT column list and VALUES length differ"
                else:
                    message = (
                        f"table {stmt.table!r} has {len(targets)} columns, "
                        f"got {len(row)} values"
                    )
                self._error("QB206", message, stmt.span)
                continue
            for position, expr in enumerate(row):
                value_type = self._expr(expr, scope, allow_aggregates=False)
                if targets is None or targets[position] is None:
                    continue
                name, sql_type = targets[position]
                self._check_storable(expr, value_type, name, sql_type)

    def _update(self, stmt: Update) -> None:
        schema = self._require_table(stmt.table, stmt.span)
        scope = self._scope(stmt, {stmt.table: schema} if schema is not None else {})
        for column, expr in stmt.assignments:
            value_type = self._expr(expr, scope, allow_aggregates=False)
            if schema is None:
                continue
            if column not in schema:
                self._error(
                    "QB102", f"table {stmt.table!r} has no column {column!r}", stmt.span
                )
                continue
            target = schema.column(column)
            self._check_storable(expr, value_type, target.name, target.sql_type)
        if stmt.where is not None:
            self._expr(stmt.where, scope, allow_aggregates=False)

    def _delete(self, stmt: Delete) -> None:
        schema = self._require_table(stmt.table, stmt.span)
        scope = self._scope(stmt, {stmt.table: schema} if schema is not None else {})
        if stmt.where is not None:
            self._expr(stmt.where, scope, allow_aggregates=False)

    def _create_table(self, stmt: CreateTable) -> None:
        if stmt.table in self.catalog:
            self._error("QB106", f"table {stmt.table!r} already exists", stmt.span)
        seen: set[str] = set()
        for name, type_name in stmt.columns:
            if name.lower() in seen:
                self._error(
                    "QB208",
                    f"duplicate column {name!r} in table {stmt.table!r}",
                    stmt.span,
                )
            seen.add(name.lower())
            try:
                SqlType.from_name(type_name)
            except SqlTypeError:
                self._error("QB205", f"unknown SQL type {type_name!r}", stmt.span)

    def _create_index(self, stmt: CreateIndex) -> None:
        schema = self._require_table(stmt.table, stmt.span)
        if schema is not None and stmt.column not in schema:
            self._error(
                "QB102",
                f"table {stmt.table!r} has no column {stmt.column!r}",
                stmt.span,
            )

    def _create_spatial_index(self, stmt: CreateSpatialIndex) -> None:
        schema = self._require_table(stmt.table, stmt.span)
        if schema is None:
            return
        if stmt.column not in schema:
            self._error(
                "QB102",
                f"table {stmt.table!r} has no column {stmt.column!r}",
                stmt.span,
            )
            return
        if schema.column(stmt.column).sql_type is not SqlType.LONGFIELD:
            self._error(
                "QB209",
                f"spatial index requires a LONGFIELD column; "
                f"{stmt.column!r} is {schema.column(stmt.column).sql_type.value}",
                stmt.span,
            )

    def _analyze_stmt(self, stmt: Analyze) -> None:
        if stmt.table is not None:
            self._require_table(stmt.table, stmt.span)

    def _drop_table(self, stmt: DropTable) -> None:
        self._require_table(stmt.table, stmt.span)

    def _require_table(self, name: str, span: Span | None) -> TableSchema | None:
        if name in self.catalog:
            return self.catalog.table(name).schema
        self._error("QB101", f"no such table {name!r}", span)
        return None

    # -------------------------------------------------------------- #
    # expression typing
    # -------------------------------------------------------------- #

    def _expr(self, expr: Expr, scope: _Scope, *, allow_aggregates: bool,
              in_aggregate: bool = False) -> SqlType | None:
        """Infer an expression's type, emitting diagnostics along the way.

        Returns ``None`` when the type is statically unknown (parameters,
        NULL, undeclared UDF results) — unknown never produces an error.
        """
        if isinstance(expr, Literal):
            try:
                return type_of_value(expr.value)
            except SqlTypeError:  # a host value with no SQL type: unknown
                return None
        if isinstance(expr, Param):
            return None
        if isinstance(expr, ColumnRef):
            return self._resolve_column(expr, scope)
        if isinstance(expr, Star):
            return None  # placement is validated by its consumers
        if isinstance(expr, UnaryOp):
            operand = self._expr(
                expr.operand, scope,
                allow_aggregates=allow_aggregates, in_aggregate=in_aggregate,
            )
            if operand is SqlType.LONGFIELD:
                self._error(
                    "QB301",
                    f"LONGFIELD value cannot be the operand of {expr.op!r}; "
                    "use a spatial function",
                    expr.span,
                )
                return None
            if expr.op == "-":
                if operand is not None and operand not in _ARITHMETIC:
                    self._error(
                        "QB201",
                        f"unary '-' is not defined for {operand.value} values",
                        expr.span,
                    )
                    return None
                if operand is SqlType.BOOLEAN:
                    return SqlType.INTEGER
                return operand
            return SqlType.BOOLEAN  # 'not'
        if isinstance(expr, BinOp):
            return self._binop(
                expr, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
            )
        if isinstance(expr, FuncCall):
            return self._call(
                expr, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
            )
        if isinstance(expr, Subquery):
            info = self._select(expr.select, scope)
            if info.column_count is not None and info.column_count != 1:
                self._error(
                    "QB113", "scalar subquery must produce exactly one column", expr.span
                )
            return info.single_type
        if isinstance(expr, InSubquery):
            value_type = self._expr(
                expr.value, scope,
                allow_aggregates=allow_aggregates, in_aggregate=in_aggregate,
            )
            info = self._select(expr.subquery, scope)
            if info.column_count is not None and info.column_count != 1:
                self._error(
                    "QB113", "IN subquery must produce exactly one column", expr.span
                )
            elif (
                value_type is not None
                and info.single_type is not None
                and not _comparable(value_type, info.single_type)
            ):
                self._error(
                    "QB202",
                    f"cannot test a {value_type.value} value for membership in "
                    f"a {info.single_type.value} subquery",
                    expr.span,
                )
            return SqlType.BOOLEAN
        if isinstance(expr, Exists):
            self._select(expr.subquery, scope)
            return SqlType.BOOLEAN
        return None

    def _binop(self, expr: BinOp, scope: _Scope, *, allow_aggregates: bool,
               in_aggregate: bool) -> SqlType | None:
        left = self._expr(
            expr.left, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
        )
        right = self._expr(
            expr.right, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
        )
        op = expr.op
        if op in ("and", "or"):
            for side in (left, right):
                if side is SqlType.LONGFIELD:
                    self._error(
                        "QB301",
                        f"LONGFIELD value cannot be an operand of {op!r}",
                        expr.span,
                    )
            return SqlType.BOOLEAN
        if op == "||":
            for side in (left, right):
                if side is SqlType.LONGFIELD:
                    self._error(
                        "QB301",
                        "LONGFIELD value cannot be concatenated; "
                        "extract or aggregate it first",
                        expr.span,
                    )
            return SqlType.TEXT
        if op in _COMPARISON_OPS:
            if left is SqlType.LONGFIELD and right is SqlType.LONGFIELD:
                if op in _ORDERING_OPS:
                    self._error(
                        "QB302",
                        "LONGFIELD values cannot be ordered; compare derived "
                        "scalars (voxelCount, dataMean, ...) instead",
                        expr.span,
                    )
            elif left is not None and right is not None and not _comparable(left, right):
                self._error(
                    "QB202",
                    f"cannot compare {left.value} with {right.value}",
                    expr.span,
                )
            return SqlType.BOOLEAN
        # arithmetic: + - * /
        for side in (left, right):
            if side is SqlType.LONGFIELD:
                self._error(
                    "QB301",
                    f"LONGFIELD value cannot be an operand of {op!r}; "
                    "use a spatial function",
                    expr.span,
                )
                return None
        for side in (left, right):
            if side is not None and side not in _ARITHMETIC:
                self._error(
                    "QB201",
                    f"operator {op!r} is not defined for {side.value} values",
                    expr.span,
                )
                return None
        if op == "/":
            return SqlType.REAL if left is not None and right is not None else None
        if left is None or right is None:
            return None
        if SqlType.REAL in (left, right):
            return SqlType.REAL
        return SqlType.INTEGER

    def _call(self, expr: FuncCall, scope: _Scope, *, allow_aggregates: bool,
              in_aggregate: bool) -> SqlType | None:
        name = expr.name
        lowered = name.lower()
        if name == "__is_null":  # desugared IS [NOT] NULL
            self._expr(
                expr.args[0], scope,
                allow_aggregates=allow_aggregates, in_aggregate=in_aggregate,
            )
            return SqlType.BOOLEAN
        if lowered in AGGREGATES:
            return self._aggregate(
                expr, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
            )
        arg_types = [
            self._expr(
                arg, scope, allow_aggregates=allow_aggregates, in_aggregate=in_aggregate
            )
            for arg in expr.args
        ]
        if self.functions is None:
            return None
        if name not in self.functions:
            self._error("QB104", f"no such function {name!r}", expr.span)
            return None
        signature = self.functions.signature(name)
        if signature is None:
            return None
        if not signature.arity_ok(len(expr.args)):
            self._error(
                "QB203",
                f"function {name}() takes {signature.arity_description()} "
                f"argument(s), got {len(expr.args)}",
                expr.span,
            )
            return signature.returns
        for position, arg_type in enumerate(arg_types):
            spec = signature.param_spec(position)
            if spec is ANY or arg_type is None:
                continue
            if arg_type not in spec:
                expected = " or ".join(sorted(t.value for t in spec))
                self._error(
                    "QB204",
                    f"argument {position + 1} of {name}() expects {expected}, "
                    f"got {arg_type.value}",
                    expr.args[position].span or expr.span,
                )
        return signature.returns

    def _aggregate(self, expr: FuncCall, scope: _Scope, *, allow_aggregates: bool,
                   in_aggregate: bool) -> SqlType | None:
        name = expr.name.lower()
        if not allow_aggregates:
            self._error(
                "QB110",
                f"aggregate {expr.name}() is not allowed in this clause",
                expr.span,
            )
            return None
        if in_aggregate:
            self._error("QB112", "aggregates cannot be nested", expr.span)
            return None
        if name == "count" and len(expr.args) == 1 and isinstance(expr.args[0], Star):
            return SqlType.INTEGER
        if len(expr.args) != 1:
            self._error(
                "QB115",
                f"aggregate {expr.name}() takes exactly one argument",
                expr.span,
            )
            return None
        arg_type = self._expr(
            expr.args[0], scope, allow_aggregates=allow_aggregates, in_aggregate=True
        )
        if name in ("sum", "avg"):
            if arg_type is SqlType.LONGFIELD:
                self._error(
                    "QB303",
                    f"{expr.name}() cannot aggregate LONGFIELD values; "
                    "reduce them with dataMean/voxelCount first",
                    expr.span,
                )
                return None
            if arg_type is SqlType.TEXT:
                self._error(
                    "QB201",
                    f"{expr.name}() is not defined for text values",
                    expr.span,
                )
                return None
        if name == "count":
            return SqlType.INTEGER
        if name == "avg":
            return SqlType.REAL
        return arg_type

    # -------------------------------------------------------------- #
    # resolution and grouped-context checking
    # -------------------------------------------------------------- #

    def _resolve_column(self, ref: ColumnRef, scope: _Scope) -> SqlType | None:
        """Resolve a column through the scope chain, inner-first (SQL
        rules), into ``scope``'s :class:`Block`; each block the chain
        passes on the way out is correlated."""
        current: _Scope | None = scope
        depth = 0
        while current is not None:
            owner = None
            if ref.qualifier is not None:
                key = ref.qualifier.lower()
                for binding, schema in current.bindings.items():
                    if binding.lower() != key:
                        continue
                    if schema is None:
                        return None  # table already diagnosed
                    if ref.name not in schema:
                        self._error(
                            "QB102",
                            f"table or alias {ref.qualifier!r} has no column {ref.name!r}",
                            ref.span,
                        )
                        return None
                    owner = binding
                    break
            else:
                owners = [
                    binding
                    for binding, schema in current.bindings.items()
                    if schema is not None and ref.name in schema
                ]
                has_unknown = any(s is None for s in current.bindings.values())
                if len(owners) > 1 and not has_unknown:
                    self._error(
                        "QB103", f"column {ref.name!r} is ambiguous", ref.span
                    )
                    return None
                if not owners and has_unknown:
                    return None  # might live in the unresolved table
                owner = owners[0] if owners else None
            if owner is not None:
                schema = current.bindings[owner]
                position = schema.position(ref.name)
                scope.block.columns[ref.qualifier, ref.name] = (depth, owner, position)
                for _ in range(depth):
                    scope.block.correlated = True
                    scope = scope.outer
                return schema.columns[position].sql_type
            current = current.outer
            depth += 1
        if ref.qualifier is not None:
            self._error(
                "QB107", f"unknown table or alias {ref.qualifier!r}", ref.span
            )
        else:
            self._error(
                "QB102", f"no table in FROM has a column {ref.name!r}", ref.span
            )
        return None

    def _check_grouped(self, expr: Expr, select: Select) -> None:
        """Enforce the GROUP BY visibility rule on one output expression.

        Mirrors the executor's grouped evaluator: an expression is valid if
        it is a grouping expression, a literal/parameter, an aggregate fold,
        a nested query block (evaluated on a representative row), or a
        composition of valid parts.  A bare column outside all of those
        cannot be evaluated per-group.
        """
        for group_expr in select.group_by:
            if expr == group_expr:
                return
        if isinstance(expr, (Literal, Param, Subquery, InSubquery, Exists)):
            return
        if isinstance(expr, FuncCall):
            if expr.name.lower() in AGGREGATES:
                return
            for arg in expr.args:
                self._check_grouped(arg, select)
            return
        if isinstance(expr, BinOp):
            self._check_grouped(expr.left, select)
            self._check_grouped(expr.right, select)
            return
        if isinstance(expr, UnaryOp):
            self._check_grouped(expr.operand, select)
            return
        if isinstance(expr, ColumnRef):
            self._error(
                "QB114",
                f"column {expr} must appear in GROUP BY or inside an aggregate",
                expr.span,
            )
            return
        if isinstance(expr, Star):
            self._error(
                "QB114",
                "'*' must appear inside count(*) in a grouped query",
                expr.span,
            )

    def _check_storable(self, expr: Expr, value_type: SqlType | None,
                        column: str, target: SqlType) -> None:
        """Flag values that can never be stored in a column of ``target`` type."""
        constant = _fold_constant(expr)
        if constant is not _NO_CONSTANT:
            try:
                coerce_value(constant, target)
            except SqlTypeError as exc:
                self._error("QB207", f"{exc} (column {column!r})", expr.span)
            return
        if value_type is None:
            return
        if target in _NUMERIC:
            compatible = value_type in _NUMERIC
        else:
            compatible = value_type is target
        if not compatible:
            self._error(
                "QB207",
                f"cannot store a {value_type.value} value in "
                f"{target.value} column {column!r}",
                expr.span,
            )


#: sentinel: expression is not a foldable constant
_NO_CONSTANT = object()


def _fold_constant(expr: Expr):
    """Evaluate literal expressions (including negated numbers) statically."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = _fold_constant(expr.operand)
        if isinstance(inner, (int, float)) and not isinstance(inner, bool):
            return -inner
    return _NO_CONSTANT


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall):
        if expr.name.lower() in AGGREGATES:
            return True
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return _contains_aggregate(expr.operand)
    return False


def _visible(name: str, scope: _Scope | None) -> bool:
    """Could an unqualified column ``name`` resolve somewhere in the chain?"""
    while scope is not None:
        if any(s is None or name in s for s in scope.bindings.values()):
            return True
        scope = scope.outer
    return False


def _derive_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        return expr.name
    return "expr"


def analyze(stmt: Statement, catalog: Catalog,
            functions: FunctionRegistry | None = None) -> list[Diagnostic]:
    """All diagnostics for one parsed statement (empty list = clean)."""
    return SemanticAnalyzer(catalog, functions).analyze(stmt)


def check(stmt: Statement, catalog: Catalog,
          functions: FunctionRegistry | None = None) -> dict[int, Block]:
    """Analyze, raise on the first error diagnostic, and return the
    binder's record: the :class:`Block` of each query block, by ``id``."""
    analyzer = SemanticAnalyzer(catalog, functions)
    raise_diagnostics(analyzer.analyze(stmt))
    return analyzer.blocks
