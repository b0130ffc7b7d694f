"""Statement execution: compiled expressions and nested-loop joins.

Nothing walks a syntax tree per row: when a query block is planned its
expressions are compiled to closures over resolved row slots
(:class:`_Compiler`), kept with the plan, and the loops only call them.

WHERE uses simplified two-valued logic: any comparison involving NULL is
false (the QBISM workload never relies on three-valued subtleties).
Ungrouped aggregates (``count/sum/avg/min/max``) are supported because
multi-study statistical queries (§6.4) want them.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.functions import ExecutionContext, FunctionRegistry, decode_region
from repro.db.planner import Plan, plan_select
from repro.db.schema import Column, TableSchema
from repro.db.semantic import AGGREGATES, Block
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
    Expr,
    FuncCall,
    InSubquery,
    Insert,
    Literal,
    Param,
    Select,
    Star,
    Statement,
    Subquery,
    UnaryOp,
    Update,
)
from repro.db.types import SqlType
from repro.errors import ExecutionError, SqlTypeError
from repro.obs import metrics, recorder

__all__ = ["ResultSet", "Executor"]

_STATEMENTS = metrics.counter("executor.statements")
_ROWS_EMITTED = metrics.counter("executor.rows_emitted")


@dataclass
class ResultSet:
    """Rows and column names produced by a SELECT."""

    columns: list[str]
    rows: list[tuple]
    #: rows affected, for DML statements routed through the same type
    rowcount: int = 0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> tuple | None:
        """The first row, or None when the result is empty."""
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def to_dicts(self) -> list[dict]:
        """Rows as column-name dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list:
        """One column's values, by case-insensitive name."""
        try:
            idx = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[idx] for row in self.rows]


# ------------------------------------------------------------------ #
# compiled expressions
#
# Every expression of a query block becomes a closure ``fn(frame, run)``
# once, when the block is planned.  ``frame`` is the list of rows bound so
# far — the enclosing blocks' rows first, then one slot per join level of
# this block, then the block's call memo — and a column reference is
# resolved at compile time to ``frame[index][slot]``.  ``run`` is the
# execution (:class:`_Run`): closures capture no table, catalog,
# parameter, context or registry, so a kept plan runs unchanged against
# another snapshot, other parameters, another registry.
# ------------------------------------------------------------------ #

_COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _divide(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    result = left / right
    if isinstance(left, int) and isinstance(right, int) and result == int(result):
        return int(result)
    return result


def _concat(left, right):
    return str(left) + str(right)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _divide, "||": _concat}


class _Run:
    """One execution of a statement: what compiled closures read at run
    time instead of capturing."""

    __slots__ = ("executor", "params", "ctx", "call")

    def __init__(self, executor: "Executor", params: list, ctx: ExecutionContext):
        self.executor = executor
        self.params = params
        self.ctx = ctx
        # looked up per execution, so a registry swapped or patched
        # between two runs of a kept plan is the one that gets called
        self.call = executor.functions.call


def _column(index: int, slot: int):
    return lambda frame, run: frame[index][slot]


def _param(index: int):
    def param(frame, run):
        try:
            return run.params[index]
        except IndexError:
            raise ExecutionError(
                f"statement references parameter {index + 1} but only "
                f"{len(run.params)} were supplied"
            ) from None
    return param


def _compare(op: str, left, right):
    test = _COMPARE[op]

    def compare(frame, run):
        a, b = left(frame, run), right(frame, run)
        if a is None or b is None:
            return False  # simplified two-valued logic
        try:
            return test(a, b)
        except TypeError:
            raise SqlTypeError(
                f"cannot compare {type(a).__name__} with {type(b).__name__}"
            ) from None
    return compare


def _arithmetic(op: str, left, right):
    apply = _ARITHMETIC[op]

    def arithmetic(frame, run):
        a, b = left(frame, run), right(frame, run)
        if a is None or b is None:
            return None
        try:
            return apply(a, b)
        except TypeError:
            raise SqlTypeError(
                f"operator {op!r} not defined for "
                f"{type(a).__name__} and {type(b).__name__}"
            ) from None
    return arithmetic


def _call(name: str, args: tuple, cell: int | None):
    """A scalar function call.  Identical calls of one block share memo
    cell ``cell`` of the frame's memo — a fresh dict per row binding — so
    a UDF in both WHERE and the select list runs once per row; grouped
    calls (``cell`` None) take aggregates, not rows, and are not memoized.
    """
    def call(frame, run):
        return run.call(name, [arg(frame, run) for arg in args], run.ctx)

    def memoized(frame, run):
        memo = frame[-1]
        if cell not in memo:
            memo[cell] = call(frame, run)
        return memo[cell]
    return call if cell is None else memoized


def _fold(name: str, arg):
    """An aggregate over a group ``(representative frame, frames)``."""
    def fold(group, run):
        if arg is None:  # count(*)
            return len(group[1])
        samples = [v for frame in group[1]
                   if (v := arg(frame, run)) is not None]
        if name == "count":
            return len(samples)
        if not samples:
            return None
        try:
            if name == "min":
                return min(samples)
            if name == "max":
                return max(samples)
            total = sum(samples)
            return total if name == "sum" else total / len(samples)
        except TypeError:
            raise SqlTypeError(
                f"aggregate {name}() not defined over "
                f"{sorted({type(v).__name__ for v in samples})}"
            ) from None
    return fold


class _Compiler:
    """Compiles the expressions of one query block (or DML statement).

    ``scopes`` is the chain of visible query blocks, outermost first, each
    a tuple of ``(binding, schema)`` in frame order; ``block`` is the
    binder's record of this one, which says where each column lives.
    """

    def __init__(self, scopes: tuple, block: Block, group_by: tuple = ()):
        self.scopes = scopes
        self.block = block
        self.group_by = group_by
        #: distinct scalar calls of the block -> their memo cell
        self.cells: dict[FuncCall, int] = {}

    def slot(self, ref: ColumnRef) -> tuple[int, int]:
        """The ``(frame index, row slot)`` a column reference reads."""
        depth, binding, position = self.block.columns[ref.qualifier, ref.name]
        outer = self.scopes[:len(self.scopes) - 1 - depth]
        scope = self.scopes[-1 - depth]
        index = next(i for i, (name, _) in enumerate(scope) if name == binding)
        return sum(map(len, outer)) + index, position

    def expr(self, node: Expr, grouped: bool = False):
        """The closure for ``node``: over a frame, or — ``grouped`` — over
        a group, where aggregates fold and grouping expressions and nested
        blocks read the representative row (the analyzer rejected a bare
        column, QB114).
        """
        if grouped:
            if isinstance(node, FuncCall) and node.name.lower() in AGGREGATES:
                # arity and nesting were proven by the analyzer (QB112/115)
                star = isinstance(node.args[0], Star)
                return _fold(node.name.lower(),
                             None if star else self.expr(node.args[0]))
            if node in self.group_by or isinstance(
                    node, (Subquery, InSubquery, Exists)):
                row = self.expr(node)
                return lambda group, run: row(group[0], run)
        if isinstance(node, Literal):
            value = node.value
            return lambda frame, run: value
        if isinstance(node, Param):
            return _param(node.index)
        if isinstance(node, ColumnRef):
            return _column(*self.slot(node))
        if isinstance(node, UnaryOp):
            operand = self.expr(node.operand, grouped)
            if node.op == "-":
                return lambda frame, run: (
                    None if (v := operand(frame, run)) is None else -v)
            if node.op == "not":
                return lambda frame, run: (
                    None if (v := operand(frame, run)) is None else not bool(v))
            raise ExecutionError(f"unknown unary operator {node.op!r}")
        if isinstance(node, BinOp):
            left = self.expr(node.left, grouped)
            right = self.expr(node.right, grouped)
            if node.op == "and":
                return lambda frame, run: (
                    bool(right(frame, run)) if left(frame, run) else False)
            if node.op == "or":
                return lambda frame, run: (
                    True if left(frame, run) else bool(right(frame, run)))
            if node.op in _COMPARE:
                return _compare(node.op, left, right)
            if node.op in _ARITHMETIC:
                return _arithmetic(node.op, left, right)
            raise ExecutionError(f"unknown operator {node.op!r}")
        if isinstance(node, FuncCall):
            args = tuple(self.expr(arg, grouped) for arg in node.args)
            if node.name == "__is_null":
                return lambda frame, run: args[0](frame, run) is None
            # aggregates outside grouped queries were rejected by the
            # analyzer (QB110); any FuncCall reaching here is a scalar call
            cell = None if grouped else self.cells.setdefault(node, len(self.cells))
            return _call(node.name, args, cell)
        if isinstance(node, (Subquery, InSubquery, Exists)):
            return self._nested(node)
        if isinstance(node, Star):
            raise ExecutionError("'*' is only allowed in a select list or count(*)")
        raise ExecutionError(f"cannot evaluate {type(node).__name__}")

    def _nested(self, node):
        """A nested query block: run (per row when correlated) with this
        block's frame as the enclosing rows."""
        scopes = self.scopes
        if isinstance(node, Exists):
            select, negated = node.subquery, node.negated
            return lambda frame, run: bool(run.executor._run_subquery(
                select, scopes, frame, run).rows) != negated
        if isinstance(node, Subquery):
            select = node.select

            def scalar(frame, run):
                rows = run.executor._run_subquery(select, scopes, frame, run).rows
                if len(rows) > 1:
                    raise ExecutionError("scalar subquery returned more than one row")
                return rows[0][0] if rows else None
            return scalar
        select, negated, value = node.subquery, node.negated, self.expr(node.value)

        def contains(frame, run):
            wanted = value(frame, run)
            if wanted is None:
                return False  # simplified two-valued logic
            # one column, proven by the analyzer (QB113)
            rows = run.executor._run_subquery(select, scopes, frame, run).rows
            return any(row[0] == wanted for row in rows) != negated
        return contains


@dataclass
class _Program:
    """What one planned SELECT block compiles to (``Plan.program``)."""

    #: the block's scope chain, its own tables (in join order) last
    scopes: tuple
    #: frame slots the enclosing blocks' rows occupy
    base: int
    #: the block calls functions: every row binding starts a fresh memo
    memo: bool
    #: per join level: table name, "spatial" / "bucket" / None, the probed
    #: column(s), the probe-value closure(s), the level's predicates
    levels: tuple
    columns: list[str]
    #: one closure per output column — over a frame, or over a group
    items: tuple
    grouped: bool
    group_keys: tuple
    having: object | None
    #: per ORDER BY key: output column it names (or None), closure, ascending
    order: tuple

    def frame(self, outer: list | None, rows: list) -> list:
        """A frame of this block: enclosing rows, own rows, call memo."""
        return (outer[:-1] if outer else []) + rows + [{} if self.memo else None]


def _compile_select(plan: Plan, catalog: Catalog, outer: tuple,
                    block: Block) -> _Program:
    select = plan.select
    schemas = [catalog.table(ref.name).schema for ref in plan.table_order]
    scopes = outer + (tuple(
        (ref.binding, schema) for ref, schema in zip(plan.table_order, schemas)),)
    compiler = _Compiler(scopes, block, select.group_by)
    base = sum(len(scope) for scope in outer)
    levels = []
    for level, ref in enumerate(plan.table_order):
        keys = plan.equal_keys[level]
        access = column = value = None
        if spatial := plan.spatial_probes[level]:
            access, column, value = "spatial", spatial[0], compiler.expr(spatial[1])
        elif keys:
            access, column = "bucket", tuple(schemas[level].position(c) for c, _ in keys)
            value = tuple(compiler.expr(constant) for _, constant in keys)
        levels.append((ref.name, access, column, value,
                       tuple(compiler.expr(p) for p in plan.level_predicates[level])))
    grouped = block.grouped
    columns: list[str] = []
    items: list = []
    first: list[int] = []  # per select item, its first output column
    for item, name in zip(select.items, block.names):
        first.append(len(columns))
        if name is None:  # a '*' (never grouped: QB114), in FROM order
            for ref in select.tables:
                level = plan.table_order.index(ref)
                columns.extend(schemas[level].column_names())
                items.extend(_column(base + level, slot) for slot in range(len(schemas[level])))
        else:
            columns.append(name)
            items.append(compiler.expr(item.expr, grouped))
    # An ORDER BY key naming a select item sorts on its projected value.
    order = tuple(
        (first[item], None, key.ascending) if item is not None
        else (None, compiler.expr(key.expr, grouped), key.ascending)
        for key, item in zip(select.order_by, block.order))
    group_keys = tuple(compiler.expr(g) for g in select.group_by)
    # HAVING without grouping was rejected by the analyzer (QB111)
    having = (compiler.expr(select.having, True)
              if select.having is not None else None)
    return _Program(scopes, base, bool(compiler.cells), tuple(levels), columns,
                    tuple(items), grouped, group_keys, having, order)


class Executor:
    """Executes parsed statements against a catalog and function registry."""

    def __init__(self, catalog: Catalog, functions: FunctionRegistry):
        self.catalog = catalog
        self.functions = functions

    # -------------------------------------------------------------- #
    # dispatch
    # -------------------------------------------------------------- #

    def execute(self, stmt: Statement, params: list, ctx: ExecutionContext) -> ResultSet:
        """Dispatch one parsed statement to its handler.

        The statement has passed semantic analysis: ``ctx.blocks`` is the
        binder's record of it (:func:`repro.db.semantic.check`).
        """
        _STATEMENTS.inc()
        was = recorder.enter("db.executor")
        try:
            if isinstance(stmt, Select):
                return self.execute_select(stmt, _Run(self, params, ctx))
            if isinstance(stmt, Insert):
                return self._execute_insert(stmt, params, ctx)
            if isinstance(stmt, CreateTable):
                return self._execute_create(stmt)
            if isinstance(stmt, DropTable):
                self.catalog.drop_table(stmt.table)
                return ResultSet([], [], rowcount=0)
            if isinstance(stmt, Delete):
                return self._execute_delete(stmt, params, ctx)
            if isinstance(stmt, Update):
                return self._execute_update(stmt, params, ctx)
            if isinstance(stmt, CreateIndex):
                table = self.catalog.writable(stmt.table)
                fresh = table.stats.fresh(table)
                self.catalog.create_index(stmt.name, stmt.table, stmt.column)
                # index DDL changes no rows: repair the stamp it broke
                if fresh:
                    table.stats.restamp(table)
                return ResultSet([], [], rowcount=0)
            if isinstance(stmt, DropIndex):
                table_name = self.catalog.index_table(stmt.name)
                table = (
                    self.catalog.writable(table_name) if table_name is not None else None
                )
                fresh = table is not None and table.stats.fresh(table)
                self.catalog.drop_index(stmt.name)
                if fresh:
                    table.stats.restamp(table)
                return ResultSet([], [], rowcount=0)
            if isinstance(stmt, CreateSpatialIndex):
                self.catalog.create_spatial_index(stmt.name, stmt.table, stmt.column)
                # Collects the column's region-cell directory (cells already
                # parsed are not read again) and its box column.
                table = self.catalog.writable(stmt.table)
                table.stats.recompute(table, ctx.read_longfield)
                return ResultSet([], [], rowcount=0)
            if isinstance(stmt, Analyze):
                return self._execute_analyze(stmt, ctx)
            raise ExecutionError(f"unsupported statement {type(stmt).__name__}")
        finally:
            recorder.leave(was)

    # -------------------------------------------------------------- #
    # statistics maintenance: a statement maintains only stats that were
    # fresh before it, so state that went stale behind the executor's
    # back stays visibly stale until the next ANALYZE
    # -------------------------------------------------------------- #

    def _resynced(self, table, mutate, ctx: ExecutionContext) -> ResultSet:
        """Run a delete/update and resynchronize the statistics behind it.

        Rewrites may store coerced values that differ from what the
        assignment expressions produced, so incremental accounting is not
        reliable there; a cached recompute (payloads already parsed) is.
        """
        fresh = table.stats.fresh(table)
        count = mutate()
        if fresh and not table.stats.fresh(table):
            table.stats.recompute(table, ctx.read_longfield)
        return ResultSet([], [], rowcount=count)

    def _execute_analyze(self, stmt: Analyze, ctx: ExecutionContext) -> ResultSet:
        names = [stmt.table] if stmt.table is not None else self.catalog.table_names()
        analyzed = 0
        for name in names:
            table = self.catalog.writable(name)
            # Rows are unchanged, but the stats are not: a plan memoized
            # on the old ones must not match.  recompute stamps to the
            # moved stamp, so the stats (and indexes over them) are fresh.
            table.touch()
            table.stats.recompute(table, ctx.read_longfield, spatial=True)
            analyzed += table.row_count
        return ResultSet([], [], rowcount=analyzed)

    # -------------------------------------------------------------- #
    # DML / DDL
    # -------------------------------------------------------------- #

    def _execute_insert(self, stmt: Insert, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.writable(stmt.table)
        fresh = table.stats.fresh(table)

        def build():
            compiler = _Compiler(((),), ctx.blocks[id(stmt)])
            return [[compiler.expr(e) for e in row] for row in stmt.rows]

        run, frame = _Run(self, params, ctx), [{}]
        stored = []
        for value_row in self._kept(stmt, ctx, None, build):
            values = [value(frame, run) for value in value_row]
            if stmt.columns is None:
                stored.append(table.insert(values))
            else:
                # value/column arity was proven to match by the analyzer (QB206)
                stored.append(
                    table.insert_named(**dict(zip(stmt.columns, values))))
        if fresh:
            # maintain the stats with the *stored* (coerced) rows
            table.stats.apply_inserts(table, stored, ctx.read_longfield,
                                      ctx.stored_cells)
        return ResultSet([], [], rowcount=len(stored))

    def _execute_create(self, stmt: CreateTable) -> ResultSet:
        columns = [Column(name, SqlType.from_name(type_name)) for name, type_name in stmt.columns]
        self.catalog.create_table(TableSchema(stmt.table, columns))
        return ResultSet([], [], rowcount=0)

    def _row_program(self, stmt: Delete | Update, table, ctx: ExecutionContext,
                     assignments: tuple = ()):
        """A DELETE/UPDATE compiled over its one table: the WHERE closure
        (None: every row) and the assignments' ``(slot, closure)`` pairs."""
        def build():
            compiler = _Compiler((((stmt.table, table.schema),),), ctx.blocks[id(stmt)])
            where = compiler.expr(stmt.where) if stmt.where is not None else None
            return where, [(table.schema.position(column), compiler.expr(expr))
                           for column, expr in assignments]
        return self._kept(stmt, ctx, None, build)

    def _execute_delete(self, stmt: Delete, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.writable(stmt.table)
        where, _ = self._row_program(stmt, table, ctx)
        run = _Run(self, params, ctx)

        def matches(row: list) -> bool:
            return where is None or bool(where([row, {}], run))

        return self._resynced(table, lambda: table.delete_where(matches), ctx)

    def _execute_update(self, stmt: Update, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.writable(stmt.table)
        where, assignments = self._row_program(stmt, table, ctx, stmt.assignments)
        run = _Run(self, params, ctx)

        def matches(row: list) -> bool:
            return where is None or bool(where([row, {}], run))

        def apply(row: list) -> list:
            frame, new_row = [row, {}], list(row)
            for slot, value in assignments:
                new_row[slot] = value(frame, run)
            return new_row

        return self._resynced(
            table, lambda: table.update_where(matches, apply), ctx
        )

    # -------------------------------------------------------------- #
    # SELECT
    # -------------------------------------------------------------- #

    def execute_select(self, select: Select, run: _Run, scopes: tuple = (),
                       outer: list | None = None) -> ResultSet:
        """Run a SELECT: join, filter, group, project, order, limit.

        ``scopes`` and ``outer`` are the enclosing blocks' scope chain and
        frame when this SELECT executes as a correlated subquery.
        """
        # EXPLAIN ANALYZE profiles the outermost SELECT only: take the
        # profile off the context so subqueries run unprofiled.
        ctx = run.ctx
        profile = ctx.profile
        if profile is not None:
            ctx.profile = None
        plan = self.plan(select, ctx, scopes)
        program: _Program = plan.program
        if profile is not None:
            profile.attach(plan)
            stmt_start = time.perf_counter()
            stmt_pages = _lfm_pages(ctx)
        frames: list[list] = []
        tables = [self.catalog.table(level[0]) for level in program.levels]
        self._join(0, program, tables, program.frame(outer, [None] * len(tables)),
                   frames, run, profile)
        if profile is not None:
            out_start = time.perf_counter()
            out_pages = _lfm_pages(ctx)
        units = frames
        if program.grouped:
            units = self._groups(program, frames, outer, run)
        rows = [tuple(item(unit, run) for item in program.items) for unit in units]
        if program.order:
            pairs = list(zip(rows, units))
            # Python's sort is stable; apply keys right-to-left for mixed
            # asc/desc.  NULLs sort high: last ascending, first descending.
            for index, key, ascending in reversed(program.order):
                def null_high(pair):
                    value = pair[0][index] if key is None else key(pair[1], run)
                    return value is None, value
                try:
                    pairs.sort(key=null_high, reverse=not ascending)
                except TypeError as exc:
                    raise SqlTypeError(f"cannot order rows: {exc}") from None
            rows = [row for row, _ in pairs]
        if select.distinct:
            seen = set()
            unique = []
            for row in rows:
                key = tuple(_hashable(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if select.limit is not None:
            rows = rows[: select.limit]
        ctx.work.rows_output += len(rows)
        _ROWS_EMITTED.inc(len(rows))
        if profile is not None:
            now = time.perf_counter()
            pages = _lfm_pages(ctx)
            profile.output.rows_in = len(frames)
            profile.output.rows_out = len(rows)
            profile.output.wall_seconds = now - out_start
            profile.output.page_ios = pages - out_pages
            profile.rowcount = len(rows)
            profile.wall_seconds = now - stmt_start
            profile.page_ios = pages - stmt_pages
        return ResultSet(list(program.columns), rows)

    def _join(self, level: int, program: _Program, tables: list, frame: list,
              out: list, run: _Run, profile) -> None:
        """Nested loops from ``level`` down: append to ``out`` a copy of
        ``frame`` for every row combination passing all predicates.

        A level with an index probe or ``col = constant`` conjuncts reads,
        of a published table, only the bucket their values key (an
        unpublished copy in a write scope scans: the conjuncts stay among
        the level's predicates); probing with NULL matches nothing (SQL
        equality semantics).

        With a ``profile`` (EXPLAIN ANALYZE), each level's
        :class:`~repro.obs.explain.OperatorStats` accumulates the rows it
        examined and matched plus the time and page I/Os of its own
        scan-bind-filter work (child levels account for themselves).
        """
        if level == len(tables):
            out.append(frame[:])
            return
        ctx, table = run.ctx, tables[level]
        _, access, column, probe, predicates = program.levels[level]
        rows = None
        if access == "spatial":
            rows = self._spatial_candidates(table, column, probe, frame, run)
        elif access == "bucket" and table.published:
            rows = _bucket_rows(table, column, probe, frame, run)
        if rows is None:
            rows = table.scan()
        slot, memo = program.base + level, program.memo
        stats = profile.levels[level] if profile is not None else None
        scanned = 0
        for row in rows:
            scanned += 1
            if stats is not None:
                start = time.perf_counter()
                pages = _lfm_pages(ctx)
            frame[slot] = row
            if memo:
                frame[-1] = {}
            for predicate in predicates:
                if not predicate(frame, run):
                    matched = False
                    break
            else:
                matched = True
            if stats is not None:
                stats.wall_seconds += time.perf_counter() - start
                stats.page_ios += _lfm_pages(ctx) - pages
                stats.rows_out += matched
            if matched:
                self._join(level + 1, program, tables, frame, out, run, profile)
        ctx.work.rows_scanned += scanned
        if stats is not None:
            stats.rows_in += scanned

    def _spatial_candidates(self, table, column: str, probe, frame: list,
                            run: _Run):
        """Rows a spatial-index probe narrows a level to, or None for a scan.

        Returns None whenever the probe value is irregular (NULL handle,
        unparseable payload) so the plain scan evaluates the exact
        predicate against every row and the statement filters — or
        raises — exactly as the unoptimized plan would.
        """
        index = table.spatial_index_on(column)
        if index is None:
            return None
        value = probe(frame, run)
        if value is None:
            return None
        try:
            region = decode_region(run.ctx.read_longfield(value))
        except Exception:  # qblint: disable=no-broad-except
            return None  # any read/decode failure: defer to the plain scan
        if not region.voxel_count:
            # empty probe region: intersection() is empty for every row,
            # so the exact predicate rejects everything — skip the level
            return ()
        lower, upper = region.bounding_box()
        return index.probe(lower, upper)

    def _groups(self, program: _Program, frames: list[list],
                outer: list | None, run: _Run) -> list[tuple]:
        """GROUP BY and HAVING: ``(representative frame, frames)`` per
        surviving group.  An empty GROUP BY forms one global group, whose
        representative over no rows is a frame of NULL rows."""
        if program.group_keys:
            grouped: dict[tuple, list] = {}
            for frame in frames:
                key = tuple(_hashable(k(frame, run)) for k in program.group_keys)
                grouped.setdefault(key, []).append(frame)
            groups = [(members[0], members) for members in grouped.values()]
        elif frames:
            groups = [(frames[0], frames)]
        else:
            nulls = [[None] * len(schema) for _, schema in program.scopes[-1]]
            groups = [(program.frame(outer, nulls), frames)]
        if program.having is not None:
            groups = [g for g in groups if program.having(g, run)]
        return groups

    # -------------------------------------------------------------- #
    # nested query blocks and the plan table
    # -------------------------------------------------------------- #

    def _run_subquery(self, select: Select, scopes: tuple, frame: list,
                      run: _Run) -> ResultSet:
        """Run a nested query block, caching per statement when uncorrelated.

        A block the binder found uncorrelated cannot depend on the outer
        row, so one execution serves every outer row; a correlated one
        re-runs per row with the enclosing frame in scope.
        """
        ctx = run.ctx
        cached = ctx.subquery_cache.get(select)
        if cached is not None:
            return cached
        if ctx.blocks[id(select)].correlated:
            return self.execute_select(select, run, scopes, frame)
        result = self.execute_select(select, run)
        ctx.subquery_cache[select] = result
        return result

    def _kept(self, node, ctx: ExecutionContext, outer, build):
        """``node``'s entry in the statement's plan table (``ctx.plans``),
        built and kept there on first use."""
        key = (id(node), outer, ctx.planner_mode)
        found = ctx.plans.get(key)
        if found is None:
            found = ctx.plans[key] = build()
        return found

    def plan(self, select: Select, ctx: ExecutionContext, scopes: tuple = ()):
        """The block's plan, compiled (``plan.program``), from the plan
        table.  ``scopes`` is the enclosing blocks' scope chain."""
        def build() -> Plan:
            was = recorder.enter("db.planner")
            try:
                plan = plan_select(select, self.catalog, ctx.blocks,
                                   mode=ctx.planner_mode)
            finally:
                recorder.leave(was)
            plan.program = _compile_select(plan, self.catalog, scopes,
                                           ctx.blocks[id(select)])
            return plan

        names = tuple(tuple(b for b, _ in scope) for scope in scopes) or None
        return self._kept(select, ctx, names, build)


def _bucket_rows(table, positions: tuple, values: tuple, frame: list, run: _Run):
    """The rows of ``table.equal_buckets(positions)`` keyed by the values,
    or None for a scan on a missing parameter or an unhashable value: the
    level's predicates then filter, or raise, as without the bucket."""
    try:
        key = tuple(value(frame, run) for value in values)
        return () if any(v is None for v in key) else (
            table.equal_buckets(positions).get(key, ()))
    except (ExecutionError, TypeError):
        return None


def _lfm_pages(ctx: ExecutionContext) -> int:
    """LFM pages this *statement* touched so far (0 when no LFM attached).

    Prefers the statement's thread-local I/O collector: under concurrent
    sessions the global counters move for everyone, and reading them here
    would attribute other statements' pages to this plan's operators.
    """
    if ctx.io_sink is not None:
        return ctx.io_sink.total_pages
    return ctx.lfm.stats.total_pages if ctx.lfm is not None else 0


def _hashable(value):
    try:
        hash(value)
        return value
    except TypeError:
        return id(value)
