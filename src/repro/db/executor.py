"""Statement execution: expression evaluation and nested-loop joins.

WHERE uses simplified two-valued logic: any comparison involving NULL is
false (the QBISM workload never relies on three-valued subtleties).
Ungrouped aggregates (``count/sum/avg/min/max``) are supported because
multi-study statistical queries (§6.4) want them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.db.catalog import Catalog
from repro.db.functions import ExecutionContext, FunctionRegistry
from repro.db.planner import Plan, plan_select
from repro.db.schema import Column, TableSchema
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
    SelectItem,
    Star,
    Statement,
    Subquery,
    UnaryOp,
    Update,
)
from repro.db.types import SqlType
from repro.errors import CatalogError, ExecutionError, SqlTypeError
from repro.obs import metrics, trace
from repro.regions.region import Region

__all__ = ["ResultSet", "Executor"]

_AGGREGATES = {"count", "sum", "avg", "min", "max"}

#: plan-table entry of a nested block that cannot be planned standalone
_CORRELATED = "correlated"


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


class _Env:
    """Run-time bindings: binding name -> (schema, row).

    ``call_cache`` memoizes function-call results within one row binding, so
    a UDF appearing in both the WHERE clause and the select list (e.g. the
    ``dataMean(extractVoxels(...))`` of a cohort query) runs once.  Binding
    any frame invalidates the cache — conservative but always correct.

    ``outer`` chains to the enclosing query block's environment: correlated
    subqueries resolve their own tables first, then fall back outward, the
    standard SQL scoping rule.
    """

    __slots__ = ("frames", "call_cache", "outer")

    def __init__(self, outer: "_Env | None" = None) -> None:
        self.frames: dict[str, tuple[TableSchema, list]] = {}
        self.call_cache: dict = {}
        self.outer = outer

    def bind(self, binding: str, schema: TableSchema, row: list) -> None:
        """(Re)bind one table row; invalidates the call cache."""
        self.frames[binding] = (schema, row)
        self.call_cache.clear()

    def lookup(self, ref: ColumnRef):
        """Resolve a column reference against the bound frames (then outward)."""
        if ref.qualifier is not None:
            for binding, (schema, row) in self.frames.items():
                if binding.lower() == ref.qualifier.lower():
                    return row[schema.position(ref.name)]
            if self.outer is not None:
                return self.outer.lookup(ref)
            raise CatalogError(f"unknown table or alias {ref.qualifier!r}")
        owners = [
            (schema, row)
            for schema, row in self.frames.values()
            if ref.name in schema
        ]
        if not owners:
            if self.outer is not None:
                return self.outer.lookup(ref)
            raise CatalogError(f"no bound table has a column {ref.name!r}")
        if len(owners) > 1:
            raise CatalogError(f"column {ref.name!r} is ambiguous")
        schema, row = owners[0]
        return row[schema.position(ref.name)]


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

        Statements must pass semantic analysis before they run; when the
        caller has not already analyzed (``ctx.analyzed``), the analyzer
        runs here so direct ``Executor`` users get the same guarantees as
        the :class:`~repro.db.database.Database` facade.
        """
        if not ctx.analyzed:
            from repro.db.semantic import check

            check(stmt, self.catalog, self.functions)
            ctx.analyzed = True
        metrics.counter("executor.statements").inc()
        with trace.span("executor.statement", statement=type(stmt).__name__):
            return self._dispatch(stmt, params, ctx)

    def _dispatch(self, stmt: Statement, params: list, ctx: ExecutionContext) -> ResultSet:
        if isinstance(stmt, Select):
            return self.execute_select(stmt, params, ctx)
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
            table = self.catalog.table(stmt.table)
            fresh = table.stats.fresh(table)
            self.catalog.create_index(stmt.name, stmt.table, stmt.column)
            # index DDL changes no rows: repair the stamp it broke
            if fresh:
                table.stats.restamp(table)
            return ResultSet([], [], rowcount=0)
        if isinstance(stmt, DropIndex):
            table_name = self.catalog.index_table(stmt.name)
            table = (
                self.catalog.table(table_name) if table_name is not None else None
            )
            fresh = table is not None and table.stats.fresh(table)
            self.catalog.drop_index(stmt.name)
            if fresh:
                table.stats.restamp(table)
            return ResultSet([], [], rowcount=0)
        if isinstance(stmt, CreateSpatialIndex):
            self.catalog.create_spatial_index(stmt.name, stmt.table, stmt.column)
            # Collects the column's region-cell directory (cells already
            # parsed are not read again) and packs the tree over it.
            table = self.catalog.table(stmt.table)
            table.stats.recompute(table, ctx.read_longfield)
            return ResultSet([], [], rowcount=0)
        if isinstance(stmt, Analyze):
            return self._execute_analyze(stmt, ctx)
        raise ExecutionError(f"unsupported statement {type(stmt).__name__}")

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
            table = self.catalog.table(name)
            # Bump the stamp first: rows are unchanged, but MVCC publish
            # re-clones only changed-stamp tables, and snapshots must see
            # the new statistics.  recompute stamps to the bumped value,
            # so the stats (and the indexes over them) come out fresh.
            table.mutations += 1
            table.stats.recompute(table, ctx.read_longfield, spatial=True)
            analyzed += table.row_count
        return ResultSet([], [], rowcount=analyzed)

    # -------------------------------------------------------------- #
    # DML / DDL
    # -------------------------------------------------------------- #

    def _execute_insert(self, stmt: Insert, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.table(stmt.table)
        fresh = table.stats.fresh(table)
        before = table.row_count
        env = _Env()
        count = 0
        for value_row in stmt.rows:
            values = [self._eval(expr, env, params, ctx) for expr in value_row]
            if stmt.columns is None:
                table.insert(values)
            else:
                # value/column arity was proven to match by the analyzer (QB206)
                table.insert_named(**dict(zip(stmt.columns, values)))
            count += 1
        stored = list(itertools.islice(table.scan(), before, None))
        if fresh:
            # maintain the stats with the *stored* (coerced) rows
            table.stats.apply_inserts(table, stored, ctx.read_longfield)
        if ctx.lfm is not None:
            def undo() -> None:
                gone = {id(row) for row in stored}
                self._resynced(table, lambda: table.delete_where(
                    lambda row: id(row) in gone), ctx)

            # The rows hold handles of long fields the enclosing storage
            # transaction wrote: if it rolls back, they go with them.
            ctx.lfm.on_rollback(undo)
        return ResultSet([], [], rowcount=count)

    def _execute_create(self, stmt: CreateTable) -> ResultSet:
        columns = [Column(name, SqlType.from_name(type_name)) for name, type_name in stmt.columns]
        self.catalog.create_table(TableSchema(stmt.table, columns))
        return ResultSet([], [], rowcount=0)

    def _execute_delete(self, stmt: Delete, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.table(stmt.table)

        def matches(row: list) -> bool:
            if stmt.where is None:
                return True
            env = _Env()
            env.bind(table.name, table.schema, row)
            return bool(self._eval(stmt.where, env, params, ctx))

        return self._resynced(table, lambda: table.delete_where(matches), ctx)

    def _execute_update(self, stmt: Update, params: list, ctx: ExecutionContext) -> ResultSet:
        table = self.catalog.table(stmt.table)
        positions = [table.schema.position(col) for col, _ in stmt.assignments]

        def matches(row: list) -> bool:
            if stmt.where is None:
                return True
            env = _Env()
            env.bind(table.name, table.schema, row)
            return bool(self._eval(stmt.where, env, params, ctx))

        def apply(row: list) -> list:
            env = _Env()
            env.bind(table.name, table.schema, row)
            new_row = list(row)
            for position, (_, expr) in zip(positions, stmt.assignments):
                new_row[position] = self._eval(expr, env, params, ctx)
            return new_row

        return self._resynced(
            table, lambda: table.update_where(matches, apply), ctx
        )

    # -------------------------------------------------------------- #
    # SELECT
    # -------------------------------------------------------------- #

    def execute_select(self, select: Select, params: list, ctx: ExecutionContext,
                       outer_env: _Env | None = None) -> ResultSet:
        """Run a SELECT: join, filter, group, project, order, limit.

        ``outer_env`` supplies the enclosing block's bindings when this
        SELECT executes as a correlated subquery.
        """
        # EXPLAIN ANALYZE profiles the outermost SELECT only: take the
        # profile off the context so subqueries run unprofiled.
        profile = ctx.profile
        if profile is not None:
            ctx.profile = None
        with trace.span("executor.select", tables=len(select.tables)):
            return self._execute_select(select, params, ctx, outer_env, profile)

    def _execute_select(self, select: Select, params: list, ctx: ExecutionContext,
                        outer_env: _Env | None, profile) -> ResultSet:
        plan = self.plan(select, ctx, _visible_bindings(outer_env))
        if profile is not None:
            profile.attach(plan)
            stmt_start = time.perf_counter()
            stmt_pages = _lfm_pages(ctx)
        raw_rows = list(self._nested_loops(plan, params, ctx, outer_env, profile))
        if profile is not None:
            out_start = time.perf_counter()
            out_pages = _lfm_pages(ctx)
        if select.group_by or self._has_aggregate_items(select):
            columns, rows, groups = self._grouped(select, raw_rows, params, ctx)
            sort_units: list = groups
            sort_eval = lambda expr, unit: self._eval_grouped(  # noqa: E731
                expr, select, unit, params, ctx
            )
        else:
            # HAVING without grouping was rejected by the analyzer (QB111)
            columns = self._output_columns(select, plan)
            rows = [
                tuple(self._project(select, plan, env, params, ctx))
                for env in raw_rows
            ]
            sort_units = raw_rows
            sort_eval = lambda expr, env: self._eval(expr, env, params, ctx)  # noqa: E731
        if select.order_by and len(rows) == len(sort_units):
            # ORDER BY may reference a select-list alias (standard SQL); such
            # items sort on the already projected value.
            alias_index = {}
            for i, name in enumerate(columns):
                alias_index[name.lower()] = None if name.lower() in alias_index else i

            def sort_key(item, pair):
                row, unit = pair
                expr = item.expr
                if isinstance(expr, ColumnRef) and expr.qualifier is None:
                    idx = alias_index.get(expr.name.lower())
                    if idx is not None:
                        return row[idx]
                return sort_eval(expr, unit)

            order_pairs = list(zip(rows, sort_units))
            # Python's sort is stable; apply keys right-to-left for mixed asc/desc.
            for item in reversed(select.order_by):
                order_pairs.sort(
                    key=lambda pair, it=item: sort_key(it, pair),
                    reverse=not item.ascending,
                )
            rows = [row for row, _ in order_pairs]
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
        metrics.counter("executor.rows_emitted").inc(len(rows))
        if profile is not None:
            now = time.perf_counter()
            pages = _lfm_pages(ctx)
            profile.output.rows_in = len(raw_rows)
            profile.output.rows_out = len(rows)
            profile.output.wall_seconds = now - out_start
            profile.output.page_ios = pages - out_pages
            profile.rowcount = len(rows)
            profile.wall_seconds = now - stmt_start
            profile.page_ios = pages - stmt_pages
        return ResultSet(columns, rows)

    def _nested_loops(self, plan: Plan, params: list, ctx: ExecutionContext,
                      outer_env: _Env | None = None, profile=None):
        """Yield fully bound environments passing all predicates.

        Levels with an index probe read only the matching hash bucket;
        probing with NULL matches nothing (SQL equality semantics).

        With a ``profile`` (EXPLAIN ANALYZE), each level's
        :class:`~repro.obs.explain.OperatorStats` accumulates the rows it
        examined and matched plus the time and page I/Os of its own
        scan-bind-filter work (child levels account for themselves).
        """
        tables = [self.catalog.table(ref.name) for ref in plan.table_order]

        def rows_for(level: int, env: _Env):
            probe = plan.index_probes[level] if level < len(plan.index_probes) else None
            if probe is not None:
                column, value_expr = probe
                value = self._eval(value_expr, env, params, ctx)
                if value is None:
                    return ()
                return tables[level].probe(column, value)
            spatial = (
                plan.spatial_probes[level]
                if level < len(plan.spatial_probes) else None
            )
            if spatial is not None:
                candidates = self._spatial_candidates(
                    tables[level], spatial, env, params, ctx
                )
                if candidates is not None:
                    return candidates
            return tables[level].scan()

        def recurse(level: int, env: _Env):
            if level == len(tables):
                yield _snapshot(env)
                return
            ref = plan.table_order[level]
            table = tables[level]
            predicates = plan.level_predicates[level]
            stats = profile.levels[level] if profile is not None else None
            for row in rows_for(level, env):
                ctx.work.rows_scanned += 1
                if stats is None:
                    env.bind(ref.binding, table.schema, row)
                    if all(bool(self._eval(p, env, params, ctx)) for p in predicates):
                        yield from recurse(level + 1, env)
                    continue
                start = time.perf_counter()
                pages = _lfm_pages(ctx)
                env.bind(ref.binding, table.schema, row)
                matched = all(
                    bool(self._eval(p, env, params, ctx)) for p in predicates
                )
                stats.rows_in += 1
                stats.wall_seconds += time.perf_counter() - start
                stats.page_ios += _lfm_pages(ctx) - pages
                if matched:
                    stats.rows_out += 1
                    yield from recurse(level + 1, env)
            env.frames.pop(ref.binding, None)

        try:
            yield from recurse(0, _Env(outer=outer_env))
        finally:
            # ``recurse`` names itself, a cycle through its own closure
            # cell: emptied here, ctx (LFM view, params, plan table) dies
            # with the statement instead of waiting for the collector
            recurse = None

    def _spatial_candidates(self, table, spatial, env, params, ctx):
        """Rows an R-tree probe narrows a level to, or None for a scan.

        Returns None whenever the probe value is irregular (NULL handle,
        unparseable payload) so the plain scan evaluates the exact
        predicate against every row and the statement filters — or
        raises — exactly as the unoptimized plan would.
        """
        column, probe_expr = spatial
        index = table.spatial_index_on(column)
        if index is None:
            return None
        value = self._eval(probe_expr, env, params, ctx)
        if value is None:
            return None
        try:
            region = Region.from_bytes(ctx.read_longfield(value))
        except Exception:  # qblint: disable=no-broad-except
            return None  # any read/decode failure: defer to the plain scan
        if not region.voxel_count:
            # empty probe region: intersection() is empty for every row,
            # so the exact predicate rejects everything — skip the level
            return ()
        lower, upper = region.bounding_box()
        return index.probe(lower, upper)

    def _output_columns(self, select: Select, plan: Plan) -> list[str]:
        columns: list[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                for ref in plan.table_order:
                    schema = self.catalog.table(ref.name).schema
                    columns.extend(schema.column_names())
            else:
                columns.append(item.alias or _derive_name(item))
        return columns

    def _project(self, select: Select, plan: Plan, env: _Env, params: list, ctx: ExecutionContext):
        for item in select.items:
            if isinstance(item.expr, Star):
                for ref in plan.table_order:
                    _, row = env.frames[ref.binding]
                    yield from row
            else:
                yield self._eval(item.expr, env, params, ctx)

    # -------------------------------------------------------------- #
    # aggregates
    # -------------------------------------------------------------- #

    def _has_aggregate_items(self, select: Select) -> bool:
        return any(_contains_aggregate(item.expr) for item in select.items)

    def _grouped(self, select: Select, envs: list[_Env], params: list,
                 ctx: ExecutionContext) -> tuple[list[str], list[tuple], list[list[_Env]]]:
        """GROUP BY execution (an empty GROUP BY forms one global group)."""
        columns = [item.alias or _derive_name(item) for item in select.items]
        if select.group_by:
            grouped: dict[tuple, list[_Env]] = {}
            for env in envs:
                key = tuple(
                    _hashable(self._eval(g, env, params, ctx)) for g in select.group_by
                )
                grouped.setdefault(key, []).append(env)
            groups = list(grouped.values())
        else:
            groups = [envs]  # a single (possibly empty) global group
        if select.having is not None:
            groups = [
                g for g in groups
                if bool(self._eval_grouped(select.having, select, g, params, ctx))
            ]
        rows = [
            tuple(
                self._eval_grouped(item.expr, select, group, params, ctx)
                for item in select.items
            )
            for group in groups
        ]
        return columns, rows, groups

    def _eval_grouped(self, expr: Expr, select: Select, group: list[_Env],
                      params: list, ctx: ExecutionContext):
        """Evaluate an expression in a per-group context.

        Aggregate calls fold over the group's rows; grouping expressions
        evaluate on any row of the group (they are constant within it);
        other column references are rejected, as SQL requires.
        """
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            return self._eval(expr, _Env(), params, ctx)
        if isinstance(expr, FuncCall) and expr.name.lower() in _AGGREGATES:
            return self._fold_aggregate(expr, group, params, ctx)
        for group_expr in select.group_by:
            if expr == group_expr:
                if not group:
                    return None
                return self._eval(expr, group[0], params, ctx)
        if isinstance(expr, ColumnRef):
            raise ExecutionError(
                f"column {expr} must appear in GROUP BY or inside an aggregate"
            )
        if isinstance(expr, UnaryOp):
            value = self._eval_grouped(expr.operand, select, group, params, ctx)
            if expr.op == "-":
                return None if value is None else -value
            return None if value is None else not bool(value)
        if isinstance(expr, BinOp):
            # Rebuild the operator over grouped operand values via literals.
            left = self._eval_grouped(expr.left, select, group, params, ctx)
            right = self._eval_grouped(expr.right, select, group, params, ctx)
            return self._eval_binop(
                BinOp(expr.op, Literal(left), Literal(right)), _Env(), params, ctx
            )
        if isinstance(expr, FuncCall):
            args = [
                self._eval_grouped(arg, select, group, params, ctx)
                for arg in expr.args
            ]
            if expr.name == "__is_null":
                return args[0] is None
            return self.functions.call(expr.name, args, ctx)
        if isinstance(expr, (Subquery, InSubquery, Exists)):
            # Nested blocks in HAVING / grouped select lists: evaluate with a
            # representative row of the group in scope (grouping columns are
            # constant within the group, so any row works for correlation).
            env = group[0] if group else _Env()
            return self._eval(expr, env, params, ctx)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__} in GROUP BY context")

    def _fold_aggregate(self, call: FuncCall, group: list[_Env], params: list,
                        ctx: ExecutionContext):
        name = call.name.lower()
        if name == "count" and len(call.args) == 1 and isinstance(call.args[0], Star):
            return len(group)
        if len(call.args) != 1:
            raise ExecutionError(f"aggregate {name}() takes exactly one argument")
        if _contains_aggregate(call.args[0]):
            raise ExecutionError("aggregates cannot be nested")
        samples = [
            v
            for env in group
            if (v := self._eval(call.args[0], env, params, ctx)) is not None
        ]
        if name == "count":
            return len(samples)
        if not samples:
            return None
        if name == "sum":
            return sum(samples)
        if name == "avg":
            return sum(samples) / len(samples)
        if name == "min":
            return min(samples)
        return max(samples)

    # -------------------------------------------------------------- #
    # expression evaluation
    # -------------------------------------------------------------- #

    def _eval(self, expr: Expr, env: _Env, params: list, ctx: ExecutionContext):
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            try:
                return params[expr.index]
            except IndexError:
                raise ExecutionError(
                    f"statement references parameter {expr.index + 1} but only "
                    f"{len(params)} were supplied"
                ) from None
        if isinstance(expr, ColumnRef):
            return env.lookup(expr)
        if isinstance(expr, UnaryOp):
            value = self._eval(expr.operand, env, params, ctx)
            if expr.op == "-":
                return None if value is None else -value
            if expr.op == "not":
                return None if value is None else not bool(value)
            raise ExecutionError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, env, params, ctx)
        if isinstance(expr, FuncCall):
            if expr.name == "__is_null":
                return self._eval(expr.args[0], env, params, ctx) is None
            # aggregates outside grouped queries were rejected by the
            # analyzer (QB110); any FuncCall reaching here is a scalar call
            if expr in env.call_cache:
                return env.call_cache[expr]
            args = [self._eval(arg, env, params, ctx) for arg in expr.args]
            result = self.functions.call(expr.name, args, ctx)
            env.call_cache[expr] = result
            return result
        if isinstance(expr, Subquery):
            rows = self._subquery_rows(
                expr.select, env, params, ctx, what="scalar subquery"
            )
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return rows[0][0]
        if isinstance(expr, InSubquery):
            value = self._eval(expr.value, env, params, ctx)
            if value is None:
                return False  # simplified two-valued logic
            rows = self._subquery_rows(expr.subquery, env, params, ctx, what="IN subquery")
            found = any(row[0] == value for row in rows)
            return (not found) if expr.negated else found
        if isinstance(expr, Exists):
            result = self._run_subquery(expr.subquery, env, params, ctx)
            return bool(result.rows) != expr.negated
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only allowed in a select list or count(*)")
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    def _subquery_rows(self, select: Select, env: _Env, params: list,
                       ctx: ExecutionContext, what: str) -> list[tuple]:
        result = self._run_subquery(select, env, params, ctx)
        if len(result.columns) != 1:
            raise ExecutionError(f"{what} must produce exactly one column")
        return result.rows

    def _run_subquery(self, select: Select, env: _Env, params: list,
                      ctx: ExecutionContext) -> ResultSet:
        """Run a nested query block, caching per statement when uncorrelated.

        A block that plans cleanly against its own FROM tables alone is
        uncorrelated: its result cannot depend on the outer row, so one
        execution serves every outer row.  Otherwise it re-runs per row
        with the outer environment in scope.  Either verdict is recorded
        in the statement's plan table — the standalone plan itself, or
        :data:`_CORRELATED` in its place — so it is reached once, not
        once per outer row.
        """
        cached = ctx.subquery_cache.get(select)
        if cached is not None:
            return cached
        try:
            correlated = self.plan(select, ctx) is _CORRELATED
        except CatalogError:
            correlated = True
            ctx.plans[id(select), None, ctx.planner_mode] = _CORRELATED
        if correlated:
            return self.execute_select(select, params, ctx, outer_env=env)
        result = self.execute_select(select, params, ctx)
        ctx.subquery_cache[select] = result
        return result

    def plan(self, select: Select, ctx: ExecutionContext,
             outer_bindings: dict[str, TableSchema] | None = None):
        """The block's plan from the statement's plan table
        (``ctx.plans``), planned and kept there on first use."""
        key = (id(select),
               None if outer_bindings is None else tuple(outer_bindings),
               ctx.planner_mode)
        plan = ctx.plans.get(key)
        if plan is None:
            plan = ctx.plans[key] = plan_select(
                select, self.catalog, outer_bindings, mode=ctx.planner_mode)
        return plan

    def _eval_binop(self, expr: BinOp, env: _Env, params: list, ctx: ExecutionContext):
        op = expr.op
        if op == "and":
            left = self._eval(expr.left, env, params, ctx)
            if not left:
                return False
            return bool(self._eval(expr.right, env, params, ctx))
        if op == "or":
            left = self._eval(expr.left, env, params, ctx)
            if left:
                return True
            return bool(self._eval(expr.right, env, params, ctx))
        left = self._eval(expr.left, env, params, ctx)
        right = self._eval(expr.right, env, params, ctx)
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if left is None or right is None:
                return False  # simplified two-valued logic
            try:
                if op == "=":
                    return left == right
                if op == "<>":
                    return left != right
                if op == "<":
                    return left < right
                if op == "<=":
                    return left <= right
                if op == ">":
                    return left > right
                return left >= right
            except TypeError:
                raise SqlTypeError(
                    f"cannot compare {type(left).__name__} with {type(right).__name__}"
                ) from None
        if left is None or right is None:
            return None
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise ExecutionError("division by zero")
                result = left / right
                if isinstance(left, int) and isinstance(right, int) and result == int(result):
                    return int(result)
                return result
        except TypeError:
            raise SqlTypeError(
                f"operator {op!r} not defined for "
                f"{type(left).__name__} and {type(right).__name__}"
            ) from None
        raise ExecutionError(f"unknown operator {op!r}")


def _lfm_pages(ctx: ExecutionContext) -> int:
    """LFM pages this *statement* touched so far (0 when no LFM attached).

    Prefers the statement's thread-local I/O collector: under concurrent
    sessions the global counters move for everyone, and reading them here
    would attribute other statements' pages to this plan's operators.
    """
    if ctx.io_sink is not None:
        return ctx.io_sink.total_pages
    return ctx.lfm.stats.total_pages if ctx.lfm is not None else 0


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall):
        if expr.name.lower() in _AGGREGATES:
            return True
        return any(_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return _contains_aggregate(expr.operand)
    return False


def _derive_name(item: SelectItem) -> str:
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FuncCall):
        return expr.name
    return "expr"


def _snapshot(env: _Env) -> _Env:
    clone = _Env(outer=env.outer)
    clone.frames = dict(env.frames)
    clone.call_cache = dict(env.call_cache)
    return clone


def _visible_bindings(env: _Env | None) -> dict[str, TableSchema] | None:
    """Every binding visible through an environment chain, innermost first."""
    if env is None:
        return None
    visible: dict[str, TableSchema] = {}
    current: _Env | None = env
    while current is not None:
        for binding, (schema, _) in current.frames.items():
            visible.setdefault(binding, schema)
        current = current.outer
    return visible


def _hashable(value):
    try:
        hash(value)
        return value
    except TypeError:
        return id(value)
