"""Query planning: cost-based join ordering and predicate pushdown.

The engine's plans are nested-loop joins over a handful of small metadata
tables, with the real money spent inside spatial functions reading LFM
pages.  The planner therefore optimizes three things, in the spirit of the
paper's hand-ordered queries (early spatial filtering is what makes 3D
medical queries cheap):

* **join order** — a Selinger-style dynamic program over table subsets,
  costed with per-column statistics (:mod:`repro.db.stats`) and the
  calibrated 1994 unit costs (:class:`~repro.net.costmodel.CostModel1994`).
  Page I/O dominates CPU by ~500:1, so the DP effectively minimizes the
  number of region payloads the expensive predicates touch;
* **predicate placement** — each WHERE conjunct runs at the earliest join
  level where all of its columns are bound, and within a level cheap
  scalar comparisons run before LFM-touching spatial predicates before
  subqueries, so short-circuiting gates the expensive work;
* **access paths** — index probes for equality predicates, and
  spatial-index probes (:class:`~repro.db.stats.SpatialIndex`) for
  ``voxelCount(intersection(col, probe)) > 0`` predicates, which replace a
  full scan with the index's bounding-box candidates; the exact predicate
  still runs on every candidate, so probes change I/O, never results;
* **equality closure** — ``col = col`` conjuncts are joined into classes,
  and every member of a class one of whose columns is compared to a
  constant (literal, ``?``, outer column) gains that comparison too:
  ``b.id = w.id and w.id = ?`` also filters — and can probe — ``b`` by
  ``b.id = ?`` instead of rescanning it per ``w`` row.

Two planner modes exist so plans can be compared differentially:
``"cost"`` (the default, everything above; joins too wide for the DP
take a heuristic order instead) and ``"naive"`` (FROM-order join,
original conjunct order, no spatial probes, no derived conjunct — the
baseline the plan-equivalence suite holds the optimizer against).  Both
carry row estimates, so EXPLAIN always shows estimated rows per operator.

A planning call computes what its block's choices read, in one code path
for both modes.  Each conjunct's facts come from one walk of it.  A join
level — a table joined after a set of placed ones — is priced once
(:meth:`_PlannerState.level_model`): its run-ordered conjuncts, index
probe, spatial probe, bucket key and row estimate go into the call's
level table, where the DP finds them and the plan reads the levels of the
order it chose.  Only a DP reads costs, so only then are the conjuncts'
evaluation costs (and the LONGFIELD page averages behind them) computed.
A one-table block, like any block without a DP, prices each level of its
FROM order once, at the plan: conjunct facts, one level, no costs, and —
without a ``col = col`` conjunct — no equality closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.db.catalog import Catalog
from repro.db.sql.ast import (
    BinOp,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InSubquery,
    Literal,
    Param,
    Select,
    Subquery,
    TableRef,
    UnaryOp,
)
from repro.db.semantic import AGGREGATES, Block
from repro.db.types import SqlType
from repro.errors import CatalogError
from repro.net.costmodel import CostModel1994

__all__ = [
    "Plan",
    "plan_select",
    "conjuncts_of",
    "columns_in",
    "level_label",
    "PLANNER_MODES",
]

#: recognized planner modes (see the module docstring)
PLANNER_MODES = ("cost", "naive")

#: join widths above this fall back from the subset DP to the greedy order
_DP_LIMIT = 10

#: unit costs shared by every planning call (the model is frozen/stateless)
_COST = CostModel1994()
#: CPU charge per predicate evaluation / row binding
_CPU_TUPLE = _COST.cpu_per_run
#: elapsed + CPU charge per LFM page a spatial predicate reads
_PAGE_COST = _COST.seconds_per_page_io + _COST.cpu_per_page_io
#: flat charge per subquery-bearing predicate evaluation
_SUBQUERY_COST = 10_000 * _CPU_TUPLE

#: estimator fallbacks when statistics are stale or missing
_DEFAULT_EQ_SEL = 0.1
_DEFAULT_RANGE_SEL = 1.0 / 3.0
_DEFAULT_OTHER_SEL = 1.0 / 3.0
_DEFAULT_ND = 10
_DEFAULT_REGION_PAGES = 8.0
#: assumed fraction of a table a spatial probe leaves as candidates
_SPATIAL_CANDIDATE_FRACTION = 0.25


def conjuncts_of(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "and":
        return conjuncts_of(expr.left) + conjuncts_of(expr.right)
    return [expr]


def columns_in(expr: Expr) -> list[ColumnRef]:
    """Column references in an expression (subquery internals excluded)."""
    found: list[ColumnRef] = []
    _walk(expr, found)
    return found


def _walk(node: Expr, found: list[ColumnRef]) -> bool:
    """Append the expression's column references, left to right and
    subquery internals excluded, to ``found``; True when it embeds a
    nested query block."""
    if isinstance(node, ColumnRef):
        found.append(node)
        return False
    if isinstance(node, BinOp):
        return _walk(node.left, found) | _walk(node.right, found)
    if isinstance(node, UnaryOp):
        return _walk(node.operand, found)
    if isinstance(node, FuncCall):
        nested = False
        for arg in node.args:
            nested |= _walk(arg, found)
        return nested
    if isinstance(node, InSubquery):
        _walk(node.value, found)
        return True
    return isinstance(node, (Subquery, Exists))


@dataclass
class Plan:
    """An executable nested-loop plan for one SELECT."""

    select: Select
    table_order: list[TableRef]
    #: conjuncts to evaluate after the i-th table is bound (by order
    #: index), in evaluation order; cost plans include the derived ones
    level_predicates: list[list[Expr]] = field(default_factory=list)
    #: per level: (indexed column, probe-value expression) or None for a scan
    index_probes: list[tuple[str, Expr] | None] = field(default_factory=list)
    #: per level: (region column, probe-region expression) or None; used
    #: only when the level has no index probe
    spatial_probes: list[tuple[str, Expr] | None] = field(default_factory=list)
    #: per level without a spatial probe: the key of a published table's
    #: bucket, (column, value) of its index probe and (cost plans) of each
    #: ``column = constant``
    equal_keys: list[tuple[tuple[str, Expr], ...]] = field(default_factory=list)
    #: estimated rows surviving each level (cumulative, clamped to >= 1
    #: unless provably empty)
    est_rows: list[float] = field(default_factory=list)
    #: estimated output rows of the whole statement
    est_out: float = 0.0
    #: the planner mode that produced this plan
    mode: str = "cost"
    #: what the executor compiled the plan to, kept wherever the plan is
    program: object | None = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        """Human-readable plan, the engine's EXPLAIN output."""
        return "\n".join(
            f"{'  ' * i}{level_label(self, i)} (est rows={_fmt_est(est)})"
            for i, est in enumerate(self.est_rows)
        )


def level_label(plan, level: int) -> str:
    """One level's access path and predicate count (``Plan.describe``
    prints the same label)."""
    ref = plan.table_order[level]
    preds = plan.level_predicates[level]
    label = f"{ref.name}" + (f" {ref.alias}" if ref.alias else "")
    if plan.index_probes[level]:
        access = f"probe {label} via index({plan.index_probes[level][0]})"
    elif plan.spatial_probes[level]:
        access = f"probe {label} via spatial({plan.spatial_probes[level][0]})"
    else:
        access = f"scan {label}"
    return access + (f" [{len(preds)} predicate(s)]" if preds else "")


def _fmt_est(value: float) -> str:
    """Render an estimate compactly: integers without a decimal point."""
    rounded = round(value)
    return str(int(rounded)) if abs(value - rounded) < 1e-9 else f"{value:.1f}"


#: sentinel binding for columns resolved in an enclosing query block:
#: from this block's perspective they are constants, bound before level 0.
OUTER = "<outer>"
#: what a constant reads: an outer column at most
_CONSTANT = frozenset({OUTER})


def plan_select(
    select: Select,
    catalog: Catalog,
    blocks: dict[int, Block],
    mode: str = "cost",
) -> Plan:
    """Build the nested-loop plan for a SELECT statement.

    ``blocks`` is the binder's record of the statement
    (:func:`repro.db.semantic.check`); a column it resolved in an
    enclosing block behaves as a constant.  ``mode`` selects the
    join-ordering strategy (:data:`PLANNER_MODES`).
    """
    if mode not in PLANNER_MODES:
        raise CatalogError(f"unknown planner mode {mode!r}")
    state = _PlannerState(select, catalog, blocks[id(select)], mode)
    if state.priced:
        order = _cost_order(select, state)
    elif mode == "cost" and len(select.tables) > _DP_LIMIT:
        order = _greedy_order(select, state.needs)
    else:
        order = list(select.tables)

    # The DP priced every level of the order it chose at the estimate
    # flowing into it; any other plan prices its levels here.
    levels: list[_Level] = []
    placed: frozenset[str] = frozenset()
    est = 1.0
    for ref in order:
        level = (state.levels.get((placed, ref.binding))
                 or state.level_model(placed, ref.binding, est))
        levels.append(level)
        est = level.est
        placed = placed | {ref.binding}

    return Plan(
        select, order, [level.preds for level in levels],
        [level.index_probe for level in levels],
        [level.spatial_probe for level in levels],
        [level.equal_keys for level in levels],
        [level.est for level in levels], _output_estimate(select, est), mode,
    )


class _Facts(NamedTuple):
    """What planning needs of one conjunct, derived once per planning call
    from one walk of it: its cost bucket (0 = scalar, 1 = LFM-touching,
    2 = subquery-bearing), the cost of one evaluation (0 unless a DP will
    read it), its selectivity, whether it reads more than one table of the
    block, and the keys (:meth:`_PlannerState._probe_keys`) a
    ``col = value`` conjunct offers an index probe or a bucket and an
    ``intersection`` filter a spatial probe."""

    bucket: int
    cost: float
    selectivity: float
    spans: bool
    equality_keys: tuple
    spatial_keys: tuple


class _Level(NamedTuple):
    """One join level, ``binding`` joined after a placed set: its
    conjuncts in the order the plan runs them, its index probe, its
    spatial probe (cost mode, no index probe), its bucket key (the index
    probe and, cost mode without a spatial probe, every
    ``col = constant``), its cost (a DP's only) and its row estimate."""

    preds: list[Expr]
    index_probe: tuple[str, Expr] | None
    spatial_probe: tuple[str, Expr] | None
    equal_keys: tuple[tuple[str, Expr], ...]
    cost: float
    est: float


class _PlannerState:
    """Shared estimation state for one planning call."""

    def __init__(self, select: Select, catalog: Catalog, block: Block, mode: str):
        #: ``(qualifier, name)`` -> ``(depth, binding, position)``
        self.columns = block.columns
        #: binding (alias) -> its table
        self.tables = {ref.binding: catalog.table(ref.name) for ref in select.tables}
        #: binding -> fresh TableStats or None
        self.stats = {binding: table.fresh_stats() for binding, table in self.tables.items()}
        self.mode = mode
        #: a DP chooses the join order, so level costs are wanted
        self.priced = mode == "cost" and 1 < len(self.tables) <= _DP_LIMIT
        #: ``(placed, binding)`` -> its :class:`_Level`, priced once
        self.levels: dict[tuple[frozenset[str], str], _Level] = {}
        #: some conjunct equates two of the block's own columns
        self.ties = False
        # For each conjunct, the set of bindings it needs.  Conjuncts
        # embedding a nested query block are held until everything is
        # bound (the block may sit under outer-column comparisons).
        self.needs: list[tuple[Expr, frozenset[str]]] = []
        # Per conjunct (by identity; ``needs`` keeps them alive).  Pure in
        # the conjunct, so computed here once, not per DP subset.
        self._facts: dict[int, _Facts] = {}
        for conjunct in conjuncts_of(select.where):
            self._add(conjunct)
        if mode == "cost":
            self.close_equalities()

    def _add(self, conjunct: Expr) -> None:
        """Record a conjunct: the bindings it needs and its facts."""
        columns: list[ColumnRef] = []
        if _walk(conjunct, columns):
            used = frozenset(self.tables)
            facts = _Facts(2, _SUBQUERY_COST, _DEFAULT_OTHER_SEL, len(used) > 1, (), ())
        else:
            sides = [self.columns[col.qualifier, col.name] for col in columns]
            owners = [OUTER if depth else binding for depth, binding, _ in sides]
            used = frozenset(owners) - {OUTER}
            # (binding, position) of each LONGFIELD column, in first-use order
            fields = dict.fromkeys(
                (binding, position) for depth, binding, position in sides
                if not depth and self.tables[binding].schema.columns[position]
                .sql_type is SqlType.LONGFIELD)
            equality_keys = spatial_keys = ()
            if isinstance(conjunct, BinOp) and conjunct.op == "=":
                equality_keys = self._probe_keys(conjunct.left, conjunct.right, owners)
                self.ties |= len(equality_keys) == 2 and OUTER not in owners
            elif (inner := _intersection_filter(conjunct)) is not None:
                spatial_keys = self._probe_keys(*inner.args, owners)
            cost = 0.0
            if self.priced:
                pages = [self._region_pages(*field) for field in fields]
                cost = _CPU_TUPLE + sum(pages) * _PAGE_COST
            facts = _Facts(int(bool(fields)), cost, self._selectivity(conjunct),
                           len(used) > 1, equality_keys, spatial_keys)
        self.needs.append((conjunct, used))
        self._facts[id(conjunct)] = facts

    @staticmethod
    def _probe_keys(a: Expr, b: Expr, owners: list[str]) -> tuple:
        """``(binding, column, other side, bindings the other side reads)``
        for each way round (``a`` first) that one of the two expressions is
        a column reference; ``owners`` are the bindings of the column
        references of ``a`` and then ``b``."""
        keys = []
        if isinstance(a, ColumnRef):
            keys.append((owners[0], a.name, b, frozenset(owners[1:])))
        if isinstance(b, ColumnRef):
            keys.append((owners[-1], b.name, a, frozenset(owners[:-1])))
        return tuple(keys)

    def close_equalities(self) -> None:
        """Derive ``col = const`` for every column a chain of ``col = col``
        conjuncts ties to one that is compared with a constant.

        Sound under SQL NULLs: the chain already rejects a row whose
        member is NULL or differs, so the derived conjunct removes no
        row — it lets the member's own level filter (and probe) by the
        constant.  A join conjunct inside such a class then filters
        nothing its two sides' constant filters have not: its
        selectivity becomes 1, or the estimate would count it twice.
        Without a ``col = col`` conjunct every class is one column, so
        there is nothing to derive and nothing to reprice.
        """
        if not self.ties:
            return
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(key):
            while parent.setdefault(key, key) != key:
                key = parent[key]
            return key

        refs: dict[tuple[str, int], ColumnRef] = {}
        pinned: list[tuple[tuple[str, int], Expr]] = []
        joins: list[tuple[tuple[str, int], Expr]] = []
        for conjunct, _ in self.needs:
            if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
                continue
            sides = []
            for side in (conjunct.left, conjunct.right):
                local = self._column_side(side)
                if local is not None:
                    refs.setdefault(local, side)
                sides.append(local)
            left, right = sides
            if left and right:
                parent[find(left)] = find(right)
                joins.append((left, conjunct))
            elif left or right:
                const = conjunct.right if left else conjunct.left
                if isinstance(const, (Literal, Param, ColumnRef)):
                    pinned.append((left or right, const))
        have = set(pinned)
        for pinned_key, const in pinned:
            for key, ref in refs.items():
                if find(key) == find(pinned_key) and (key, const) not in have:
                    have.add((key, const))
                    self._add(BinOp("=", ref, const))
        pinned_classes = {find(key) for key, _ in pinned}
        for key, conjunct in joins:
            if find(key) in pinned_classes:
                facts = self._facts[id(conjunct)]
                self._facts[id(conjunct)] = facts._replace(selectivity=1.0)

    def _region_pages(self, owner: str, position: int) -> float:
        """Pages one read of that LONGFIELD column is expected to cost."""
        stats = self.stats[owner]
        avg = stats.avg_region_pages(position) if stats else None
        return avg if avg is not None else _DEFAULT_REGION_PAGES

    # ---------------------------------------------------------------- #
    # selectivity estimation
    # ---------------------------------------------------------------- #

    def _n_distinct(self, binding: str, position: int) -> float:
        table = self.tables[binding]
        stats = self.stats[binding]
        if stats is not None:
            nd = stats.n_distinct(position)
            if nd is not None:
                return max(1, nd)
        return max(1, min(_DEFAULT_ND, table.row_count))

    def _selectivity(self, conjunct: Expr) -> float:
        """Estimated fraction of candidate rows the conjunct keeps (one
        with no nested query block)."""
        if isinstance(conjunct, FuncCall) and conjunct.name == "__is_null":
            arg = conjunct.args[0]
            side = self._column_side(arg)
            if side is not None:
                binding, position = side
                stats, table = self.stats[binding], self.tables[binding]
                if stats is not None and table.row_count:
                    return stats.null_count(position) / table.row_count
            return _DEFAULT_EQ_SEL
        if not isinstance(conjunct, BinOp):
            return _DEFAULT_OTHER_SEL
        op = conjunct.op
        if op == "=":
            return self._eq_selectivity(conjunct)
        if op in ("<", "<=", ">", ">="):
            return self._range_selectivity(conjunct)
        if op == "<>":
            return 1.0 - self._eq_selectivity(conjunct)
        return _DEFAULT_OTHER_SEL

    def _column_side(self, side: Expr) -> tuple[str, int] | None:
        """``(binding, position)`` when the side is a column of this block."""
        if isinstance(side, ColumnRef):
            depth, binding, position = self.columns[side.qualifier, side.name]
            if not depth:
                return binding, position
        return None

    def _eq_selectivity(self, conjunct: BinOp) -> float:
        left = self._column_side(conjunct.left)
        right = self._column_side(conjunct.right)
        if left and right:
            # join predicate: 1 / max of the distinct counts
            return 1.0 / max(
                self._n_distinct(*left), self._n_distinct(*right)
            )
        side = left or right
        if side is None:
            return _DEFAULT_OTHER_SEL
        other = conjunct.right if side is left else conjunct.left
        binding, position = side
        table = self.tables[binding]
        stats = self.stats[binding]
        if isinstance(other, Literal) and stats is not None and table.row_count:
            fraction = stats.eq_fraction(position, other.value)
            if fraction is not None:
                return fraction
        if stats is not None:
            return 1.0 / self._n_distinct(binding, position)
        return _DEFAULT_EQ_SEL

    def _range_selectivity(self, conjunct: BinOp) -> float:
        for col_side, value_side, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _flip(conjunct.op)),
        ):
            side = self._column_side(col_side)
            if side is None or not isinstance(value_side, Literal):
                continue
            binding, position = side
            stats = self.stats[binding]
            if stats is None or not self.tables[binding].row_count:
                break
            fraction = stats.range_fraction(position, op, value_side.value)
            if fraction is not None:
                return fraction
        return _DEFAULT_RANGE_SEL

    # ---------------------------------------------------------------- #
    # per-level access path, cost and estimate
    # ---------------------------------------------------------------- #

    def level_model(self, placed: frozenset[str], binding: str,
                    est_in: float) -> _Level:
        """Price joining ``binding`` after ``placed``, once: the level goes
        into :attr:`levels`, where the plan reads it.

        The level's conjuncts are those first fully bound there.  A cost
        plan runs them scalar before LFM-touching before subquery-bearing,
        and within each, single-table filters before join filters — so
        every cheap test gates the dearer ones behind it; a naive plan
        keeps WHERE order.  In that order, the index probe is the first
        ``col = value`` over an indexed column of ``binding`` whose value
        reads only earlier bindings; a cost plan without one takes the
        first such region-intersection filter over a probe-safe spatial
        index; and a cost plan without a spatial probe keys its bucket on
        each ``col = constant`` (a literal, a parameter or an outer
        column: evaluated once per entry to the level).

        ``est_in`` is the (clamped) estimate of rows flowing in; the
        estimate applies the selectivities in cost-plan order in both
        modes.  The cost, read only by the DP, is iterations x (binding
        CPU + short-circuit-weighted predicate cost), each predicate
        discounted by the selectivity of those before it.
        """
        facts = self._facts
        table = self.tables[binding]
        bound = placed | {binding}
        exprs = [conjunct for conjunct, used in self.needs
                 if used <= bound and (not placed or not used <= placed)]
        ordered = sorted(
            exprs, key=lambda c: (facts[id(c)].bucket, facts[id(c)].spans))
        cost_mode = self.mode == "cost"
        preds = ordered if cost_mode else exprs
        earlier = placed | {OUTER}
        probe = spatial = None
        keys: list[tuple[str, Expr]] = []
        for conjunct in preds:
            found = facts[id(conjunct)]
            side = _probe_side(found.equality_keys, binding, earlier)
            if probe is None and side and table.has_index(side[0]):
                probe = side
            if not cost_mode:
                continue
            side = _probe_side(found.equality_keys, binding, _CONSTANT)
            if side and isinstance(side[1], (Literal, Param, ColumnRef)):
                keys.append(side)
            side = _probe_side(found.spatial_keys, binding, earlier)
            if spatial is None and side:
                index = table.spatial_index_on(side[0])
                if index is not None and index.probe_safe(table):
                    spatial = side
        if probe is not None:
            spatial = None
        keys = () if spatial else tuple(keys)
        if probe is not None and probe not in keys:
            keys = (probe,) + keys
        raw = est_in * table.row_count
        for conjunct in ordered:
            raw *= facts[id(conjunct)].selectivity
        cost = 0.0
        if self.priced:
            examined = float(table.row_count)
            if probe is not None:
                nd = self._n_distinct(binding, table.schema.position(probe[0]))
                examined = min(examined, max(1.0, table.row_count / nd))
            elif spatial is not None:
                examined = min(
                    examined,
                    max(1.0, table.row_count * _SPATIAL_CANDIDATE_FRACTION),
                )
            cost = est_in * examined * _CPU_TUPLE
            running = 1.0
            for conjunct in ordered:
                cost += est_in * examined * running * facts[id(conjunct)].cost
                running *= facts[id(conjunct)].selectivity
        level = _Level(preds, probe, spatial, keys, cost,
                       0.0 if raw == 0 else max(1.0, raw))
        self.levels[placed, binding] = level
        return level


def _probe_side(keys: tuple, binding: str,
                earlier: frozenset[str]) -> tuple[str, Expr] | None:
    """``(column, other side)`` of the first of a conjunct's probe keys
    whose column is of ``binding`` and whose other side reads only
    ``earlier`` ones."""
    for owner, column, value, reads in keys:
        if owner == binding and reads <= earlier:
            return column, value
    return None


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)


def _output_estimate(select: Select, est_join: float) -> float:
    """Statement-level output estimate from the join estimate."""
    if not select.tables:
        return 1.0
    has_aggregate = any(
        isinstance(item.expr, FuncCall)
        and item.expr.name.lower() in AGGREGATES
        for item in select.items
    )
    if has_aggregate and not select.group_by:
        est = 1.0
    else:
        est = est_join
    if select.limit is not None:
        est = min(est, float(select.limit))
    return est


def _greedy_order(select: Select,
                  needs: list[tuple[Expr, frozenset[str]]]) -> list[TableRef]:
    """The heuristic order for joins wider than ``_DP_LIMIT``: start with
    the table carrying the most single-table predicates (ties: FROM
    order), then repeatedly add a table connected to the placed set,
    preferring more usable predicates."""
    remaining = list(select.tables)
    order: list[TableRef] = []
    placed: set[str] = set()

    def single_table_score(ref: TableRef) -> int:
        return sum(1 for _, used in needs if used == {ref.binding})

    def connection_score(ref: TableRef) -> tuple[int, int]:
        usable = joining = 0
        for _, used in needs:
            if ref.binding in used and used <= placed | {ref.binding}:
                usable += 1
                if len(used) > 1:
                    joining += 1
        return joining, usable

    while remaining:
        if not order:
            best = max(remaining, key=single_table_score)
        else:
            best = max(remaining, key=connection_score)
        remaining.remove(best)
        order.append(best)
        placed.add(best.binding)
    return order


def _cost_order(select: Select, state: _PlannerState) -> list[TableRef]:
    """Selinger-style DP over table subsets, minimizing estimated cost.

    Ties break toward FROM order (lexicographically smallest index
    tuple), which keeps plans deterministic and means the naive order is
    chosen whenever the cost model cannot separate the alternatives.
    """
    tables = list(select.tables)
    n = len(tables)
    # mask -> (cost, order_indices, est)
    best: dict[int, tuple[float, tuple[int, ...], float]] = {
        0: (0.0, (), 1.0)
    }
    for mask in range(1 << n):
        if mask not in best:
            continue
        cost, order, est = best[mask]
        placed = frozenset(tables[i].binding for i in order)
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            level = state.level_model(placed, tables[i].binding, est)
            candidate = (cost + level.cost, order + (i,), level.est)
            incumbent = best.get(mask | bit)
            if incumbent is None or (candidate[0], candidate[1]) < (
                incumbent[0], incumbent[1]
            ):
                best[mask | bit] = candidate
    _, final_order, _ = best[(1 << n) - 1]
    return [tables[i] for i in final_order]


def _intersection_filter(conjunct: Expr) -> FuncCall | None:
    """The ``intersection(a, b)`` call of a conjunct (one with no nested
    query block) shaped ``voxelCount(intersection(a, b)) > 0`` (or its
    mirror image).

    The shape is exactly the paper's region-intersection filter; the
    executor turns it into a spatial-index candidate lookup and still runs the
    original predicate on every candidate, so rewriting is result-safe.
    """
    if not isinstance(conjunct, BinOp):
        return None
    if conjunct.op == ">":
        call, low = conjunct.left, conjunct.right
    elif conjunct.op == "<":
        low, call = conjunct.left, conjunct.right
    else:
        return None
    if not (isinstance(low, Literal) and low.value == 0):
        return None
    if not (isinstance(call, FuncCall) and call.name.lower() == "voxelcount"
            and len(call.args) == 1):
        return None
    inner = call.args[0]
    if (isinstance(inner, FuncCall) and inner.name.lower() == "intersection"
            and len(inner.args) == 2):
        return inner
    return None
