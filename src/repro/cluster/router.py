"""Scatter-gather query routing over Hilbert-declustered shards.

The router is the cluster's client-facing query surface.  For every
statement it decides **where** (prune the shard fan-out when the
statement lets it, broadcast when it does not), refuses the statement
outright if any target shard is down, **scatters** the legs through each
shard's long-lived router session — one after another, on the caller's
thread, inside the shard's admission slots, so shard-side admission,
tracing, and the flight recorder all see ordinary session traffic — and
**merges** the partial results into one.

Every shard shares this process and its GIL, so a leg handed to a worker
thread could add no CPU, only a hand-off (DESIGN.md, "Cluster legs").

Pruning rules, cheapest first:

1. *Reference-only* statements (every table the statement names,
   subqueries included, is a replicated reference table) run on shard 0
   alone — any shard holds the full answer.
2. ``studyId = <value>`` conjuncts resolve through the
   :class:`~repro.cluster.placement.PlacementMap` to the owning shards.
3. *Emptiness*: a shard storing zero rows of a referenced partitioned
   table cannot contribute to an inner join over it.
4. *Geometry*: a spatial probe (``contains(col, ?)`` or
   ``voxelCount(intersection(col, ?)) > 0`` conjuncts) is tested against
   each shard's ANALYZE-time bounding box for that column; disjoint
   shards are pruned — the PR 8 optimizer statistics doing distributed
   duty.

Merging: single-leg results pass through untouched (this is what makes
the one-shard cluster bit-identical to a single node); ungrouped
aggregates re-aggregate (count/sum add, min/max fold); ORDER BY results
merge-sort and re-apply LIMIT.  Plain multi-leg SELECTs concatenate in
shard order — row order without ORDER BY is unspecified, exactly as in
single-node SQL.  Cross-shard GROUP BY raises :class:`ClusterError`
(route it with a ``studyId`` predicate instead), and so does a statement
whose *subquery* reads a partitioned table when it would take more than
one leg: each shard would evaluate the semi-/anti-join against its own
slice, and partial answers of that cannot be merged.
"""

from __future__ import annotations

import threading

from repro.cluster.placement import PlacementMap
from repro.concurrency import lockdep
from repro.db.database import QueryResult
from repro.db.executor import ResultSet
from repro.db.functions import WorkCounters
from repro.db.planner import conjuncts_of
from repro.db.sql.ast import (
    BinOp,
    ColumnRef,
    FuncCall,
    Literal,
    Param,
    Select,
)
from repro.db.sql.prepared import Prepared
from repro.errors import ClusterError, ShardUnavailableError
from repro.obs import metrics, promtext, trace
from repro.regions.region import Region
from repro.storage.lfm import LongField

__all__ = ["ShardRouter"]

_AGGREGATES = {"count", "sum", "avg", "min", "max"}

#: conjunct shapes eligible for bounding-box pruning (see _probe_boxes)
_PROBE_FUNCS = {"contains", "intersection"}


class ShardRouter:
    """The cluster's front door: plan, scatter, merge.

    Duck-compatible with the admin endpoint's server protocol
    (``_closed`` + ``session_snapshot()``), so a cluster gets a router
    ``/metrics`` page with the same machinery as a single node.
    """

    def __init__(self, shards, placement: PlacementMap):
        if not shards:
            raise ClusterError("a router needs at least one shard")
        self.shards = list(shards)
        self.placement = placement
        #: the router's own node registry for metrics federation; routing
        #: work (plan and merge) tees here, each leg into its shard's
        self.registry = metrics.MetricsRegistry()
        # Router state lock: outermost in the declared hierarchy, and
        # NEVER held across a shard call (legs run lock-free).
        self._lock = lockdep.instrument(threading.Lock(), "cluster.router")
        self._closed = False  # guarded_by: _lock
        self.queries = 0  # guarded_by: _lock

    # ------------------------------------------------------------------ #
    # the query surface
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: list | None = None) -> QueryResult:
        """Route one statement across the cluster; returns the merged result."""
        with self._lock:
            if self._closed:
                raise ClusterError("router is closed")
            self.queries += 1
        metrics.counter("cluster.queries").inc()
        params = list(params) if params else []
        prepared = self.shards[0].db.prepare(sql)[0]
        # Routing work runs inside the router's metrics scope; each leg
        # opens its shard's node scope inside it on the same thread, and
        # the innermost scope takes the tee, so federation attributes
        # each side.
        with metrics.scoped(self.registry), \
                trace.span("cluster.execute",
                           kind="read" if prepared.is_read else "write"):
            with trace.span("cluster.plan"):
                targets = self._plan(prepared, params)
            down = [s.shard_id for s in targets if s.server._closed]
            if down:
                metrics.counter("cluster.shard_errors").inc()
                raise ShardUnavailableError(
                    f"shard(s) {down} are down; the statement was refused "
                    "before any leg ran"
                )
            if len(targets) == len(self.shards) and len(self.shards) > 1:
                metrics.counter("cluster.broadcasts").inc()
            metrics.counter("cluster.pruned_shards").inc(
                len(self.shards) - len(targets)
            )
            partials = self._scatter(targets, sql, params)
            with trace.span("cluster.merge", legs=len(partials)):
                return self._merge(prepared, partials)

    def execute_spec(self, spec) -> "object":
        """Run one medical :class:`QuerySpec` on the shard owning its study.

        The study-id in the spec resolves the owner directly — the
        medical query surface is single-study, so it never fans out.  A
        closed owner refuses it with :class:`ShardUnavailableError`.
        """
        shard = self.shards[self.placement.shard_for(spec.study_id)]
        if shard.server._closed:
            metrics.counter("cluster.shard_errors").inc()
            raise ShardUnavailableError(f"shard {shard.shard_id} is down")
        with trace.span("cluster.execute_spec", shard=shard.shard_id):
            return shard.medical.execute(spec)

    def band_consistency_region(self, study_ids, low: int, high: int,
                                encoding: str | None = None):
        """Distributed Table 4: per-shard partial intersections, merged.

        Each owning shard intersects the bands of *its* studies inside
        its own DBMS (the scatter); the router intersects the per-shard
        partial regions (the gather) — exact, because region
        intersection is associative.
        """
        study_ids = [int(s) for s in study_ids]
        if len(study_ids) < 2:
            raise ClusterError("band consistency needs at least two studies")
        by_shard: dict[int, list[int]] = {}
        for sid in study_ids:
            by_shard.setdefault(self.placement.shard_for(sid), []).append(sid)
        partials: list[Region] = []
        with trace.span("cluster.band_consistency", shards=len(by_shard)):
            for shard_id in sorted(by_shard):
                shard = self.shards[shard_id]
                own = by_shard[shard_id]
                enc = encoding or shard.medical.encoding
                if len(own) >= 2:
                    region, _ = shard.medical.band_consistency_region(
                        own, low, high, encoding=enc
                    )
                    partials.append(region)
                else:
                    row = shard.execute(
                        "select region from intensityBand where studyId = ? "
                        "and low = ? and high = ? and encoding = ?",
                        [own[0], low, high, enc],
                    ).first()
                    if row is None:
                        raise ClusterError(
                            f"study {own[0]} has no stored band "
                            f"[{low}, {high}] on shard {shard_id}"
                        )
                    payload = row[0]
                    if isinstance(payload, LongField):
                        # region columns store LFM handles, not bytes
                        payload = shard.lfm.read(payload)
                    partials.append(Region.from_bytes(payload))
        return partials[0].intersection(*partials[1:]) if len(partials) > 1 \
            else partials[0]

    # ------------------------------------------------------------------ #
    # planning: which shards must run this statement?
    # ------------------------------------------------------------------ #

    def _plan(self, prepared: Prepared, params: list) -> list:
        """The shard legs for one statement, in shard order."""
        if _replicated_only(prepared):
            # Any shard holds the complete answer; reads take shard 0,
            # writes must broadcast to keep every shard's copy identical.
            return [self.shards[0]] if prepared.is_read else list(self.shards)
        stmt = prepared.ast
        study_ids = _study_id_conjuncts(getattr(stmt, "where", None), params)
        candidates = (list(self.shards) if study_ids is None else
                      [self.shards[i]
                       for i in self.placement.shards_for(study_ids)])
        if len(candidates) > 1 and any(
                PlacementMap.is_partitioned(t)
                for t in prepared.subquery_tables):
            raise ClusterError(
                "a subquery over a partitioned table cannot be evaluated "
                "across shards; add a studyId predicate so the statement "
                "resolves to one shard"
            )
        if study_ids is not None or not isinstance(stmt, Select):
            return candidates
        # Pruned on the SELECT's own FROM list only: a shard's empty slice
        # of a *subquery* table proves nothing (think NOT EXISTS).
        partitioned = [t.name for t in stmt.tables
                       if PlacementMap.is_partitioned(t.name)]
        if partitioned:
            candidates = [
                s for s in candidates
                if all(s.row_count(t) > 0 for t in partitioned)
            ] or [self.shards[0]]
            for table, column, probe in _probe_boxes(stmt, params):
                candidates = [
                    s for s in candidates
                    if _may_overlap(s.region_bbox(table, column), probe)
                ] or [self.shards[0]]
        return candidates

    # ------------------------------------------------------------------ #
    # scatter
    # ------------------------------------------------------------------ #

    def _scatter(self, targets, sql: str, params: list) -> list[QueryResult]:
        """Run one statement on every target shard, in shard order.

        Each leg runs on the caller's thread through the shard's router
        session, so it holds one of that shard's admission slots (or
        queues for one) like any served statement, and joins this
        statement's trace.
        """
        with trace.span("cluster.scatter", legs=len(targets)):
            return [shard.execute(sql, params) for shard in targets]

    # ------------------------------------------------------------------ #
    # merge
    # ------------------------------------------------------------------ #

    def _merge(self, prepared: Prepared,
               partials: list[QueryResult]) -> QueryResult:
        """One result from many — see the module doc for the rules."""
        if len(partials) == 1:
            return partials[0]
        stmt = prepared.ast
        work = sum((p.work for p in partials), WorkCounters())
        ios = [p.io for p in partials if p.io is not None]
        io = sum(ios[1:], ios[0]) if ios else None
        columns = partials[0].columns
        if not isinstance(stmt, Select):
            rowcount = sum(p.rowcount for p in partials)
            if not prepared.is_read and _replicated_only(prepared):
                # N physical copies of the same logical change.
                rowcount = partials[0].rowcount
            merged = ResultSet(columns, partials[0].rows, rowcount=rowcount)
            return QueryResult(result=merged, work=work, io=io,
                               sql=partials[0].sql)
        if stmt.group_by:
            raise ClusterError(
                "cross-shard GROUP BY is not supported; add a studyId "
                "predicate so the query resolves to one shard"
            )
        if _is_plain_aggregate(stmt):
            rows = [_merge_aggregate_row(stmt, partials)]
        else:
            rows = [row for p in partials for row in p.rows]
            if stmt.order_by:
                rows = _merge_order_by(stmt, columns, rows)
            if stmt.limit is not None:
                rows = rows[: stmt.limit]
        merged = ResultSet(columns, rows, rowcount=len(rows))
        return QueryResult(result=merged, work=work, io=io,
                           sql=partials[0].sql)

    # ------------------------------------------------------------------ #
    # admin surface (duck-typed QueryServer protocol)
    # ------------------------------------------------------------------ #

    def session_snapshot(self) -> list[dict]:
        """The cluster's sessions: every shard's, tagged with its shard."""
        snapshot = []
        for shard in self.shards:
            for entry in shard.server.session_snapshot():
                snapshot.append({**entry, "shard": shard.shard_id})
        return snapshot

    def node_registries(self) -> list[tuple[dict, "metrics.MetricsRegistry"]]:
        """``(identity labels, registry)`` of every node: the router and
        each shard."""
        nodes = [({"role": "router"}, self.registry)]
        for shard in self.shards:
            if shard.node_registry is not None:
                nodes.append((shard.node_labels, shard.node_registry))
        return nodes

    def federated_metrics(self) -> str:
        """The fleet as one Prometheus page (served at the router /metrics)."""
        return promtext.render_merged(self.node_registries())

    def cluster_health(self) -> dict:
        """The machine-readable fleet rollup served at /cluster/healthz.

        Per-shard up/down and session counts plus the cluster-level
        counters — the failure matrix as one JSON document.
        """
        shards = [
            {"shard": shard.shard_id,
             "up": not shard.server._closed,
             "studies": len(shard.study_ids),
             "sessions": len(shard.server.session_snapshot())}
            for shard in self.shards
        ]
        with self._lock:
            queries = self.queries
        counters = metrics.snapshot()["counters"]
        return {
            "status": "ok" if all(e["up"] for e in shards) else "degraded",
            "shards": shards,
            "queries": queries,
            "shard_errors": counters.get("cluster.shard_errors", 0),
            "broadcasts": counters.get("cluster.broadcasts", 0),
        }

    def start_admin(self, host: str = "127.0.0.1", port: int = 0):
        """Start the router's own admin endpoint (cluster-wide views)."""
        from repro.server.admin import AdminServer

        self.admin = AdminServer(self, host=host, port=port)
        return self.admin

    def close(self) -> None:
        """Close every shard's serving stack (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        return f"ShardRouter({len(self.shards)} shards)"


# ---------------------------------------------------------------------- #
# statement analysis helpers (pure functions over the AST)
# ---------------------------------------------------------------------- #

def _replicated_only(prepared: Prepared) -> bool:
    """Does the statement name tables, and only reference (replicated) ones?"""
    tables = prepared.tables
    return bool(tables) and all(PlacementMap.is_replicated(t) for t in tables)


def _resolve_value(expr, params: list):
    """The run-time value of a Literal or Param, else None."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param) and 0 <= expr.index < len(params):
        return params[expr.index]
    return None


def _study_id_conjuncts(where, params: list) -> list[int] | None:
    """Study ids pinned by ``studyId = <value>`` equality conjuncts.

    Returns the distinct ids, or None when no conjunct pins the study —
    a qualifier on the column ref is fine (every alias of a partitioned
    table carries the same studyId on the owning shard).
    """
    ids: set[int] = set()
    for conjunct in conjuncts_of(where):
        if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
            continue
        for column, other in ((conjunct.left, conjunct.right),
                              (conjunct.right, conjunct.left)):
            if isinstance(column, ColumnRef) and column.name.lower() == "studyid":
                value = _resolve_value(other, params)
                if isinstance(value, int) and not isinstance(value, bool):
                    ids.add(value)
    return sorted(ids) if ids else None


def _probe_boxes(stmt: Select, params: list):
    """Yield ``(table, column, probe_bbox)`` for prunable spatial conjuncts.

    Two shapes are recognised — both mean "rows whose ``col`` misses the
    probe region contribute nothing", so a shard whose ANALYZE bounding
    box for ``col`` is disjoint from the probe's cannot contribute:

    * ``contains(col, ?)`` as a bare conjunct, and
    * ``voxelCount(intersection(col, ?)) > 0`` (the structure-probe
      idiom in the medical layer).
    """
    bindings = {t.binding.lower(): t.name.lower() for t in stmt.tables}
    single = stmt.tables[0].name.lower() if len(stmt.tables) == 1 else None
    for conjunct in conjuncts_of(stmt.where):
        call = None
        if isinstance(conjunct, FuncCall) and \
                conjunct.name.lower() == "contains":
            call = conjunct
        elif (isinstance(conjunct, BinOp) and conjunct.op == ">"
              and isinstance(conjunct.left, FuncCall)
              and conjunct.left.name.lower() == "voxelcount"
              and isinstance(conjunct.right, Literal)
              and conjunct.right.value == 0
              and len(conjunct.left.args) == 1
              and isinstance(conjunct.left.args[0], FuncCall)
              and conjunct.left.args[0].name.lower() in _PROBE_FUNCS):
            call = conjunct.left.args[0]
        if call is None or len(call.args) != 2:
            continue
        for column, other in ((call.args[0], call.args[1]),
                              (call.args[1], call.args[0])):
            if not isinstance(column, ColumnRef):
                continue
            value = _resolve_value(other, params)
            if not isinstance(value, (bytes, bytearray)):
                continue
            table = bindings.get((column.qualifier or "").lower(), single)
            if table is None or not PlacementMap.is_partitioned(table):
                continue
            try:
                probe = Region.from_bytes(bytes(value)).bounding_box
            except Exception:  # qblint: disable=no-broad-except — not a region
                continue
            yield table, column.name, probe


def _may_overlap(shard_bbox, probe_bbox) -> bool:
    """Half-open bbox overlap test; unknown shard stats keep the shard."""
    if shard_bbox is None:
        return True
    (s_lower, s_upper), (p_lower, p_upper) = shard_bbox, probe_bbox
    return all(
        s_lower[d] < p_upper[d] and p_lower[d] < s_upper[d]
        for d in range(len(s_lower))
    )


# ---------------------------------------------------------------------- #
# merge helpers
# ---------------------------------------------------------------------- #

def _is_plain_aggregate(stmt: Select) -> bool:
    """Is every select item an ungrouped aggregate call?"""
    if stmt.group_by or not stmt.items:
        return False
    return all(
        isinstance(item.expr, FuncCall)
        and item.expr.name.lower() in _AGGREGATES
        for item in stmt.items
    )


def _merge_aggregate_row(stmt: Select, partials: list[QueryResult]) -> tuple:
    """Re-aggregate one-row partials: counts/sums add, min/max fold."""
    merged = []
    for position, item in enumerate(stmt.items):
        name = item.expr.name.lower()
        values = [
            p.rows[0][position] for p in partials
            if p.rows and p.rows[0][position] is not None
        ]
        if name == "avg":
            raise ClusterError(
                "cross-shard AVG cannot be re-aggregated from partial "
                "averages; compute SUM and COUNT instead"
            )
        if not values:
            merged.append(0 if name == "count" else None)
        elif name in ("count", "sum"):
            merged.append(sum(values))
        elif name == "min":
            merged.append(min(values))
        else:
            merged.append(max(values))
    return tuple(merged)


def _merge_order_by(stmt: Select, columns: list[str],
                    rows: list[tuple]) -> list[tuple]:
    """Re-sort concatenated partials by the statement's ORDER BY keys.

    Each partial arrives sorted, so sorting the concatenation with the
    same comparator reproduces the exact single-node order (Python's
    sort is stable, preserving shard order among equal keys just as the
    single node preserves scan order).
    """
    lowered = [c.lower() for c in columns]
    keys: list[tuple[int, bool]] = []
    for item in stmt.order_by:
        expr = item.expr
        name = expr.name.lower() if isinstance(expr, ColumnRef) else str(expr).lower()
        try:
            keys.append((lowered.index(name), item.ascending))
        except ValueError:
            raise ClusterError(
                f"cannot merge cross-shard ORDER BY on {name!r}: the key "
                "is not in the select list"
            ) from None
    merged = list(rows)
    for index, ascending in reversed(keys):
        merged.sort(
            key=lambda row: (row[index] is None, row[index]),
            reverse=not ascending,
        )
    return merged
