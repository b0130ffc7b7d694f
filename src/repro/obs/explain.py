"""EXPLAIN ANALYZE support: per-operator execution profiles and rendering.

The executor fills a :class:`PlanProfile` while running the statement (one
:class:`OperatorStats` per nested-loop level plus one for the output
stage); :func:`render_analyzed_plan` then prints the plan tree the planner
chose, annotated with the rows each operator examined and produced, the
wall time spent there, and the 4 KiB page I/Os it triggered — the same
per-stage breakdown Tables 3 and 4 are built from, but per operator.

This module is deliberately free of ``repro.db`` imports: the executor
hands it a duck-typed plan (``table_order`` / ``level_predicates`` /
``index_probes`` / ``spatial_probes``), so the dependency points from the
engine to the observability layer, never back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OperatorStats", "PlanProfile", "render_analyzed_plan"]


@dataclass
class OperatorStats:
    """What one plan operator did during an EXPLAIN ANALYZE run."""

    #: rows the operator examined (scan/probe output before its predicates)
    rows_in: int = 0
    #: rows that survived the operator's predicates
    rows_out: int = 0
    wall_seconds: float = 0.0
    #: 4 KiB LFM page reads attributed to this operator
    page_ios: int = 0
    #: the planner's estimate of ``rows_out`` (None when the plan carried
    #: no estimates — e.g. a hand-built plan object)
    est_rows: float | None = None

    def annotate(self) -> str:
        """The stats suffix appended to the operator's plan line."""
        est = (
            f"est rows={int(round(self.est_rows))}, "
            if self.est_rows is not None else ""
        )
        return (
            f"({est}rows examined={self.rows_in}, matched={self.rows_out}, "
            f"time={self.wall_seconds * 1e3:.2f} ms, page I/Os={self.page_ios})"
        )


@dataclass
class PlanProfile:
    """Execution profile of one SELECT, filled in by the executor."""

    plan: object | None = None
    #: one entry per nested-loop level, in plan order
    levels: list[OperatorStats] = field(default_factory=list)
    #: the projection / aggregation / order / limit stage
    output: OperatorStats = field(default_factory=OperatorStats)
    wall_seconds: float = 0.0
    page_ios: int = 0
    rowcount: int = 0

    def attach(self, plan) -> None:
        """Bind the plan the executor chose; allocates per-level stats.

        Cost-based plans carry per-level row estimates (``est_rows``) and
        a statement output estimate (``est_out``); both are copied onto
        the operator stats so the rendering shows estimated next to
        actual rows.
        """
        self.plan = plan
        estimates = list(getattr(plan, "est_rows", ()) or ())
        self.levels = [
            OperatorStats(est_rows=estimates[i] if i < len(estimates) else None)
            for i, _ in enumerate(plan.table_order)
        ]
        self.output.est_rows = getattr(plan, "est_out", None)


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


def render_analyzed_plan(profile: PlanProfile, io=None, work=None) -> list[str]:
    """The annotated plan tree as display lines, one per operator.

    ``io`` (an IOStats delta) and ``work`` (WorkCounters) are the
    statement-level totals; when given, a trailing summary line reports
    them next to the simulated 1994 Starburst time so EXPLAIN ANALYZE
    output reads like one row of Table 3.
    """
    plan = profile.plan
    lines: list[str] = []
    for level, stats in enumerate(profile.levels):
        lines.append("  " * level + f"{level_label(plan, level)}  {stats.annotate()}")
    out = profile.output
    out_est = (
        f"est rows={int(round(out.est_rows))}, "
        if out.est_rows is not None else ""
    )
    lines.append(
        f"output: {out.rows_out} row(s)  "
        f"({out_est}rows in={out.rows_in}, time={out.wall_seconds * 1e3:.2f} ms, "
        f"page I/Os={out.page_ios})"
    )
    summary = (
        f"total: {profile.rowcount} row(s) in {profile.wall_seconds * 1e3:.2f} ms, "
        f"{profile.page_ios} page I/O(s)"
    )
    if io is not None:
        from repro.net.costmodel import CostModel1994

        model = CostModel1994()
        sim = model.starburst_real_seconds(work, io) if work is not None else (
            model.seconds_per_page_io * io.pages_read
        )
        summary += (
            f"; statement I/O: {io.pages_read} pages / {io.bytes_read} bytes read"
            f"; simulated 1994 Starburst real time: {sim:.2f} s"
        )
    lines.append(summary)
    return lines
