"""Timing breakdowns mirroring the paper's Tables 3 and 4.

A :class:`TimingBreakdown` is one row of Table 3: result size, LFM disk
I/Os, Starburst cpu/real, network messages/answer time, DX import and
render, "other", and the total.  The I/O and size columns come from real
measurements of this implementation; elapsed-time columns come from the
calibrated :class:`~repro.net.costmodel.CostModel1994`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TimingBreakdown", "Table4Row", "format_table3", "format_table4"]


@dataclass(frozen=True)
class TimingBreakdown:
    """One Table 3 row."""

    label: str
    #: result size
    runs: int
    voxels: int
    #: measured storage activity
    lfm_page_ios: int
    #: modeled Starburst / MedicalServer times
    starburst_cpu: float
    starburst_real: float
    #: measured message count, modeled answer time
    net_messages: int
    net_seconds: float
    #: modeled DX executive times
    import_cpu: float
    import_real: float
    render_seconds: float
    #: atlas query + SQL compile etc.
    other_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end elapsed time, summing the independent real components."""
        return (
            self.starburst_real
            + self.net_seconds
            + self.import_real
            + self.render_seconds
            + self.other_seconds
        )

    def as_row(self) -> tuple:
        """The row as display-ready values (rounded)."""
        return (
            self.label,
            self.runs,
            self.voxels,
            self.lfm_page_ios,
            round(self.starburst_cpu, 2),
            round(self.starburst_real, 1),
            self.net_messages,
            round(self.net_seconds, 1),
            round(self.import_cpu, 2),
            round(self.import_real, 1),
            round(self.render_seconds, 0),
            round(self.other_seconds, 1),
            round(self.total_seconds, 0),
        )


@dataclass(frozen=True)
class Table4Row:
    """One Table 4 row: a multi-study intersection under one encoding."""

    encoding: str
    lfm_page_ios: int
    starburst_cpu: float
    starburst_real: float
    result_runs: int
    result_voxels: int

    def as_row(self) -> tuple:
        """The Table 4 report columns as a tuple."""
        return (
            self.encoding,
            self.lfm_page_ios,
            round(self.starburst_cpu, 2),
            round(self.starburst_real, 1),
        )


_TABLE3_HEADER = (
    "query", "h-runs", "voxels", "LFM I/Os", "SB cpu", "SB real",
    "msgs", "net s", "imp cpu", "imp real", "render s", "other s", "total s",
)

_TABLE4_HEADER = ("encoding", "LFM I/Os", "cpu s", "real s")


def _format_rows(header: tuple, rows: list[tuple], paper) -> str:
    if paper is not None:  # each measured row, then the paper's values
        rows = [r for row, ref in zip(rows, paper, strict=True)
                for r in (row, ("(paper)", *ref))]
    table = [tuple(str(c) for c in header)] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for r, row in enumerate(table):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_table3(breakdowns: list[TimingBreakdown], paper=None) -> str:
    """Render Table 3 rows as an aligned text table; ``paper``, one
    sequence of reference values per row, interleaves the paper's rows."""
    return _format_rows(_TABLE3_HEADER, [b.as_row() for b in breakdowns], paper)


def format_table4(rows: list[Table4Row], paper=None) -> str:
    """Render Table 4 rows as an aligned text table (``paper`` as for
    :func:`format_table3`)."""
    return _format_rows(_TABLE4_HEADER, [r.as_row() for r in rows], paper)
