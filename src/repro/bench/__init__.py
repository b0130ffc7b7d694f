"""Benchmark support: paper reference values and the Table 3/4 workloads."""

from __future__ import annotations

from repro.bench.harness import (
    PAPER_POWER_LAW_EXPONENT,
    PAPER_RUN_RATIOS,
    PAPER_SIZE_RATIOS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_VOLUME_ORDER_RUN_EXCESS,
    ratio_line,
)

__all__ = [
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_RUN_RATIOS",
    "PAPER_SIZE_RATIOS",
    "PAPER_POWER_LAW_EXPONENT",
    "PAPER_VOLUME_ORDER_RUN_EXCESS",
    "ratio_line",
]
