"""Reference numbers from the paper and the ratio-series printer.

Every benchmark prints the same rows/series the paper reports next to what
this implementation measures, so the *shape* of each result (who wins, by
what factor, where crossovers fall) can be checked at a glance and is
recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from repro.errors import ValidationError

from collections.abc import Mapping, Sequence

__all__ = [
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_RUN_RATIOS",
    "PAPER_SIZE_RATIOS",
    "ratio_line",
]

#: Table 3 (single-study queries), keyed by query id.  Values are
#: (h-runs, voxels, LFM I/Os, SB cpu, SB real, messages, net s,
#:  import cpu, import real, render s, other s, total s).
PAPER_TABLE3: Mapping[str, tuple] = {
    "Q1": (1, 2097152, 513, 0.18, 3.4, 2103, 24.8, 10.44, 10.7, 27, 3.1, 69),
    "Q2": (5252, 357911, 450, 0.45, 3.5, 372, 4.4, 3.19, 3.2, 13, 3.9, 28),
    "Q3": (1088, 16016, 29, 0.14, 0.6, 22, 0.5, 0.15, 0.2, 10, 3.7, 15),
    "Q4": (14364, 162628, 265, 0.35, 2.5, 195, 2.3, 1.44, 1.5, 14, 3.7, 24),
    "Q5": (508, 2383, 32, 0.13, 0.7, 7, 0.4, 0.10, 0.1, 12, 3.8, 17),
    "Q6": (150, 683, 72, 0.32, 1.0, 4, 0.4, 0.06, 0.1, 10, 4.5, 16),
}

#: Table 4 (5-study band-consistency intersection), keyed by encoding.
#: Values are (LFM I/Os, cpu s, real s).
PAPER_TABLE4: Mapping[str, tuple] = {
    "h-runs, naive": (446, 1.02, 5.7),
    "z-runs, naive": (593, 1.26, 7.3),
    "octants (z order)": (664, 1.49, 8.1),
}

#: §4.2: #h-runs : #z-runs : #oblong-octants : #octants over brain REGIONs.
PAPER_RUN_RATIOS: tuple[float, float, float, float] = (1.0, 1.27, 1.61, 2.42)

#: Figure 4: REGION size relative to the entropy bound, by method.
PAPER_SIZE_RATIOS: Mapping[str, float] = {
    "entropy": 1.0,
    "elias": 1.17,
    "naive": 9.50,
    "oblong": 10.4,
    "octant": 17.8,
}

#: §4.1: Z ordering yields ~27% more runs than Hilbert for the same REGIONs.
PAPER_VOLUME_ORDER_RUN_EXCESS = 0.27

#: EQ 1: power-law exponent band for delta lengths.
PAPER_POWER_LAW_EXPONENT = (1.5, 1.7)


def ratio_line(label: str, values: Sequence[float], names: Sequence[str]) -> str:
    """Format a normalized ratio series like the paper's in-text ratios."""
    base = values[0]
    if base == 0:
        raise ValidationError("first value of a ratio series must be non-zero")
    normalized = [v / base for v in values]
    body = " : ".join(f"{v:.2f}" for v in normalized)
    legend = " : ".join(names)
    return f"{label}: ({legend}) = {body}"

