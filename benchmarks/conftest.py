"""Shared benchmark fixtures.

``paper_system`` is the full-scale reproduction of the paper's database:
a 128^3 atlas, 5 synthetic PET and 3 synthetic MRI studies, warped and
banded at load time, with the three REGION encodings Table 4 compares.
Building it takes ~1 minute; it is built once per session.

Set ``REPRO_BENCH_GRID=64`` (or 32) to run the benchmarks at reduced scale
for a quick check; every result is reported alongside the paper's numbers
so scale changes are visible rather than silent.  A reduced-grid run
writes its result files to ``results/grid<N>/``, so the tracked grid-128
files under ``results/`` stay as they are.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import QbismSystem

RESULTS_DIR = Path(__file__).parent / "results"


def bench_grid_side() -> int:
    return int(os.environ.get("REPRO_BENCH_GRID", "128"))


@pytest.fixture(scope="session")
def paper_system() -> QbismSystem:
    side = bench_grid_side()
    return QbismSystem.build_demo(
        seed=1994,
        grid_side=side,
        n_pet=5,
        n_mri=3,
        band_encodings=("hilbert-naive", "z-naive", "octant"),
    )


@pytest.fixture(scope="session")
def results_dir() -> Path:
    side = bench_grid_side()
    path = RESULTS_DIR if side == 128 else RESULTS_DIR / f"grid{side}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a result block and persist it in ``results_dir``."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
