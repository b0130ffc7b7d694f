"""The paper's Table 3 / Table 4 workloads and the BENCH JSON they write.

``benchmarks/bench_table3_single_study.py``, ``bench_table4_multi_study.py``
and ``python -m repro table3`` run exactly these queries: one definition of
"Q2's box" or "the Table 4 band" exists, here.  Every ``BENCH_*.json`` is
written by :func:`write_bench_json`, whose docstring gives the schema.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from repro.errors import ValidationError
from repro.medical.server import QuerySpec

__all__ = [
    "TABLE3_COLUMNS",
    "TABLE4_COLUMNS",
    "TABLE4_ENCODINGS",
    "TABLE4_BAND",
    "table3_specs",
    "run_table3",
    "run_table4",
    "write_bench_json",
    "validate_bench_json",
]

#: measured Table 3 columns, in the order ``TimingBreakdown.as_row`` emits them
TABLE3_COLUMNS = (
    "runs", "voxels", "lfm_page_ios",
    "starburst_cpu", "starburst_real",
    "net_messages", "net_seconds",
    "import_cpu", "import_real",
    "render_seconds", "other_seconds", "total_seconds",
)

#: measured Table 4 columns, in the order ``Table4Row.as_row`` emits them
TABLE4_COLUMNS = ("lfm_page_ios", "starburst_cpu", "starburst_real")

#: stored-REGION encoding -> the paper's Table 4 row label
TABLE4_ENCODINGS = {
    "hilbert-naive": "h-runs, naive",
    "z-naive": "z-runs, naive",
    "octant": "octants (z order)",
}

#: Table 4's band: all 5 PET studies "consistently have intensities in the
#: range 128-159"
TABLE4_BAND = (128, 159)

SCHEMA_VERSION = 1
PAPER_GRID_SIDE = 128


def table3_specs(system) -> dict[str, tuple[str, QuerySpec]]:
    """Q1..Q6 of Table 3 on the first PET study: query id -> (label, spec).

    Q2's box is the paper's (30,30,30)..(100,100,100), scaled to the grid.
    """
    sid = system.pet_study_ids[0]
    side = system.atlas.resolution
    lo, hi = round(30 * side / 128), round(101 * side / 128)
    return {
        "Q1": ("Q1: entire study", QuerySpec(study_id=sid)),
        "Q2": ("Q2: rectangular solid",
               QuerySpec(study_id=sid, box=((lo,) * 3, (hi,) * 3))),
        "Q3": ("Q3: ntal", QuerySpec(study_id=sid, structures=("ntal",))),
        "Q4": ("Q4: ntal1", QuerySpec(study_id=sid, structures=("ntal1",))),
        "Q5": ("Q5: band 224-255",
               QuerySpec(study_id=sid, intensity_range=(224, 255))),
        "Q6": ("Q6: band in ntal1",
               QuerySpec(study_id=sid, structures=("ntal1",),
                         intensity_range=(224, 255))),
    }


def run_table3(system) -> dict:
    """Run Q1..Q6 of Table 3; returns query id -> QueryOutcome."""
    return {qid: system.query(spec, label=label)
            for qid, (label, spec) in table3_specs(system).items()}


def run_table4(system) -> dict:
    """Run the Table 4 intersection per encoding; returns
    encoding -> ``(region, Table4Row)``."""
    return {
        encoding: system.multi_study_band(system.pet_study_ids, *TABLE4_BAND, encoding)
        for encoding in TABLE4_ENCODINGS
    }


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def write_bench_json(path: Path, workload: str, system, columns,
                     rows: dict, **generated) -> dict:
    """Validate one BENCH document, write it to ``path`` and return it.

    The document is ``{"schema_version": 1, "workload", "generated",
    "columns", "rows": {key: {"label", "measured", "paper"}}, "metrics"}``.
    ``rows`` maps a key to ``(row, paper)``: ``row`` is the label then the
    values of ``columns`` (what ``as_row`` gives), ``paper`` the paper's
    reference values (grid 128 on the 1994 testbed: compare shapes, not
    magnitudes, at reduced grids).  ``generated`` holds the git revision
    and the run's parameters, read off ``system`` plus the keyword
    arguments; ``metrics`` is a :mod:`repro.obs.metrics` snapshot.
    """
    from repro.obs import metrics

    doc = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "generated": {
            "git_rev": _git_rev(),
            "grid_side": system.atlas.resolution,
            "paper_grid_side": PAPER_GRID_SIDE,
            "seed": system._phantom_seed,
            "n_pet": len(system.pet_study_ids),
            "n_mri": len(system.mri_study_ids),
            **generated,
        },
        "columns": list(columns),
        "rows": {key: {"label": row[0], "measured": list(row[1:]), "paper": list(paper)}
                 for key, (row, paper) in rows.items()},
        "metrics": metrics.snapshot(),
    }
    validate_bench_json(doc)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def validate_bench_json(doc: dict) -> None:
    """Raise :class:`ValidationError` unless ``doc`` fits the BENCH schema."""
    if not isinstance(doc, dict):
        raise ValidationError("BENCH document must be a JSON object")
    for key in ("schema_version", "workload", "generated", "columns", "rows", "metrics"):
        if key not in doc:
            raise ValidationError(f"BENCH document lacks {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported BENCH schema version {doc['schema_version']!r}"
        )
    if doc["workload"] not in ("table3", "table4", "ablation_spatial_index"):
        raise ValidationError(f"unknown workload {doc['workload']!r}")
    for key in ("grid_side", "paper_grid_side", "seed", "n_pet", "n_mri"):
        if key not in doc["generated"]:
            raise ValidationError(f"BENCH 'generated' lacks {key!r}")
    columns = doc["columns"]
    if not doc["rows"]:
        raise ValidationError("BENCH document has no rows")
    for key, row in doc["rows"].items():
        for part in ("label", "measured", "paper"):
            if part not in row:
                raise ValidationError(f"BENCH row {key!r} lacks {part!r}")
        if len(row["measured"]) != len(columns):
            raise ValidationError(
                f"BENCH row {key!r} has {len(row['measured'])} measured values "
                f"for {len(columns)} columns"
            )
    for kind in ("counters", "gauges", "histograms"):
        if kind not in doc["metrics"]:
            raise ValidationError(f"BENCH metrics snapshot lacks {kind!r}")
