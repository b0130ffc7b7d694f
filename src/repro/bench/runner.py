"""The bench runner behind ``python -m repro.bench``.

Builds a demo system, runs the Table 3 and Table 4 workloads from
:mod:`repro.bench.workloads`, and writes ``BENCH_table3.json`` /
``BENCH_table4.json`` — the machine-readable paper-anchor snapshots the
repository's CI archives per commit.  (Performance over time is the
ledger's job: ``benchmarks/ledger`` and the tracked ``BENCH_ledger.jsonl``.)

Each document follows one schema (validated by :func:`validate_bench_json`):

.. code-block:: text

    {
      "schema_version": 1,
      "workload": "table3" | "table4",
      "generated": {"git_rev", "grid_side", "paper_grid_side",
                    "seed", "n_pet", "n_mri"},
      "columns": [...measured column names...],
      "rows": {<row key>: {"label", "measured": [...], "paper": [...]}},
      "metrics": <repro.obs.metrics snapshot>
    }

``measured`` columns align with ``columns``; ``paper`` holds the reference
values from Tables 3/4 (measured at grid 128 on the 1994 testbed, so
compare shapes, not magnitudes, at reduced grids).
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

from repro.bench.harness import PAPER_TABLE3, PAPER_TABLE4
from repro.bench.workloads import (
    TABLE3_COLUMNS,
    TABLE4_COLUMNS,
    TABLE4_ENCODINGS,
    run_table3,
    run_table4,
    table3_measured,
    table4_measured,
)
from repro.errors import ValidationError

__all__ = ["main", "run_benches", "validate_bench_json", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
PAPER_GRID_SIDE = 128


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


def _document(workload: str, generated: dict, columns, rows: dict) -> dict:
    from repro.obs import metrics

    return {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "generated": generated,
        "columns": list(columns),
        "rows": rows,
        "metrics": metrics.snapshot(),
    }


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


def run_benches(grid_side: int = 32, n_pet: int = 5, n_mri: int = 3,
                seed: int = 1994, out_dir: str | Path = ".",
                wal: bool = False) -> list[Path]:
    """Build the system, run both workloads, write the BENCH JSONs.

    With ``wal`` the demo system runs through the write-ahead log — the
    measured LFM page counts must not move (journal I/O is accounted
    separately), which makes this flag a cheap durability regression probe.
    """
    from repro.core.system import QbismSystem
    from repro.obs import metrics

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics.reset()  # each run's snapshot covers exactly its own workloads
    system = QbismSystem.build_demo(
        seed=seed, grid_side=grid_side, n_pet=n_pet, n_mri=n_mri,
        band_encodings=tuple(TABLE4_ENCODINGS), wal=wal,
    )
    generated = {
        "git_rev": _git_rev(),
        "grid_side": grid_side,
        "paper_grid_side": PAPER_GRID_SIDE,
        "seed": seed,
        "n_pet": n_pet,
        "n_mri": n_mri,
        "wal": wal,
    }

    outcomes = run_table3(system)
    table3_rows = {
        key: {
            "label": outcome.timing.label,
            "measured": list(table3_measured(outcome.timing)),
            "paper": list(PAPER_TABLE3[key]),
        }
        for key, outcome in outcomes.items()
    }
    table3_doc = _document("table3", generated, TABLE3_COLUMNS, table3_rows)

    results = run_table4(system)
    table4_rows = {
        encoding: {
            "label": TABLE4_ENCODINGS[encoding],
            "measured": list(table4_measured(row)),
            "paper": list(PAPER_TABLE4[TABLE4_ENCODINGS[encoding]]),
        }
        for encoding, (_, row) in results.items()
    }
    table4_doc = _document("table4", generated, TABLE4_COLUMNS, table4_rows)

    written = []
    for name, doc in (("BENCH_table3.json", table3_doc),
                      ("BENCH_table4.json", table4_doc)):
        validate_bench_json(doc)
        path = out_dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the Table 3/4 workloads and write BENCH_*.json",
    )
    parser.add_argument("--grid", type=int, default=32,
                        help="atlas grid side (paper: 128; default: 32)")
    parser.add_argument("--pet", type=int, default=5,
                        help="number of synthetic PET studies (default: 5)")
    parser.add_argument("--mri", type=int, default=3,
                        help="number of synthetic MRI studies (default: 3)")
    parser.add_argument("--seed", type=int, default=1994,
                        help="phantom seed (default: 1994)")
    parser.add_argument("--out", default=".",
                        help="output directory for BENCH_*.json (default: .)")
    parser.add_argument("--wal", action="store_true",
                        help="run the workloads through the write-ahead log "
                             "(LFM page counts must be unchanged)")
    args = parser.parse_args(argv)
    written = run_benches(
        grid_side=args.grid, n_pet=args.pet, n_mri=args.mri,
        seed=args.seed, out_dir=args.out, wal=args.wal,
    )
    for path in written:
        print(f"wrote {path}")
    return 0
