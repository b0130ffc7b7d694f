"""Command-line interface: build, query, inspect, and persist QBISM databases.

Usage examples::

    python -m repro build --grid 64 --pet 3 --mri 1 --out ./qbism-db
    python -m repro query --db ./qbism-db --study 1 --structure ntal1 \
        --band 192 255 --render textured --image out.pgm
    python -m repro info --db ./qbism-db --space
    python -m repro table3 --grid 64

Without ``--db``, ``query`` and ``table3`` build a fresh in-memory demo.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.workloads import run_table3
from repro.core import QbismSystem, QuerySpec, format_table3
from repro.db.types import SqlType


def _build_system(args) -> QbismSystem:
    if getattr(args, "db", None):
        return QbismSystem.load(args.db)
    print(
        f"building demo system (grid {args.grid}^3, {args.pet} PET + {args.mri} MRI)...",
        file=sys.stderr,
    )
    return QbismSystem.build_demo(
        seed=args.seed, grid_side=args.grid, n_pet=args.pet, n_mri=args.mri
    )


def cmd_build(args) -> int:
    """Build a demo database and persist it to --out."""
    system = QbismSystem.build_demo(
        seed=args.seed, grid_side=args.grid, n_pet=args.pet, n_mri=args.mri
    )
    system.save(args.out)
    print(f"saved {system} to {args.out}")
    return 0


def space_rows(db) -> list[tuple[str, int, int, int]]:
    """``(label, fields, stored, allocated)`` bytes per LONGFIELD column.

    A table with an ``encoding`` column (``intensityBand``) gets one row
    per encoding.  Each field counts once, in the first row that names
    it, and fields no row names get a row of their own, so the rows sum
    to the manager's totals (of a reopened or freshly built database,
    where no deleted extent waits for a snapshot reader to free it).
    """
    space = db.lfm.space()
    groups: dict[str, list[tuple[int, int]]] = {}
    for name in db.table_names():
        schema = db.catalog.table(name).schema
        split = "encoding" in (c.name for c in schema.columns)
        for column in schema.columns:
            if column.sql_type is not SqlType.LONGFIELD:
                continue
            select = f"select {column.name}{', encoding' if split else ''} from {name}"
            for row in db.execute(select).rows:
                label = f"{name}.{column.name}" + (f" [{row[1]}]" if split else "")
                entry = space.pop(getattr(row[0], "field_id", None), None)
                if entry is not None:
                    groups.setdefault(label, []).append(entry)
    rows = [(label, len(entries), sum(s for s, _ in entries), sum(a for _, a in entries))
            for label, entries in groups.items()]
    rows.append(("(no row names it)", len(space), sum(s for s, _ in space.values()),
                 sum(a for _, a in space.values())))
    return rows


def cmd_info(args) -> int:
    """Print the database inventory: atlas, studies, storage, tables."""
    system = _build_system(args)
    print(system)
    print(f"atlas: {system.atlas.name} ({system.atlas.resolution}^3, "
          f"voxel {system.atlas.voxel_size} mm)")
    print(f"structures: {', '.join(sorted(system.structure_names()))}")
    print(f"PET studies: {system.pet_study_ids}; MRI studies: {system.mri_study_ids}")
    print(f"storage: {system.lfm.field_count} long fields, "
          f"{system.lfm.stored_bytes >> 20} MiB logical / "
          f"{system.lfm.allocated_bytes >> 20} MiB allocated")
    for name in system.db.table_names():
        count = system.db.execute(f"select count(*) from {name}").scalar()
        print(f"  {name:<18} {count:>6} rows")
    if args.space:
        rows = space_rows(system.db)
        rows.append(("total", system.lfm.field_count, system.lfm.stored_bytes,
                     system.lfm.allocated_bytes))
        print(f"\n{'long field':<40} {'fields':>6} {'stored B':>12} "
              f"{'allocated B':>12} {'rounding B':>12}")
        for label, count, stored, allocated in rows:
            print(f"{label:<40} {count:>6} {stored:>12,} {allocated:>12,} "
                  f"{allocated - stored:>12,}")
    return 0


def cmd_query(args) -> int:
    """Run one spatial query and print its Table 3-style timing row."""
    system = _build_system(args)
    spec = QuerySpec(
        study_id=args.study if args.study is not None else system.pet_study_ids[0],
        structures=tuple(args.structure or ()),
        intensity_range=tuple(args.band) if args.band else None,
        box=(tuple(args.box[:3]), tuple(args.box[3:])) if args.box else None,
    )
    outcome = system.query(spec, render_mode=args.render)
    print(f"query: {spec.label()}")
    print(f"result: {outcome.data.voxel_count} voxels in "
          f"{outcome.data.region.run_count} runs")
    print(format_table3([outcome.timing]))
    if args.sql:
        print("\ngenerated SQL:")
        for sql in outcome.result.sql:
            print(sql)
            print()
    if args.image and outcome.image is not None:
        from repro.viz import to_pgm

        path = to_pgm(outcome.image, args.image)
        print(f"wrote {path}")
    return 0


def cmd_table3(args) -> int:
    """Run the six Table 3 queries and print the full table."""
    outcomes = run_table3(_build_system(args))
    print(format_table3([o.timing for o in outcomes.values()]))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build_args(p, with_db=False):
        p.add_argument("--grid", type=int, default=64, help="atlas grid side")
        p.add_argument("--pet", type=int, default=3, help="synthetic PET studies")
        p.add_argument("--mri", type=int, default=1, help="synthetic MRI studies")
        p.add_argument("--seed", type=int, default=1994)
        if with_db:
            p.add_argument("--db", help="load a saved database instead of building")

    p_build = sub.add_parser("build", help="build and save a demo database")
    add_build_args(p_build)
    p_build.add_argument("--out", required=True, help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_info = sub.add_parser("info", help="describe a database")
    add_build_args(p_info, with_db=True)
    p_info.add_argument("--space", action="store_true", help="long-field bytes per column")
    p_info.set_defaults(func=cmd_info)

    p_query = sub.add_parser("query", help="run one spatial query")
    add_build_args(p_query, with_db=True)
    p_query.add_argument("--study", type=int, help="study id (default: first PET)")
    p_query.add_argument("--structure", action="append", help="structure name (repeatable)")
    p_query.add_argument("--band", nargs=2, type=int, metavar=("LO", "HI"))
    p_query.add_argument("--box", nargs=6, type=int,
                         metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"))
    p_query.add_argument("--render", default="mip",
                         choices=["mip", "slice", "surface", "textured"])
    p_query.add_argument("--image", help="write the rendering to this PGM file")
    p_query.add_argument("--sql", action="store_true", help="print generated SQL")
    p_query.set_defaults(func=cmd_query)

    p_t3 = sub.add_parser("table3", help="print the Table 3 query sweep")
    add_build_args(p_t3, with_db=True)
    p_t3.set_defaults(func=cmd_table3)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
