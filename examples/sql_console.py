#!/usr/bin/env python3
"""An interactive SQL console over a loaded QBISM database.

Builds the demo database and drops you into a tiny REPL speaking the
engine's SQL dialect — including the spatial functions — so you can poke
at the paper's schema directly:

    qbism> select structureName, voxelCount(region)
           from neuralStructure ns, atlasStructure s
           where ns.structureId = s.structureId;

Meta-commands: .tables, .schema <table>, .explain <select>, .quit
Run:  python examples/sql_console.py        (or pipe a script into stdin)
"""

from __future__ import annotations

import sys

from repro.core import QbismSystem
from repro.errors import ReproError
from repro.storage import LongField


def format_value(value) -> str:
    if isinstance(value, bytes):
        return f"<{len(value)}-byte payload>"
    if isinstance(value, LongField):
        return f"<long field #{value.field_id}, {value.length} B>"
    if value is None:
        return "NULL"
    return str(value)


def print_result(result) -> None:
    if not result.columns:
        print(f"ok ({result.rowcount} rows affected)")
        return
    widths = [
        max(len(c), *(len(format_value(row[i])) for row in result.rows))
        if result.rows
        else len(c)
        for i, c in enumerate(result.columns)
    ]
    print("  ".join(c.ljust(w) for c, w in zip(result.columns, widths)))
    print("  ".join("-" * w for w in widths))
    for row in result.rows:
        print("  ".join(format_value(v).ljust(w) for v, w in zip(row, widths)))
    print(f"({len(result.rows)} rows; {result.io.pages_read if result.io else 0} page I/Os)")


def main() -> None:
    print("Building the demo database (32^3 for a fast start)...")
    system = QbismSystem.build_demo(seed=1994, grid_side=32, n_pet=3, n_mri=1)
    db = system.db
    print("Ready. Type SQL (end with ';'), or .tables / .schema t / .explain q / .quit\n")

    buffer: list[str] = []
    interactive = sys.stdin.isatty()
    while True:
        try:
            prompt = "qbism> " if not buffer else "   ...> "
            line = input(prompt if interactive else "")
        except EOFError:
            break
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            command, _, arg = stripped.partition(" ")
            if command == ".quit":
                break
            if command == ".tables":
                print("  ".join(db.table_names()))
            elif command == ".schema":
                try:
                    schema = db.catalog.table(arg.strip()).schema
                    for col in schema.columns:
                        print(f"  {col.name:<16} {col.sql_type.value}")
                except ReproError as exc:
                    print(f"error: {exc}")
            elif command == ".explain":
                try:
                    for (line,) in db.execute("EXPLAIN " + arg).rows:
                        print(line)
                except (ReproError, ValueError) as exc:
                    print(f"error: {exc}")
            else:
                print(f"unknown command {command}")
            continue
        buffer.append(line)
        if not stripped.endswith(";"):
            continue
        sql = "\n".join(buffer)
        buffer = []
        try:
            print_result(db.execute(sql))
        except ReproError as exc:
            print(f"error: {exc}")
    print("bye")


if __name__ == "__main__":
    main()
