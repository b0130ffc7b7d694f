"""``python -m repro.analysis`` — the qblint command-line interface.

One command runs the line rules and the interprocedural lock-discipline
pass (:mod:`repro.analysis.concurrency`, the QB4xx codes) together.

Exit status: 0 when the tree is clean, 1 when violations were found,
2 on usage errors (bad path, unknown rule name).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.concurrency import CONCURRENCY_CODES, analyze_paths
from repro.analysis.engine import lint_paths
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES
from repro.errors import ValidationError


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: lint the given paths and print violations."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="qblint: static analysis for the QBISM reproduction",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    parser.add_argument("--rule", action="append", default=None, metavar="NAME",
                        help="run only the named line rule (repeatable); "
                             "the QB4xx pass always runs")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name}: {rule.description}")
        print("-- concurrency pass --")
        descriptions = {
            "QB401": "lock acquired against the declared hierarchy order",
            "QB411": "guarded attribute mutated without its lock",
            "QB412": "@guarded_by function called without its lock",
            "QB413": "guarded_by comment that binds to no attribute or lock",
            "QB421": "transaction-scoped state touched outside a WAL txn",
            "QB422": "blocking call while an exclusive lock is held",
        }
        for code in sorted(CONCURRENCY_CODES):
            print(f"{code}: {descriptions[code]}")
        return 0

    rules = ALL_RULES
    if args.rule:
        by_name = {rule.name: rule for rule in ALL_RULES}
        unknown = [name for name in args.rule if name not in by_name]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = tuple(by_name[name] for name in args.rule)

    try:
        violations = sorted(
            lint_paths(args.paths, rules) + analyze_paths(args.paths),
            key=lambda v: (v.path, v.line, v.rule),
        )
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    renderer = render_json if args.format == "json" else render_text
    print(renderer(violations))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
