"""Which functions of ``src/repro`` no root reaches.

A function of the program should be reached by something other than a
test: a ledger workload or a paper benchmark.  This script runs both in
one process under ``sys.setprofile`` (and ``threading.setprofile``, for
the served workloads' threads) and records every code object that was
called:

* the five ledger workloads of ``BENCHMARK.json``, each with ``--smoke``;
* ``pytest benchmarks/`` at ``REPRO_BENCH_GRID=32``, without
  ``benchmarks/ledger/test_ledger.py`` (it runs the ledger in
  subprocesses, which this process cannot see).  The benchmarks'
  result files go to a temporary directory, not ``benchmarks/results``.

It then parses every module of ``src/repro`` and counts the lines of each
outermost function (a module-level function or a method of a
module-level class, ``def`` line to last line) that no call entered.  A
nested function, lambda or class counts inside its outermost parent.

Run::

    python3 benchmarks/reach_probe.py [--root TREE] [--json OUT]

``--root`` is the checkout whose ``src`` and ``benchmarks`` are probed
(default: this one).  Prints ``unreached X of Y`` body lines, then one
row per module with unreached lines, most first; what the workloads and
pytest print goes to standard error.  ``--json`` also writes
every outermost function (``module:qualname``), its lines and whether it
was reached, so two checkouts can be compared function by function.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

WORKLOADS = ("paper_g64", "pool_direct_g32", "served_mixed_g32",
             "served_hot_g32", "ingest_g32")


def outermost_functions(package: Path):
    """Yield ``(path, module, qualname, first_line, def_line, lines)`` for
    every outermost function under ``package``; ``first_line`` is where its
    code object starts (its first decorator, if any)."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.If, ast.Try, ast.With)):
                yield from walk(child, prefix)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in walk(tree, ""):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield (str(path.resolve()), module, qualname, first, node.lineno,
                   node.end_lineno - node.lineno + 1)


class Reach:
    """Every ``(file, first line)`` a call entered while installed."""

    def __init__(self):
        self.called: set[tuple[str, int]] = set()
        self._codes: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self._codes.add(frame.f_code)

    @contextlib.contextmanager
    def installed(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield self
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            self.called |= {(os.path.realpath(code.co_filename), code.co_firstlineno)
                            for code in self._codes}
            self._codes.clear()


def run_workloads(root: Path) -> list[str]:
    """Each ledger workload with ``--smoke``; returns the ones that failed."""
    import run  # benchmarks/ledger/run.py, on sys.path

    failed = []
    for name in WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.main(["--workload", name, "--smoke"])
        result = json.loads(out.getvalue().splitlines()[-1])
        print(f"# {name}: {result['attempted']} ops, {result['failed']} failed",
              file=sys.stderr)
        if not result["correct"]:
            failed.append(name)
    return failed


class _ResultsElsewhere:
    """pytest plugin: the benchmarks' ``RESULTS_DIR`` becomes a temporary
    directory, so a probe leaves the tracked result files alone."""

    def __init__(self, conftest: Path, directory: str):
        self.conftest, self.directory = str(conftest.resolve()), Path(directory)

    def pytest_collection_finish(self, session):
        for module in list(sys.modules.values()):
            if getattr(module, "__file__", None) and \
                    os.path.realpath(module.__file__) == self.conftest:
                module.RESULTS_DIR = self.directory


def run_benchmarks(root: Path) -> int:
    import pytest

    os.environ["REPRO_BENCH_GRID"] = "32"
    with tempfile.TemporaryDirectory() as results, contextlib.redirect_stdout(sys.stderr):
        plugin = _ResultsElsewhere(root / "benchmarks" / "conftest.py", results)
        return int(pytest.main(
            [str(root / "benchmarks"), "-q", "-p", "no:cacheprovider",
             f"--ignore={root / 'benchmarks' / 'ledger' / 'test_ledger.py'}"],
            plugins=[plugin]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--json", default=None,
                        help="write every outermost function and its reach here")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "benchmarks" / "ledger"), str(root / "src")]

    reach = Reach()
    with reach.installed():
        failed = run_workloads(root)
        status = run_benchmarks(root)

    rows = []
    for path, module, qualname, first, line, lines in outermost_functions(root / "src" / "repro"):
        rows.append({"function": f"{module}:{qualname}", "line": line, "lines": lines,
                     "reached": (path, first) in reach.called})
    total = sum(r["lines"] for r in rows)
    unreached = sum(r["lines"] for r in rows if not r["reached"])
    print(f"unreached {unreached} of {total} outermost function-body lines "
          f"({sum(not r['reached'] for r in rows)} of {len(rows)} functions)")
    per_module: dict[str, list[int]] = {}
    for r in rows:
        counts = per_module.setdefault(r["function"].split(":")[0], [0, 0, 0, 0])
        counts[0] += 0 if r["reached"] else r["lines"]
        counts[1] += r["lines"]
        counts[2] += 0 if r["reached"] else 1
        counts[3] += 1
    print(f"{'module':40s} {'lines unreached':>17s} {'functions unreached':>21s}")
    for module, (lost, lines, fns_lost, fns) in sorted(
            per_module.items(), key=lambda item: (-item[1][0], item[0])):
        if lost:
            print(f"{module:40s} {lost:>8d} of {lines:<6d} {fns_lost:>10d} of {fns:<6d}")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    if failed or status:
        print(f"# FAILED: workloads {failed}, pytest exit {status}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
