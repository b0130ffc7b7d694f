"""Every ``repro`` package imports on its own, first, in a fresh interpreter.

A test session imports packages in whatever order its fixtures happen to,
so an import cycle that only bites when one particular package comes first
never shows inside it.  Each package here gets a new process of its own.

The examples and benchmark scripts run outside the test session, so a name
deleted from ``repro`` would break them silently; their ``repro`` imports
are checked here without running them.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).resolve().parent
_SCRIPTS = sorted(
    path
    for folder in ("examples", "benchmarks")
    for path in (Path(__file__).resolve().parents[1] / folder).glob("*.py")
)
_PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(_ROOT).parts))
    for init in _ROOT.rglob("__init__.py")
    if init.parent != _ROOT
)


def test_every_package_is_listed():
    assert {"repro.viz", "repro.net", "repro.db.sql"} <= set(_PACKAGES)


@pytest.mark.parametrize("package", _PACKAGES)
def test_package_imports_first_in_a_fresh_interpreter(package):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(_ROOT.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", f"import {package}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_examples_and_benchmarks_import_only_names_that_exist():
    assert _SCRIPTS
    missing = []
    for script in _SCRIPTS:
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                wanted = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            else:
                continue
            missing += [f"{script.parent.name}/{script.name}: {module} {name or ''}"
                        for module, name in wanted
                        if module.split(".")[0] == "repro" and not _resolves(module, name)]
    assert not missing, "\n".join(missing)
