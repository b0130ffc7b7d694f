"""Every ``repro`` package imports on its own, first, in a fresh interpreter.

A test session imports packages in whatever order its fixtures happen to,
so an import cycle that only bites when one particular package comes first
never shows inside it.  Each package here gets a new process of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_ROOT = Path(repro.__file__).resolve().parent
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
