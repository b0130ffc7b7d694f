"""The qblint rule catalog.

Each rule is a small class with a stable ``name`` (used in reports and in
``# qblint: disable=<name>`` suppressions), a one-line ``description``, and
a ``check`` generator yielding ``(line, message)`` pairs for one parsed
module.  New rules plug in by subclassing :class:`Rule` and appending to
``ALL_RULES``.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

__all__ = [
    "ALL_RULES",
    "Rule",
    "NoRawDeviceIO",
    "ReproErrorSubclass",
    "NoBroadExcept",
    "NoMutableDefault",
    "ConsistentAll",
    "NoDirectIOStatsMutation",
    "PublicDocstring",
]


class Rule:
    """Base class for qblint rules."""

    name: str = ""
    description: str = ""

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield ``(line, message)`` for each violation in one module."""
        raise NotImplementedError
        yield  # pragma: no cover


def _module_parts(path: str) -> tuple[str, ...]:
    """Path components of a source file, POSIX-normalized."""
    return PurePosixPath(path.replace("\\", "/")).parts


def _in_package(path: str, package: str) -> bool:
    """Is this file inside the given top-level subpackage (e.g. 'storage')?"""
    parts = _module_parts(path)
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and i + 1 < len(parts) and parts[i + 1] == package:
            return True
    return False


class NoRawDeviceIO(Rule):
    """Block-device bytes must flow through the storage layer.

    Outside ``repro/storage/``, code may not touch a device's private
    ``_backing`` buffer nor call ``read``/``write``/``read_ranges`` directly
    on a device object — those paths bypass the Long Field Manager and the
    I/O accounting every benchmark number depends on.
    """

    name = "no-raw-device-io"
    description = (
        "no direct BlockDevice reads/writes outside repro/storage/ "
        "(use the LongFieldManager APIs)"
    )

    _DEVICE_NAMES = {"device", "dev", "block_device"}
    _IO_METHODS = {"read", "write", "read_ranges"}

    def _is_device(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._DEVICE_NAMES
        if isinstance(node, ast.Attribute):
            return node.attr in self._DEVICE_NAMES
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        if _in_package(path, "storage"):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_backing":
                yield (
                    node.lineno,
                    "direct access to a device's _backing buffer bypasses "
                    "I/O accounting",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._IO_METHODS
                and self._is_device(node.func.value)
            ):
                yield (
                    node.lineno,
                    f"raw device .{node.func.attr}() call outside the "
                    "storage layer",
                )


class ReproErrorSubclass(Rule):
    """Every exception raised under ``src/repro`` derives from ReproError.

    Raising builtin exception types directly breaks the package contract
    that ``except ReproError`` catches any library failure.  The bridge
    types in :mod:`repro.errors` (ValidationError, UnknownNameError, ...)
    keep builtin-catching callers working.  ``NotImplementedError`` and
    ``AssertionError`` are exempt by convention.
    """

    name = "repro-error-subclass"
    description = (
        "raise repro.errors types, not bare builtins "
        "(except NotImplementedError/AssertionError)"
    )

    _FORBIDDEN = {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "RuntimeError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "OSError",
        "IOError",
        "AttributeError",
        "StopIteration",
    }

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in self._FORBIDDEN:
                yield (
                    node.lineno,
                    f"raise of builtin {exc.id}; use a repro.errors subclass "
                    "so 'except ReproError' catches it",
                )


class NoBroadExcept(Rule):
    """No ``except Exception`` / bare ``except`` handlers.

    The one sanctioned broad handler is the UDF sandbox boundary in
    ``repro/db/functions.py`` (it re-wraps arbitrary user-function failures)
    — that site carries an explicit suppression.
    """

    name = "no-broad-except"
    description = "no bare 'except:' or 'except Exception:' handlers"

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield (node.lineno, "bare 'except:' swallows every failure")
            elif isinstance(node.type, ast.Name) and node.type.id in (
                "Exception",
                "BaseException",
            ):
                yield (
                    node.lineno,
                    f"broad 'except {node.type.id}' hides unrelated bugs; "
                    "catch specific types",
                )


class NoMutableDefault(Rule):
    """No mutable default argument values (the classic shared-state trap)."""

    name = "no-mutable-default"
    description = "no list/dict/set literals (or constructors) as parameter defaults"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._MUTABLE_CALLS
        return False

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield (
                        default.lineno,
                        f"mutable default argument in {node.name}(); "
                        "use None and create inside",
                    )


class ConsistentAll(Rule):
    """Public modules declare ``__all__`` and it names only real attributes.

    Private modules (basename starting with ``_``, including ``__main__``)
    are exempt.  Every entry must be a string naming something defined or
    imported at module level — a stale entry breaks ``from m import *`` and
    misleads readers about the public surface.
    """

    name = "consistent-all"
    description = "public modules declare __all__ listing only defined names"

    def _top_level_names(self, tree: ast.Module) -> set[str]:
        names: set[str] = set()

        def collect(statements) -> None:
            for node in statements:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                names.add(sub.id)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(node.target, ast.Name):
                        names.add(node.target.id)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        names.add(bound)
                elif isinstance(node, ast.If):
                    collect(node.body)
                    collect(node.orelse)
                elif isinstance(node, ast.Try):
                    collect(node.body)
                    for handler in node.handlers:
                        collect(handler.body)
                    collect(node.orelse)
                    collect(node.finalbody)
                elif isinstance(node, (ast.For, ast.While, ast.With)):
                    collect(node.body)
        collect(tree.body)
        return names

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        basename = _module_parts(path)[-1]
        if basename.startswith("_") and basename != "__init__.py":
            return
        declaration = None
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                if "__all__" in targets:
                    declaration = node
                    break
        if declaration is None:
            yield (1, "public module does not declare __all__")
            return
        if not isinstance(declaration.value, (ast.List, ast.Tuple)):
            yield (declaration.lineno, "__all__ must be a literal list or tuple")
            return
        defined = self._top_level_names(tree)
        for element in declaration.value.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                yield (element.lineno, "__all__ entries must be string literals")
                continue
            if element.value not in defined:
                yield (
                    element.lineno,
                    f"__all__ names {element.value!r} which is not defined "
                    "in the module",
                )


class NoDirectIOStatsMutation(Rule):
    """IOStats counters are written by the storage layer alone.

    The observability layer (and every benchmark) *reads* those counters;
    a stray ``stats.pages_read += ...`` anywhere else would silently skew
    the Table 3/4 numbers.  Outside ``repro/storage/``, assigning or
    augmenting an attribute named after an IOStats field is flagged.
    """

    name = "no-direct-iostats-mutation"
    description = (
        "no writes to IOStats counter attributes outside repro/storage/ "
        "(observability must only read the I/O accounting)"
    )

    _FIELDS = {
        "pages_read", "pages_written",
        "read_extents", "write_extents",
        "bytes_read", "bytes_written",
        "read_calls", "write_calls",
    }

    def _target_field(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Attribute) and target.attr in self._FIELDS:
            return target.attr
        return None

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Yield this rule's violations for one parsed module."""
        if _in_package(path, "storage"):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            else:
                continue
            for target in targets:
                fld = self._target_field(target)
                if fld is not None:
                    yield (
                        node.lineno,
                        f"mutation of I/O counter {fld!r} outside the "
                        "storage layer skews the paper's accounting",
                    )


class PublicDocstring(Rule):
    """Docstring coverage for the public API surface.

    Every public (non-underscore) class, and every public function or
    method — module-level, or in the body of a public class — inside the
    ``repro`` package must carry a docstring.  The rule is what keeps
    ARCHITECTURE.md honest: a newcomer walking the module map can read
    what each entry point does without leaving the source.

    Property ``setter``/``deleter`` bodies are exempt (the getter's
    docstring covers the attribute), as are nested functions (not API
    surface).  One-off exceptions use the standard suppression comment:
    ``# qblint: disable=public-docstring``.
    """

    name = "public-docstring"
    description = (
        "public classes, functions, and methods in the repro package "
        "need a docstring"
    )

    _EXEMPT_DECORATOR_ATTRS = {"setter", "deleter", "getter"}

    def _is_exempt(self, node: ast.AST) -> bool:
        for decorator in getattr(node, "decorator_list", ()):
            if (isinstance(decorator, ast.Attribute)
                    and decorator.attr in self._EXEMPT_DECORATOR_ATTRS):
                return True
        return False

    def _missing(self, body, kind_prefix: str):
        """Yield violations for one scope's statements (no recursion into
        function bodies: nested defs are not public API)."""
        for node in body:
            if isinstance(node, ast.ClassDef):
                public = not node.name.startswith("_")
                if public and ast.get_docstring(node) is None:
                    yield node.lineno, f"public class {node.name!r} has no docstring"
                if public:
                    yield from self._missing(node.body, f"{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") or self._is_exempt(node):
                    continue
                if ast.get_docstring(node) is None:
                    yield (
                        node.lineno,
                        f"public {'method' if kind_prefix else 'function'} "
                        f"{kind_prefix}{node.name}() has no docstring",
                    )

    def check(self, tree: ast.Module, path: str) -> Iterator[tuple[int, str]]:
        """Flag public defs without docstrings in ``repro`` package files."""
        parts = _module_parts(path)
        if "repro" not in parts[:-1]:
            return
        yield from self._missing(tree.body, "")


#: the registry the engine runs, in report order
ALL_RULES: tuple[Rule, ...] = (
    NoRawDeviceIO(),
    ReproErrorSubclass(),
    NoBroadExcept(),
    NoMutableDefault(),
    ConsistentAll(),
    NoDirectIOStatsMutation(),
    PublicDocstring(),
)
