"""A static call graph over the repro source tree.

The concurrency checker (:mod:`repro.analysis.concurrency`) is
*interprocedural*: whether ``WorkerPool._wait_for_room`` may touch the
FIFO's counters depends on what its callers hold, not on anything in its
own body.
This module supplies the structural half of that analysis:

* :class:`CodeIndex` — every module, class, and function under the
  linted paths, plus the light type facts the resolver needs:
  ``self.x = ClassName(...)`` attribute assignments, annotated
  parameters and dataclass fields (including ``T | None`` unions and
  string annotations), and ``x = ClassName(...)`` locals;
* :meth:`CodeIndex.resolve_call` — the set of function *qualnames* one
  ``ast.Call`` may reach: ``self.method(...)``, ``module.func(...)``,
  ``self.attr.method(...)`` through the inferred attribute types,
  ``Class.static(...)``, and plain same-module / imported names.

Resolution is deliberately partial: an unresolvable call returns the
empty set and the checker treats it as opaque.  Precision errs toward
*under*-resolution — a missed edge can hide a bug from the static pass
(the runtime lockdep witness still sees it), while an invented edge
would produce false diagnostics that teach people to suppress them.

Functions are named ``module:Class.method`` / ``module:func``;
nested ``def``s (closures, rollback callbacks) are not indexed — they
run under their scheduler's discipline, not their definition site's.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["CodeIndex", "ClassInfo", "FunctionInfo", "build_index", "module_name_for"]


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qualname: str            #: ``module:Class.method`` or ``module:func``
    module: str
    cls: str | None          #: bare class name for methods
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    param_types: dict[str, set[str]] = field(default_factory=dict)
    local_types: dict[str, set[str]] = field(default_factory=dict)

    @property
    def is_init(self) -> bool:
        """Is this a constructor (exempt from guard checks)?  A
        dataclass's ``__post_init__`` is the tail of its ``__init__``."""
        return self.cls is not None and self.name in (
            "__init__", "__post_init__")


@dataclass
class ClassInfo:
    """One indexed class: its methods and declared bases (bare names)."""

    name: str
    module: str
    methods: dict[str, str] = field(default_factory=dict)  #: name -> qualname
    bases: list[str] = field(default_factory=list)


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path (anchored at a ``repro`` dir).

    Falls back to the file stem for paths outside any package — enough
    for the test fixtures the analyzer is pointed at directly.
    """
    parts = list(path.with_suffix("").parts)
    for anchor in ("repro",):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _base_name(node: ast.expr) -> str | None:
    """Bare name of a base-class expression (``Attribute`` keeps the tail)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class CodeIndex:
    """Modules, classes, functions, and type facts of one source tree."""

    def __init__(self) -> None:
        self.modules: set[str] = set()
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_funcs: dict[tuple[str, str], str] = {}
        #: per-module import map: local name -> ("module", dotted) or
        #: ("symbol", bare-name)
        self.imports: dict[str, dict[str, tuple[str, str]]] = {}
        #: class -> attr -> possible classes of the stored value
        self.attr_types: dict[str, dict[str, set[str]]] = {}
        #: (class, field, annotation) of each class-body annotation
        self._fields: list[tuple[str, str, ast.expr]] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_module(self, path: Path, tree: ast.Module) -> None:
        """Index one parsed module (first pass: declarations only)."""
        module = module_name_for(path)
        self.modules.add(module)
        imports = self.imports.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = ("from", f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = ("module", alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, None, node, path)
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(name=node.name, module=module)
                info.bases = [b for b in map(_base_name, node.bases) if b]
                self.classes[node.name] = info
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(module, node.name, item, path)
                        info.methods[item.name] = fn.qualname
                    elif isinstance(item, ast.AnnAssign) and \
                            isinstance(item.target, ast.Name):
                        # Dataclass-style field: resolved in finalize().
                        self._fields.append((node.name, item.target.id, item.annotation))

    def finalize(self) -> None:
        """Second pass: infer field/attribute/local types (needs every
        class known, so the result does not depend on module order)."""
        for cls, attr, annotation in self._fields:
            types = self._annotation_types(annotation)
            if types:
                self.attr_types.setdefault(cls, {}).setdefault(attr, set()).update(types)
        for fn in self.functions.values():
            self._infer_types(fn)

    def _add_function(self, module: str, cls: str | None,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      path: Path) -> FunctionInfo:
        qualname = f"{module}:{cls}.{node.name}" if cls else f"{module}:{node.name}"
        fn = FunctionInfo(qualname=qualname, module=module, cls=cls,
                          name=node.name, node=node, path=str(path))
        self.functions[qualname] = fn
        if cls is None:
            self.module_funcs[(module, node.name)] = qualname
        return fn

    # ------------------------------------------------------------------ #
    # type facts
    # ------------------------------------------------------------------ #

    def _annotation_types(self, node: ast.expr | None) -> set[str]:
        """Class names an annotation may denote (unions and strings walked)."""
        out: set[str] = set()
        if node is None:
            return out
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return out
        for part in ast.walk(node):
            if isinstance(part, ast.Name) and part.id in self.classes:
                out.add(part.id)
        return out

    def _infer_types(self, fn: FunctionInfo) -> None:
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            types = self._annotation_types(arg.annotation)
            if types:
                fn.param_types[arg.arg] = types
        for stmt in ast.walk(fn.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            value_types = self._value_types(fn, stmt.value)
            if not value_types:
                continue
            if isinstance(target, ast.Name):
                fn.local_types.setdefault(target.id, set()).update(value_types)
            elif fn.cls and isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and target.value.id == "self":
                self.attr_types.setdefault(fn.cls, {}) \
                    .setdefault(target.attr, set()).update(value_types)

    def _value_types(self, fn: FunctionInfo, value: ast.expr) -> set[str]:
        """Classes a right-hand side may construct or pass through."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            name = self._resolve_name(fn.module, value.func.id)
            if name in self.classes:
                return {name}
        if isinstance(value, ast.Name):
            return set(fn.param_types.get(value.id, ()))
        if isinstance(value, ast.IfExp):
            return self._value_types(fn, value.body) | \
                self._value_types(fn, value.orelse)
        return set()

    def _resolve_name(self, module: str, name: str) -> str | None:
        """A bare name to its global meaning (class or symbol name)."""
        if name in self.classes and self.classes[name].module == module:
            return name
        target = self.imports.get(module, {}).get(name)
        if target is not None:
            kind, dotted = target
            tail = dotted.rsplit(".", 1)[-1]
            if kind == "from" and dotted not in self.modules:
                return tail  # an imported symbol, not a module
        if name in self.classes:
            return name
        return None

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def expr_types(self, fn: FunctionInfo, node: ast.expr) -> set[str]:
        """Possible classes of an expression's value (best effort)."""
        if isinstance(node, ast.Name):
            if node.id == "self" and fn.cls:
                return {fn.cls}
            out = set(fn.local_types.get(node.id, ()))
            out |= fn.param_types.get(node.id, set())
            return out
        if isinstance(node, ast.Attribute):
            out: set[str] = set()
            for cls in self.expr_types(fn, node.value):
                for owner in self._mro(cls):
                    out |= self.attr_types.get(owner, {}).get(node.attr, set())
            return out
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = self._resolve_name(fn.module, node.func.id)
            if name in self.classes:
                return {name}
        return set()

    def _mro(self, cls: str) -> list[str]:
        """The class plus its indexed bases, nearest first (cycle-safe)."""
        order, queue = [], [cls]
        while queue:
            current = queue.pop(0)
            if current in order or current not in self.classes:
                continue
            order.append(current)
            queue.extend(self.classes[current].bases)
        return order

    def _method(self, cls: str, name: str) -> str | None:
        for owner in self._mro(cls):
            qualname = self.classes[owner].methods.get(name)
            if qualname is not None:
                return qualname
        return None

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> set[str]:
        """Qualnames an ``ast.Call`` inside ``fn`` may invoke (maybe empty)."""
        func = call.func
        out: set[str] = set()
        if isinstance(func, ast.Name):
            qualname = self.module_funcs.get((fn.module, func.id))
            if qualname is not None:
                return {qualname}
            name = self._resolve_name(fn.module, func.id)
            if name in self.classes:
                init = self._method(name, "__init__")
                return {init} if init else set()
            if name is not None:
                for (_, fname), qualname in self.module_funcs.items():
                    if fname == name:
                        out.add(qualname)
            return out
        if not isinstance(func, ast.Attribute):
            return out
        receiver, method = func.value, func.attr
        # module.func(...) through an import
        if isinstance(receiver, ast.Name):
            target = self.imports.get(fn.module, {}).get(receiver.id)
            if target is not None:
                kind, dotted = target
                if dotted in self.modules:
                    qualname = self.module_funcs.get((dotted, method))
                    if qualname is not None:
                        return {qualname}
            # Class.staticmethod(...) on a class object
            name = self._resolve_name(fn.module, receiver.id)
            if name in self.classes:
                qualname = self._method(name, method)
                if qualname is not None:
                    return {qualname}
        for cls in self.expr_types(fn, receiver):
            qualname = self._method(cls, method)
            if qualname is not None:
                out.add(qualname)
        return out


def build_index(files: list[tuple[Path, ast.Module]]) -> CodeIndex:
    """Index a set of parsed modules and run type inference."""
    index = CodeIndex()
    for path, tree in files:
        index.add_module(path, tree)
    index.finalize()
    return index
