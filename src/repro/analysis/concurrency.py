"""Interprocedural concurrency checks: lock order, guards, txn scope.

qblint's line rules (:mod:`repro.analysis.rules`) look at one statement
at a time; the checks here reason about *lock context* flowing through
the call graph (:mod:`repro.analysis.callgraph`).  ``python -m
repro.analysis`` runs both.  Four families, all with stable ``QB4xx``
codes (suppressible like any other rule):

**Lock ordering** — :data:`RANKS` is the lock hierarchy of
ARCHITECTURE.md ("The lock hierarchy"), written down here and nowhere
else.  ``txn`` is the WAL transaction scope: the ``wal.txn`` RLock *and*
every ``X.transaction()`` context manager (statically they are one
region); a database's ``transaction()`` takes ``db.rwlock`` first
(:data:`TRANSACTION_KEYS`).  Every other private mutex (``*lock`` /
``*latch`` attributes) is a *leaf*: it may be taken while anything above
it is held, but nothing ranked may be acquired under it.  Violations:

* ``QB401`` — a lock acquired (directly, or transitively through a
  resolved call) while a lock ranked *below* it is held, or a
  non-reentrant lock re-acquired by its holder.

**Guarded state** — a ``# guarded_by: <lock>`` comment on the first line
of a ``self.<attr> = ...`` assignment declares which lock protects that
attribute; ``<lock>`` is a lock attribute of the same class or a
hierarchy key (``txn``, ``db.rwlock``).  ``@guarded_by("txn")`` declares
a function's contract.  Mutations of a guarded attribute (assignment,
``+=``, ``del``, or a mutating method call like ``.append``/``.pop``/
``.add_write``) outside the guard are ``QB411``; calling a
``@guarded_by`` function without its guard held is ``QB412``; a
``guarded_by:`` comment that binds to no attribute, or names no lock,
is ``QB413`` — an annotation the pass cannot check must be prose.
Constructors are exempt (the object is not shared yet), as are nested
``def``s (rollback callbacks run under the WAL's own discipline).

**Transaction scope** — the guard pseudo-key ``"txn"`` ties state to the
WAL transaction: mutating txn-guarded state (the LFM field table, the
WAL's list of new extents) outside a transaction scope is ``QB421``, and a
potentially *blocking* call (pool submit, queue put/get, thread join,
``Future.result``, ``time.sleep``) while ``txn`` or ``db.rwlock`` is
held is ``QB422`` — a blocked holder of either stalls every writer, and
a blocked ``txn`` holder stalls ``reset_journal`` too.

Held-context propagation is a least fixpoint: a function's *entry* set
is the intersection of what every resolved call site guarantees, so a
helper only "inherits" a lock all its callers hold.  Acquisition sets
(``may_acquire``) propagate as unions.  Unresolvable calls are opaque —
the runtime lockdep witness (:mod:`repro.concurrency.lockdep`) sees the
cycles that static resolution cannot.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.callgraph import CodeIndex, FunctionInfo, build_index
from repro.analysis.engine import CONCURRENCY_CODES, Suppressions, Violation
from repro.errors import ValidationError

__all__ = ["analyze_paths", "RANKS", "LEAF_RANK", "CONCURRENCY_CODES"]

#: the lock hierarchy: rank per hierarchy key, lower = acquired first
RANKS = {
    "db.rwlock": 10,
    "txn": 20,
    "db.version": 25,
    "wal.stats": 50,
    "db.stats": 55,
    "obs.digest": 60,
}

#: every unranked (leaf) mutex sits below the whole hierarchy
LEAF_RANK = 1000

#: the writers' locks (the database's and the WAL's RLocks): a holder may
#: re-acquire either, and every other writer waits while either is held
WRITER_KEYS = {"db.rwlock", "txn"}

#: (class, attribute) -> hierarchy key, for locks whose attr name alone
#: is ambiguous (every other ``*lock``/``*latch`` attr becomes a leaf)
LOCK_ATTRS = {
    ("Database", "_rwlock"): "db.rwlock",
    ("WriteAheadLog", "_txn_lock"): "txn",
    ("WriteAheadLog", "_stats_lock"): "wal.stats",
    ("TableStats", "_lock"): "db.stats",
    ("VersionManager", "_lock"): "db.version",
    ("DigestTable", "_lock"): "obs.digest",
    # Condition variables (leaf rank; named so `with self._cond:` scopes
    # register as holding the guard for the state they protect)
    ("WorkerPool", "_cond"): "WorkerPool._cond",
}

#: class -> hierarchy keys its ``transaction()`` takes, in order (any
#: other ``X.transaction()`` is the WAL's scope: ``txn`` alone)
TRANSACTION_KEYS = {"Database": ("db.rwlock", "txn")}

#: method calls that mutate their receiver (for guarded-attr checks)
MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end",
    "add_read", "add_write",
}

_HIERARCHY_DOC = " -> ".join([*sorted(RANKS, key=RANKS.get), "leaf mutexes"])

_GUARD_RE = re.compile(r"guarded_by:\s*([A-Za-z_]\w*(?:\.\w+)*)")


def _rank(key: str) -> int:
    return RANKS.get(key, LEAF_RANK)


# --------------------------------------------------------------------- #
# walk records
# --------------------------------------------------------------------- #


@dataclass
class _Acquire:
    fn: str
    key: str
    line: int
    lex_held: frozenset[str]


@dataclass
class _CallSite:
    fn: str
    callees: frozenset[str]
    line: int
    lex_held: frozenset[str]
    blocking: str | None = None   #: reason text for a blocking primitive


@dataclass
class _Mutation:
    fn: str
    attr: str
    guard: str
    line: int
    lex_held: frozenset[str]


class _Analyzer:
    """One analysis run over a set of parsed files."""

    def __init__(self, files: list[tuple[Path, str, ast.Module]]):
        self.files = files
        self.index: CodeIndex = build_index([(p, t) for p, _, t in files])
        #: (class, attr) -> guard key, from ``# guarded_by:`` comments
        self.guards: dict[tuple[str, str], str] = {}
        #: ``guarded_by:`` comments that check nothing: (path, line, why)
        self.unbound: list[tuple[str, int, str]] = []
        #: qualname -> declared guard keys, from ``@guarded_by(...)``
        self.declared: dict[str, set[str]] = {}
        self.acquires: list[_Acquire] = []
        self.calls: list[_CallSite] = []
        self.mutations: list[_Mutation] = []
        self.entry: dict[str, frozenset[str]] = {}
        self.may_acquire: dict[str, set[str]] = {}
        self.blocks: set[str] = set()

    # ------------------------------------------------------------------ #
    # guard annotations
    # ------------------------------------------------------------------ #

    def collect_guards(self) -> None:
        for path, source, tree in self.files:
            comments = _guard_comment_lines(source)
            if not comments:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for stmt in ast.walk(node):  # a statement before its parts
                    guard = comments.pop(getattr(stmt, "lineno", 0), None)
                    if guard is None:
                        continue
                    target = _self_assign_target(stmt)
                    if target is None:
                        self.unbound.append((str(path), stmt.lineno,
                                             "binds to no self.<attr> assignment"))
                    elif not self._names_a_lock(node.name, guard):
                        self.unbound.append((str(path), stmt.lineno,
                                             f"'{guard}' names no lock"))
                    else:
                        self.guards[(node.name, target)] = \
                            self._guard_key(node.name, guard)
            self.unbound.extend(
                (str(path), line, "binds to no self.<attr> assignment")
                for line in comments)

    def _names_a_lock(self, cls: str, guard: str) -> bool:
        return (guard == "txn" or guard in RANKS
                or self._attr_lock_key(cls, guard) is not None)

    def _guard_key(self, cls: str, guard: str) -> str:
        """A guard name from an annotation to its hierarchy key."""
        if guard == "txn" or guard in RANKS:
            # A hierarchy key used verbatim ("db.rwlock", "db.version")
            # names the ranked lock itself, not a per-class attribute.
            return guard
        return LOCK_ATTRS.get((cls, guard), f"{cls}.{guard}")

    def _declared_guards(self, fn: FunctionInfo) -> set[str]:
        out: set[str] = set()
        for deco in fn.node.decorator_list:
            if not (isinstance(deco, ast.Call) and _deco_name(deco.func) == "guarded_by"):
                continue
            for arg in deco.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    out.add(self._guard_key(fn.cls or "", arg.value))
        return out

    # ------------------------------------------------------------------ #
    # lock-expression classification
    # ------------------------------------------------------------------ #

    def _classify_lock(self, fn: FunctionInfo,
                       expr: ast.expr) -> tuple[str, ...]:
        """The hierarchy keys a with-item acquires, in order (none for
        non-locks)."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr != "transaction":
                return ()
            for callee in sorted(self.index.resolve_call(fn, expr)):
                keys = TRANSACTION_KEYS.get(self.index.functions[callee].cls)
                if keys is not None:
                    return keys
            return ("txn",)
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self":
            key = self._attr_lock_key(fn.cls, expr.attr)
            return () if key is None else (key,)
        if isinstance(expr, ast.IfExp):
            return (self._classify_lock(fn, expr.body)
                    or self._classify_lock(fn, expr.orelse))
        return ()

    def _attr_lock_key(self, cls: str | None, attr: str) -> str | None:
        if cls is None:
            return None
        override = LOCK_ATTRS.get((cls, attr))
        if override is not None:
            return override
        if attr.endswith(("lock", "latch")):
            return f"{cls}.{attr}"
        return None

    # ------------------------------------------------------------------ #
    # function body walk
    # ------------------------------------------------------------------ #

    def walk_all(self) -> None:
        for fn in self.index.functions.values():
            self.declared[fn.qualname] = self._declared_guards(fn)
            self._walk_block(fn, fn.node.body, frozenset())

    def _walk_block(self, fn: FunctionInfo, stmts: Iterable[ast.stmt],
                    held: frozenset[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes run under their own discipline
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = held
                for item in stmt.items:
                    self._visit_exprs(fn, item.context_expr, inner)
                    for key in self._classify_lock(fn, item.context_expr):
                        self.acquires.append(_Acquire(
                            fn.qualname, key, item.context_expr.lineno, inner))
                        inner = inner | {key}
                self._walk_block(fn, stmt.body, inner)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._visit_exprs(fn, stmt.test, held)
                self._walk_block(fn, stmt.body, held)
                self._walk_block(fn, stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._visit_exprs(fn, stmt.iter, held)
                self._walk_block(fn, stmt.body, held)
                self._walk_block(fn, stmt.orelse, held)
            elif isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
                self._walk_block(fn, stmt.body, held)
                for handler in stmt.handlers:
                    self._walk_block(fn, handler.body, held)
                self._walk_block(fn, stmt.orelse, held)
                self._walk_block(fn, stmt.finalbody, held)
            else:
                self._record_mutations(fn, stmt, held)
                self._visit_exprs(fn, stmt, held)

    def _record_mutations(self, fn: FunctionInfo, stmt: ast.stmt,
                          held: frozenset[str]) -> None:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            for attr in _self_attrs(target):
                self._note_mutation(fn, attr, stmt.lineno, held)

    def _note_mutation(self, fn: FunctionInfo, attr: str, line: int,
                       held: frozenset[str]) -> None:
        if fn.cls is None or fn.is_init:
            return
        guard = self.guards.get((fn.cls, attr))
        if guard is not None:
            self.mutations.append(_Mutation(fn.qualname, attr, guard, line,
                                            held))

    def _visit_exprs(self, fn: FunctionInfo, node: ast.AST,
                     held: frozenset[str]) -> None:
        """Record calls (and mutator calls) in an expression tree."""
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(current))
            if not isinstance(current, ast.Call):
                continue
            func = current.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if func.attr in MUTATORS and isinstance(receiver, ast.Attribute) \
                        and isinstance(receiver.value, ast.Name) \
                        and receiver.value.id == "self":
                    self._note_mutation(fn, receiver.attr, current.lineno, held)
            callees = self.index.resolve_call(fn, current)
            blocking = _blocking_reason(current)
            if callees or blocking:
                self.calls.append(_CallSite(fn.qualname, frozenset(callees),
                                            current.lineno, held, blocking))

    # ------------------------------------------------------------------ #
    # fixpoints
    # ------------------------------------------------------------------ #

    def _held(self, fn: str, lex_held: frozenset[str]) -> frozenset[str]:
        """What a site holds: its function's entry context plus its
        lexical with-stack."""
        return self.entry.get(fn, frozenset()) | lex_held

    def solve(self) -> None:
        callers: dict[str, list[_CallSite]] = {}
        for site in self.calls:
            for callee in site.callees:
                callers.setdefault(callee, []).append(site)
        names = list(self.index.functions)
        self.entry = {name: frozenset(self.declared.get(name, ()))
                      for name in names}
        # Entry contexts: least fixpoint of "intersection over call sites".
        for _ in range(20):
            changed = False
            for name in names:
                new = frozenset(self.declared.get(name, ()))
                sites = callers.get(name)
                if sites:
                    new |= frozenset.intersection(
                        *(self._held(site.fn, site.lex_held) for site in sites))
                if new != self.entry[name]:
                    self.entry[name] = new
                    changed = True
            if not changed:
                break
        # May-acquire sets and blocking-ness: unions over callees.
        local_acq: dict[str, set[str]] = {}
        for acq in self.acquires:
            local_acq.setdefault(acq.fn, set()).add(acq.key)
        self.may_acquire = {name: set(local_acq.get(name, ())) for name in names}
        self.blocks = {site.fn for site in self.calls if site.blocking}
        for _ in range(30):
            changed = False
            for site in self.calls:
                acq = self.may_acquire.setdefault(site.fn, set())
                for callee in site.callees:
                    extra = self.may_acquire.get(callee, set()) - acq
                    if extra:
                        acq |= extra
                        changed = True
                    if callee in self.blocks and site.fn not in self.blocks:
                        self.blocks.add(site.fn)
                        changed = True
            if not changed:
                break

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #

    def check(self) -> list[Violation]:
        locate = {fn.qualname: fn.path for fn in self.index.functions.values()}
        out: list[Violation] = []
        seen: set[tuple] = set()

        def emit(path: str, line: int, code: str, message: str) -> None:
            mark = (path, line, code)
            if mark not in seen:
                seen.add(mark)
                out.append(Violation(path, line, code, message))

        for path, line, why in self.unbound:
            emit(path, line, "QB413", f"guarded_by comment {why}: "
                 f"annotate the attribute's assignment or write it as prose")

        for acq in self.acquires:
            held = self._held(acq.fn, acq.lex_held)
            if acq.key in held:
                if acq.key not in WRITER_KEYS:
                    emit(locate[acq.fn], acq.line, "QB401",
                         f"non-reentrant lock '{acq.key}' is re-acquired "
                         f"while already held by this thread")
                continue
            for other in held:
                if _rank(acq.key) < _rank(other):
                    emit(locate[acq.fn], acq.line, "QB401",
                         f"'{acq.key}' is acquired while '{other}' is held, "
                         f"against the declared order ({_HIERARCHY_DOC})")

        for site in self.calls:
            path = locate[site.fn]
            held = self._held(site.fn, site.lex_held)
            for callee in sorted(site.callees):
                for guard in sorted(self.declared.get(callee, ())):
                    if guard not in held:
                        code = "QB421" if guard == "txn" else "QB412"
                        need = ("an open WAL transaction scope"
                                if guard == "txn" else f"'{guard}' held")
                        emit(path, site.line, code,
                             f"{_short(callee)} is @guarded_by({guard!r}) "
                             f"but is called here without {need}")
                for key in sorted(self.may_acquire.get(callee, set()) - held):
                    for other in held:
                        if _rank(key) < _rank(other):
                            emit(path, site.line, "QB401",
                                 f"call to {_short(callee)} may acquire "
                                 f"'{key}' while '{other}' is held, against "
                                 f"the declared order ({_HIERARCHY_DOC})")
            blocking = site.blocking or next(
                (f"call to {_short(c)}" for c in sorted(site.callees)
                 if c in self.blocks), None)
            writer = min(held & WRITER_KEYS, default=None)
            if blocking and writer is not None:
                emit(path, site.line, "QB422",
                     f"potentially blocking {blocking} while "
                     f"exclusive '{writer}' is held")

        for mut in self.mutations:
            if mut.guard in self._held(mut.fn, mut.lex_held):
                continue
            if mut.guard == "txn":
                emit(locate[mut.fn], mut.line, "QB421",
                     f"'{mut.attr}' is transaction-scoped state "
                     f"(guarded_by: txn) but is mutated here outside any "
                     f"WAL transaction scope")
            else:
                emit(locate[mut.fn], mut.line, "QB411",
                     f"'{mut.attr}' is guarded by '{mut.guard}' but is "
                     f"mutated here without it held")
        return out


# --------------------------------------------------------------------- #
# small syntactic helpers
# --------------------------------------------------------------------- #


def _deco_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _self_assign_target(stmt: ast.AST) -> str | None:
    """``self.X`` for an annotated assignment statement, else ``None``."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if isinstance(target, ast.Attribute) and \
            isinstance(target.value, ast.Name) and target.value.id == "self":
        return target.attr
    return None


def _self_attrs(target: ast.expr):
    """Attributes of ``self`` a store/delete target mutates."""
    if isinstance(target, ast.Attribute):
        value = target.value
        if isinstance(value, ast.Name) and value.id == "self":
            yield target.attr
        elif isinstance(value, ast.Attribute) and \
                isinstance(value.value, ast.Name) and value.value.id == "self":
            # ``self.x.y = ...`` mutates the object held in ``self.x``.
            yield value.attr
    elif isinstance(target, ast.Subscript):
        yield from _self_attrs(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _self_attrs(element)
    elif isinstance(target, ast.Starred):
        yield from _self_attrs(target.value)


def _mentions(node: ast.expr, word: str) -> bool:
    if isinstance(node, ast.Name):
        return word in node.id.lower()
    if isinstance(node, ast.Attribute):
        return word in node.attr.lower()
    return False


def _blocking_reason(call: ast.Call) -> str | None:
    """Reason text when a call is a known blocking primitive."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver, method = func.value, func.attr
    if method == "sleep" and isinstance(receiver, ast.Name) \
            and receiver.id == "time":
        return "time.sleep()"
    if method == "join" and _mentions(receiver, "thread"):
        return "thread join"
    if method == "result" and not isinstance(receiver, ast.Constant):
        return "Future.result() wait"
    if method in ("put", "get") and _mentions(receiver, "queue"):
        return f"queue .{method}()"
    return None


def _short(qualname: str) -> str:
    return qualname.split(":", 1)[-1]


def _guard_comment_lines(source: str) -> dict[int, str]:
    """Line -> guard name for every ``# guarded_by:`` comment."""
    import io
    import tokenize

    out: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                match = _GUARD_RE.search(token.string)
                if match:
                    out[token.start[0]] = match.group(1)
    except (tokenize.TokenError, IndentationError):
        pass
    return out


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #


def analyze_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Run the interprocedural concurrency checks over files/directories.

    The whole path set is indexed as one program (the call graph crosses
    files), then each diagnostic lands on its own file and line.  Per-line
    and whole-file ``# qblint: disable=`` suppressions apply, same as for
    the line rules.
    """
    files: list[tuple[Path, str, ast.Module]] = []
    file_list: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            file_list.extend(sorted(entry.rglob("*.py")))
        elif entry.is_file():
            file_list.append(entry)
        else:
            raise ValidationError(f"no such file or directory: {entry}")
    for path in file_list:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue  # the line-rule pass reports the syntax error
        files.append((path, source, tree))
    analyzer = _Analyzer(files)
    analyzer.collect_guards()
    analyzer.walk_all()
    analyzer.solve()
    violations = analyzer.check()
    suppressions = {str(p): Suppressions(src) for p, src, _ in files}
    kept = [
        v for v in violations
        if not suppressions[v.path].active(v.line, v.rule)
    ]
    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return kept
