"""Interprocedural concurrency checks: lock order, guards, txn scope.

qblint's line rules (:mod:`repro.analysis.rules`) look at one statement
at a time; the checks here reason about *lock context* flowing through
the call graph (:mod:`repro.analysis.callgraph`).  Three families, all
with stable ``QB4xx`` codes (suppressible like any other rule):

**Lock ordering** — the runtime hierarchy, outermost first::

    db.rwlock (10) -> txn (20) -> db.version (25) -> wal.stats (50)
                   -> db.stats (55)
                   -> leaf mutexes (1000)

``db.rwlock`` is the database's statement-level RWLock; ``txn`` is the
WAL transaction scope (the ``wal.txn`` RLock *and* every
``X.transaction()`` context manager — statically they are one region);
``db.version`` is the MVCC version-manager mutex (writers publish under
``db.rwlock`` and ``txn``; readers pin/unpin with nothing held above
it); every other private mutex (``*lock`` / ``*latch`` attributes) is a
*leaf*: it may be taken while anything above it is held, but nothing
ranked may be acquired under it.  Violations:

* ``QB401`` — a lock acquired (directly, or transitively through a
  resolved call) while a lock ranked *below* it is held, or a
  non-reentrant lock re-acquired by its holder.

**Guarded state** — ``# guarded_by: <lock-attr>`` comments on attribute
assignments declare which lock protects a shared mutable, and
``@guarded_by("txn")`` declares a function's contract.  Mutations of a
guarded attribute (assignment, ``+=``, ``del``, or a mutating method
call like ``.append``/``.pop``/``.add_write``) outside the guard are
``QB411``; calling a ``@guarded_by`` function without its guard held is
``QB412``.  Constructors are exempt (the object is not shared yet), as
are nested ``def``s (rollback callbacks run under the WAL's own
discipline).

**Transaction scope** — the guard pseudo-key ``"txn"`` ties state to the
WAL transaction: mutating txn-guarded state (the LFM field table, the
WAL's list of new extents) outside a transaction scope is ``QB421``, and a
potentially *blocking* call (pool submit, queue put/get, thread join,
``Future.result``, ``time.sleep``) while ``txn`` or the write side of
``db.rwlock`` is held is ``QB422`` — a writer stalled on the admission
queue would stall every reader behind it.

Held-context propagation is a least fixpoint: a function's *entry* set
is the intersection of what every resolved call site guarantees, so a
helper only "inherits" a lock all its callers hold.  Acquisition sets
(``may_acquire``) propagate as unions.  Unresolvable calls are opaque —
the runtime lockdep witness (:mod:`repro.concurrency.lockdep`) covers
what static resolution cannot see.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.callgraph import CodeIndex, FunctionInfo, build_index
from repro.analysis.engine import CONCURRENCY_CODES, Suppressions, Violation
from repro.concurrency.lockdep import DEFAULT_RANKS
from repro.errors import ValidationError

__all__ = ["analyze_paths", "RANKS", "LEAF_RANK", "CONCURRENCY_CODES"]

#: declared ranks of the named hierarchy locks (lower = acquired first):
#: the runtime witness's table, the WAL scope keyed ``txn`` (see above)
RANKS = {("txn" if key == "wal.txn" else key): rank
         for key, rank in DEFAULT_RANKS.items()}

#: every unranked (leaf) mutex sits below the whole hierarchy
LEAF_RANK = 1000

#: keys a holder may re-acquire (RWLock and the WAL's RLock re-enter)
REENTRANT = {"db.rwlock", "txn"}

#: (class, attribute) -> hierarchy key, for locks whose attr name alone
#: is ambiguous (every other ``*lock``/``*latch`` attr becomes a leaf)
LOCK_ATTRS = {
    ("WriteAheadLog", "_txn_lock"): "txn",
    ("WriteAheadLog", "_stats_lock"): "wal.stats",
    ("TableStats", "_lock"): "db.stats",
    ("VersionManager", "_lock"): "db.version",
    ("DigestTable", "_lock"): "obs.digest",
    # Condition variables (leaf rank; named so `with self._cond:` scopes
    # register as holding the guard for the state they protect)
    ("WorkerPool", "_cond"): "WorkerPool._cond",
}

#: receiver names that mark ``.write()`` as the database write lock
RWLOCK_NAMES = {"rwlock", "_rwlock"}

#: method calls that mutate their receiver (for guarded-attr checks)
MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end",
    "add_read", "add_write",
}

_HIERARCHY_DOC = " -> ".join([*sorted(RANKS, key=RANKS.get), "leaf mutexes"])

_GUARD_RE = re.compile(r"guarded_by:\s*([A-Za-z_]\w*)")


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
    lex_held: dict[str, str]


@dataclass
class _CallSite:
    fn: str
    callees: frozenset[str]
    line: int
    lex_held: dict[str, str]
    blocking: str | None = None   #: reason text for a blocking primitive


@dataclass
class _Mutation:
    fn: str
    attr: str
    guard: str
    line: int
    lex_held: dict[str, str]


def _merge_mode(a: str, b: str) -> str:
    if a == b:
        return a
    return "dynamic"


def _merge_held(entry: dict[str, str], lex: dict[str, str]) -> dict[str, str]:
    """Entry context overlaid with the lexical with-stack (lexical wins)."""
    held = dict(entry)
    held.update(lex)
    return held


class _Analyzer:
    """One analysis run over a set of parsed files."""

    def __init__(self, files: list[tuple[Path, str, ast.Module]]):
        self.files = files
        self.index: CodeIndex = build_index([(p, t) for p, _, t in files])
        #: (class, attr) -> guard key, from ``# guarded_by:`` comments
        self.guards: dict[tuple[str, str], str] = {}
        #: qualname -> declared guard keys, from ``@guarded_by(...)``
        self.declared: dict[str, set[str]] = {}
        self.acquires: list[_Acquire] = []
        self.calls: list[_CallSite] = []
        self.mutations: list[_Mutation] = []
        self.entry: dict[str, dict[str, str]] = {}
        self.may_acquire: dict[str, set[str]] = {}
        self.blocks: set[str] = set()

    # ------------------------------------------------------------------ #
    # guard annotations
    # ------------------------------------------------------------------ #

    def collect_guards(self) -> None:
        for path, source, tree in self.files:
            comment_guards = _guard_comment_lines(source)
            if not comment_guards:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for stmt in ast.walk(node):
                    target = _self_assign_target(stmt)
                    if target is None:
                        continue
                    guard = comment_guards.get(stmt.lineno)
                    if guard is None:
                        continue
                    self.guards[(node.name, target)] = \
                        self._guard_key(node.name, guard)

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

    def _classify_lock(self, fn: FunctionInfo, expr: ast.expr,
                       locals_locks: dict[str, tuple[str, str]]
                       ) -> tuple[str, str] | None:
        """(key, mode) a with-item acquires, or ``None`` for non-locks."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            method, receiver = expr.func.attr, expr.func.value
            if method == "write" and _is_rwlock(receiver):
                return ("db.rwlock", "write")
            if method == "transaction":
                return ("txn", "excl")
            return None
        if isinstance(expr, ast.Name):
            return locals_locks.get(expr.id)
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self":
            key = self._attr_lock_key(fn.cls, expr.attr)
            return (key, "excl") if key else None
        if isinstance(expr, ast.IfExp):
            body = self._classify_lock(fn, expr.body, locals_locks)
            orelse = self._classify_lock(fn, expr.orelse, locals_locks)
            if body and orelse and body[0] == orelse[0]:
                return (body[0], _merge_mode(body[1], orelse[1]))
            return body or orelse
        return None

    def _attr_lock_key(self, cls: str | None, attr: str) -> str | None:
        if cls is None:
            return None
        override = LOCK_ATTRS.get((cls, attr))
        if override is not None:
            return override
        if attr.endswith(("lock", "latch")):
            return f"{cls}.{attr}"
        return None

    def _prescan_locals(self, fn: FunctionInfo) -> dict[str, tuple[str, str]]:
        """Locals assigned a lock expression (``lock = a.read() if ...``)."""
        out: dict[str, tuple[str, str]] = {}
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                lock = self._classify_lock(fn, stmt.value, out)
                if lock is not None:
                    out[stmt.targets[0].id] = lock
        return out

    # ------------------------------------------------------------------ #
    # function body walk
    # ------------------------------------------------------------------ #

    def walk_all(self) -> None:
        for fn in self.index.functions.values():
            self.declared[fn.qualname] = self._declared_guards(fn)
            locals_locks = self._prescan_locals(fn)
            self._walk_block(fn, fn.node.body, {}, locals_locks)

    def _walk_block(self, fn: FunctionInfo, stmts: Iterable[ast.stmt],
                    held: dict[str, str],
                    locals_locks: dict[str, tuple[str, str]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes run under their own discipline
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = dict(held)
                for item in stmt.items:
                    self._visit_exprs(fn, item.context_expr, inner)
                    lock = self._classify_lock(fn, item.context_expr,
                                               locals_locks)
                    if lock is not None:
                        key, mode = lock
                        self.acquires.append(_Acquire(
                            fn.qualname, key, item.context_expr.lineno,
                            dict(inner)))
                        if key not in inner:
                            inner[key] = mode
                self._walk_block(fn, stmt.body, inner, locals_locks)
            elif isinstance(stmt, ast.If):
                self._visit_exprs(fn, stmt.test, held)
                self._walk_block(fn, stmt.body, dict(held), locals_locks)
                self._walk_block(fn, stmt.orelse, dict(held), locals_locks)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._visit_exprs(fn, stmt.iter, held)
                self._walk_block(fn, stmt.body, dict(held), locals_locks)
                self._walk_block(fn, stmt.orelse, dict(held), locals_locks)
            elif isinstance(stmt, ast.While):
                self._visit_exprs(fn, stmt.test, held)
                self._walk_block(fn, stmt.body, dict(held), locals_locks)
                self._walk_block(fn, stmt.orelse, dict(held), locals_locks)
            elif isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
                self._walk_block(fn, stmt.body, dict(held), locals_locks)
                for handler in stmt.handlers:
                    self._walk_block(fn, handler.body, dict(held), locals_locks)
                self._walk_block(fn, stmt.orelse, dict(held), locals_locks)
                self._walk_block(fn, stmt.finalbody, dict(held), locals_locks)
            else:
                self._record_mutations(fn, stmt, held)
                self._visit_exprs(fn, stmt, held)

    def _record_mutations(self, fn: FunctionInfo, stmt: ast.stmt,
                          held: dict[str, str]) -> None:
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
                       held: dict[str, str]) -> None:
        if fn.cls is None or fn.is_init:
            return
        guard = self.guards.get((fn.cls, attr))
        if guard is not None:
            self.mutations.append(_Mutation(fn.qualname, attr, guard, line,
                                            dict(held)))

    def _visit_exprs(self, fn: FunctionInfo, node: ast.AST,
                     held: dict[str, str]) -> None:
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
                                            current.lineno, dict(held),
                                            blocking))

    # ------------------------------------------------------------------ #
    # fixpoints
    # ------------------------------------------------------------------ #

    def solve(self) -> None:
        callers: dict[str, list[_CallSite]] = {}
        for site in self.calls:
            for callee in site.callees:
                callers.setdefault(callee, []).append(site)
        names = list(self.index.functions)
        self.entry = {name: {g: "excl" for g in self.declared.get(name, ())}
                      for name in names}
        # Entry contexts: least fixpoint of "intersection over call sites".
        for _ in range(20):
            changed = False
            for name in names:
                sites = callers.get(name)
                new = {g: "excl" for g in self.declared.get(name, ())}
                if sites:
                    merged = None
                    for site in sites:
                        held = _merge_held(self.entry.get(site.fn, {}),
                                           site.lex_held)
                        if merged is None:
                            merged = dict(held)
                        else:
                            merged = {
                                k: _merge_mode(merged[k], held[k])
                                for k in merged.keys() & held.keys()
                            }
                    for key, mode in (merged or {}).items():
                        new.setdefault(key, mode)
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

        def emit(fn: str, line: int, code: str, message: str) -> None:
            mark = (locate[fn], line, code)
            if mark not in seen:
                seen.add(mark)
                out.append(Violation(locate[fn], line, code, message))

        for acq in self.acquires:
            held = _merge_held(self.entry.get(acq.fn, {}), acq.lex_held)
            if acq.key in held:
                if acq.key not in REENTRANT:
                    emit(acq.fn, acq.line, "QB401",
                         f"non-reentrant lock '{acq.key}' is re-acquired "
                         f"while already held by this thread")
                continue
            for other in acq.lex_held.keys() | self.entry.get(acq.fn, {}).keys():
                if other != acq.key and _rank(acq.key) < _rank(other):
                    emit(acq.fn, acq.line, "QB401",
                         f"'{acq.key}' is acquired while '{other}' is held, "
                         f"against the declared order ({_HIERARCHY_DOC})")

        for site in self.calls:
            held = _merge_held(self.entry.get(site.fn, {}), site.lex_held)
            for callee in sorted(site.callees):
                for guard in sorted(self.declared.get(callee, ())):
                    if guard not in held:
                        code = "QB421" if guard == "txn" else "QB412"
                        need = ("an open WAL transaction scope"
                                if guard == "txn" else f"'{guard}' held")
                        emit(site.fn, site.line, code,
                             f"{_short(callee)} is @guarded_by({guard!r}) "
                             f"but is called here without {need}")
                for key in sorted(self.may_acquire.get(callee, ()) - held.keys()):
                    for other in held:
                        if _rank(key) < _rank(other):
                            emit(site.fn, site.line, "QB401",
                                 f"call to {_short(callee)} may acquire "
                                 f"'{key}' while '{other}' is held, against "
                                 f"the declared order ({_HIERARCHY_DOC})")
            blocking = site.blocking or next(
                (f"call to {_short(c)}" for c in sorted(site.callees)
                 if c in self.blocks), None)
            if blocking:
                for key, mode in held.items():
                    if key == "txn" or (key == "db.rwlock" and mode == "write"):
                        emit(site.fn, site.line, "QB422",
                             f"potentially blocking {blocking} while "
                             f"exclusive '{key}' is held")
                        break

        for mut in self.mutations:
            held = _merge_held(self.entry.get(mut.fn, {}), mut.lex_held)
            if mut.guard not in held:
                if mut.guard == "txn":
                    emit(mut.fn, mut.line, "QB421",
                         f"'{mut.attr}' is transaction-scoped state "
                         f"(guarded_by: txn) but is mutated here outside any "
                         f"WAL transaction scope")
                else:
                    emit(mut.fn, mut.line, "QB411",
                         f"'{mut.attr}' is guarded by '{mut.guard}' but is "
                         f"mutated here without it held")
        return out


# --------------------------------------------------------------------- #
# small syntactic helpers
# --------------------------------------------------------------------- #


def _is_rwlock(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in RWLOCK_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in RWLOCK_NAMES
    return False


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
