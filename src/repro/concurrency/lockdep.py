"""A lockdep-style runtime lock-order sanitizer.

Linux's lockdep made one observation that this module reimplements in
~200 lines: you do not need to *hit* a deadlock to prove one is possible.
It is enough to record, per thread, the order in which lock **classes**
are acquired.  Every "acquired B while holding A" event adds the edge
``A → B`` to a process-wide graph; the first edge that closes a cycle —
even if the two orders happened minutes apart, on threads that never
contended — is reported as a potential deadlock.  The classic ABBA bug is
caught on the second leg, deterministically, without any unlucky
interleaving.

The witness checks cycles and non-reentrant recursion only.  The declared
lock hierarchy (ARCHITECTURE.md, "The lock hierarchy") is checked
statically, by qblint's QB401; an inversion of it that runs closes a
cycle here as well.

The witness is off until :func:`enable` is called; the test suite's
conftest turns it on before it builds anything.  Production, the
benchmarks and the ledger never call it, so there :func:`instrument`
returns the lock unwrapped and an acquisition costs nothing extra.

Violations are recorded in a process-wide list (:func:`violations`) *and*
raised — :class:`~repro.errors.LockOrderError` for recursive plain-lock
acquisition, :class:`~repro.errors.PotentialDeadlockError` for cycles —
so a violation inside a worker whose exceptions are shipped to a future
still fails the run via the list.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import LockOrderError, PotentialDeadlockError

__all__ = [
    "LockOrderViolation",
    "TrackedLock",
    "enable",
    "disable",
    "enabled",
    "instrument",
    "note_acquire",
    "note_release",
    "held_keys",
    "acquire_count",
    "edges",
    "violations",
]

_ENABLED = False

#: guards the edge graph and violation list — a leaf mutex that is never
#: held while acquiring any tracked lock
_GRAPH_LOCK = threading.Lock()
_EDGES: dict[tuple[str, str], int] = {}
_ADJACENCY: dict[str, set[str]] = {}
_VIOLATIONS: list["LockOrderViolation"] = []
_ACQUIRES: dict[str, int] = {}  # key -> total acquisitions

_HELD = threading.local()  # per-thread list of keys, in acquisition order


@dataclass(frozen=True)
class LockOrderViolation:
    """One recorded ordering problem (also raised at the offending site)."""

    kind: str                       #: ``"cycle"`` or ``"recursion"``
    key: str                        #: the key being acquired
    held: tuple[str, ...]           #: keys the thread already held
    thread: str                     #: name of the acquiring thread
    cycle: tuple[str, ...] = ()     #: the closed cycle, for ``kind == "cycle"``
    message: str = field(default="", compare=False)

    def __str__(self) -> str:
        return self.message or f"{self.kind}: {self.key} while holding {self.held}"


def enable() -> None:
    """Turn the witness on (idempotent)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn the witness off; recorded edges and violations stay."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Is the witness currently recording acquisitions?"""
    return _ENABLED


def _stack() -> list[str]:
    stack = getattr(_HELD, "stack", None)
    if stack is None:
        stack = _HELD.stack = []
    return stack


def held_keys() -> tuple[str, ...]:
    """Keys the calling thread currently holds, outermost first."""
    return tuple(_stack())


def _find_path(start: str, goal: str) -> tuple[str, ...]:
    """BFS in the edge graph; the path start→…→goal, or () if none.

    Called with ``_GRAPH_LOCK`` held.
    """
    if start == goal:
        return (start,)
    frontier = [(start,)]
    seen = {start}
    while frontier:
        path = frontier.pop(0)
        for nxt in _ADJACENCY.get(path[-1], ()):
            if nxt == goal:
                return path + (nxt,)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(path + (nxt,))
    return ()


def _record(violation: LockOrderViolation) -> None:
    _VIOLATIONS.append(violation)


def note_acquire(key: str, reentrant: bool = False) -> None:
    """Record that the calling thread acquired the lock class ``key``.

    Call *after* the underlying acquisition succeeds.  Raises on a
    recursive non-reentrant acquisition or an edge that closes a cycle;
    callers that cannot tolerate an exception mid-protocol must release
    the underlying lock before re-raising (see :class:`TrackedLock`).
    """
    if not _ENABLED:
        return
    with _GRAPH_LOCK:
        _ACQUIRES[key] = _ACQUIRES.get(key, 0) + 1
    stack = _stack()
    me = threading.current_thread().name
    if key in stack:
        if not reentrant:
            # Not pushed: the caller unwinds the underlying acquisition.
            with _GRAPH_LOCK:
                violation = LockOrderViolation(
                    kind="recursion", key=key, held=tuple(stack), thread=me,
                    message=(f"recursive acquisition of non-reentrant lock "
                             f"class {key!r} on thread {me}"),
                )
                _record(violation)
            raise LockOrderError(str(violation))
        stack.append(key)
        return
    error: PotentialDeadlockError | None = None
    with _GRAPH_LOCK:
        for holder in dict.fromkeys(stack):  # unique, order-preserving
            edge = (holder, key)
            if edge in _EDGES:
                _EDGES[edge] += 1
                continue
            # A path key ~> holder plus this new edge holder -> key is a
            # cycle: both orders have now been observed.
            path = _find_path(key, holder)
            if path:
                violation = LockOrderViolation(
                    kind="cycle", key=key, held=tuple(stack), thread=me,
                    cycle=path + (key,),
                    message=(
                        f"potential deadlock on thread {me}: acquiring "
                        f"{key!r} while holding {holder!r} closes the cycle "
                        + " -> ".join(path + (key,))
                    ),
                )
                _record(violation)
                error = error or PotentialDeadlockError(str(violation))
            else:
                # Violating edges stay out of the graph: the caller rolls
                # the acquisition back, so the order was never really
                # established — and every later occurrence raises again
                # instead of passing as a "known" edge.
                _EDGES[edge] = 1
                _ADJACENCY.setdefault(holder, set()).add(key)
    if error is not None:
        # Not pushed: the caller unwinds the underlying acquisition.
        raise error
    stack.append(key)


def note_release(key: str) -> None:
    """Record that the calling thread released one hold of ``key``."""
    if not _ENABLED:
        return
    stack = _stack()
    # Remove the innermost hold; tolerate enabling mid-stream (a release
    # of a lock acquired before enable() finds no entry).
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] == key:
            del stack[i]
            return


def acquire_count(key: str) -> int:
    """Total recorded acquisitions of ``key`` in this process.

    Counts every :func:`note_acquire` call (re-entrant holds included),
    across all threads.  Tests use the delta around a critical section to
    assert a lock is *not* taken on a hot path — e.g. that a pinned-
    snapshot SELECT performs zero ``db.rwlock`` acquisitions.
    """
    with _GRAPH_LOCK:
        return _ACQUIRES.get(key, 0)


def edges() -> dict[tuple[str, str], int]:
    """A snapshot of the acquisition-order graph (edge → observation count)."""
    with _GRAPH_LOCK:
        return dict(_EDGES)


def violations() -> list[LockOrderViolation]:
    """Every violation recorded in this process."""
    with _GRAPH_LOCK:
        return list(_VIOLATIONS)


class TrackedLock:
    """A mutex wrapper feeding acquisitions to the lockdep graph.

    Wraps a ``threading.Lock`` / ``RLock`` (anything with ``acquire`` /
    ``release``).  If :func:`note_acquire` raises, the underlying lock is
    released first so the protocol stays consistent — the exception then
    propagates to the caller, whose ``with`` block never runs.
    """

    __slots__ = ("_lock", "key", "reentrant")

    def __init__(self, lock, key: str, reentrant: bool = False):
        self._lock = lock
        self.key = key
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the wrapped lock, then record the edge."""
        got = self._lock.acquire(blocking, timeout)
        if got:
            try:
                note_acquire(self.key, reentrant=self.reentrant)
            # Cleanup-and-reraise: whatever the witness throws, the caller
            # must not be left holding an unrecorded lock.
            except BaseException:  # qblint: disable=no-broad-except
                self._lock.release()
                raise
        return got

    def release(self) -> None:
        """Release the wrapped lock and pop it from this thread's stack."""
        note_release(self.key)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def locked(self) -> bool:
        """Passthrough of the wrapped lock's ``locked()``."""
        return self._lock.locked()

    def __repr__(self) -> str:
        return f"TrackedLock({self.key!r}, {self._lock!r})"


def instrument(lock, key: str, reentrant: bool = False):
    """Wrap ``lock`` for lockdep tracking — if the witness is enabled.

    Called at lock construction time.  While lockdep is disabled this
    returns ``lock`` itself, so uninstrumented processes pay nothing;
    objects constructed after :func:`enable` get tracked locks.
    """
    if not _ENABLED:
        return lock
    return TrackedLock(lock, key, reentrant=reentrant)
