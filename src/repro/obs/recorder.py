"""Flight recorder: an always-on ring of recent statements plus incidents.

The paper accounts for every second of a query (Table 3); a production
service owes itself the same.  The :class:`FlightRecorder` keeps a bounded
ring of completed statements (:class:`QueryRecord`: SQL, digest, session,
rows, page I/Os, cache hit, pool wait, wall time and where it went) and
*dumps on trigger*: a slow statement, one that raised, or a WAL recovery
each produce a JSON **incident report** (the trigger, the ring, a metrics
snapshot).

Where the time went is a **phase cursor** on the statement scope: the
scope is always in exactly one of :data:`PHASES` (the benchmark ledger's
layer names plus ``lock_wait``), and every transition (:func:`enter` /
:func:`leave`, around the calls the ledger brackets from outside) charges
the time since the previous one to the phase being left — so the phases
are exclusive and sum to the wall time by construction.  Time outside
every bracket is the owner's: ``server`` for a served statement,
``db.database`` for a direct one.

Recording is on by default and cheap: one thread-local read finds the
scope, a deque append retires the record, and the digest table folds it
later, in a batch (:mod:`repro.obs.digest`); ``benchmarks/obs_cost.py``
measures what it costs.  It never touches
:class:`~repro.storage.device.IOStats` counters (it copies deltas handed
to it), so the Table 3/4 page accounting is identical on or off.

Nesting contract: the *outermost* scope on a thread owns the record.  The
serving layer opens a scope on the thread running the statement (session,
pool wait, cache hits) and :meth:`Database.execute <repro.db.database.
Database.execute>` opens one unconditionally — nested, it annotates the
outer record instead of emitting a second one.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import digest as digest_mod
from repro.obs import metrics, qlog

__all__ = [
    "PHASES",
    "QueryRecord",
    "FlightRecorder",
    "get_recorder",
    "statement",
    "enter",
    "leave",
    "charged",
    "incident",
    "enable",
    "disable",
    "reset",
]

#: where a statement's wall time can go: the ledger's layer names
#: (``benchmarks/ledger/tracing.py::LAYERS``) plus the write-lock wait
PHASES = ("server", "db.database", "db.sql", "db.semantic", "db.planner",
          "db.executor", "db.functions", "storage.lfm", "db.mvcc",
          "storage.wal", "net", "lock_wait")


def _short_repr(value) -> str:
    """At most 80 characters of ``repr(value)``, without building the
    repr of a multi-megabyte string or blob first."""
    if isinstance(value, (str, bytes, bytearray)):
        value = value[:80]
    return repr(value)[:80]


@dataclass(slots=True)
class QueryRecord:
    """One completed statement, as the flight recorder remembers it."""

    sql: str
    trace: int = 0                   #: trace number; 0 = never opened
    session: str | None = None
    kind: str | None = None          #: "read" / "write" / "explain"
    ok: bool = True
    error: str | None = None
    rows: int = 0
    pages_read: int = 0
    pages_written: int = 0
    bytes_read: int = 0
    cache_hit: bool = False          #: served from the result cache
    pool_wait_seconds: float = 0.0   #: admission-queue time (served only)
    wall_seconds: float = 0.0
    #: exclusive seconds per :data:`PHASES` name; sums to ``wall_seconds``
    phases: dict = field(default_factory=dict)
    started_unix: float = 0.0        #: wall-clock start (epoch seconds)
    params: tuple = ()               #: reprs of bound parameters, truncated
    #: literal-free statement text and its fingerprint (``Prepared.shape``
    #: / ``.digest``), noted by whoever parsed; None when nothing did
    shape: str | None = None
    digest: str | None = None

    @property
    def trace_id(self) -> str | None:
        """The trace this statement belongs to, as exported."""
        return f"trace-{self.trace:08d}" if self.trace else None

    def to_dict(self) -> dict:
        """The record as a JSON-ready dict (stable key set)."""
        return {
            "sql": self.sql,
            "digest": self.digest,
            "trace_id": self.trace_id,
            "session": self.session,
            "kind": self.kind,
            "ok": self.ok,
            "error": self.error,
            "rows": self.rows,
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "bytes_read": self.bytes_read,
            "cache_hit": self.cache_hit,
            "pool_wait_ms": round(self.pool_wait_seconds * 1e3, 3),
            "wall_ms": round(self.wall_seconds * 1e3, 3),
            "phases_ms": {name: round(seconds * 1e3, 3)
                          for name, seconds in self.phases.items() if seconds},
            "started_unix": self.started_unix,
            "params": list(self.params),
        }


class _NoopScope:
    """Shared scope while recording is disabled: every operation no-ops."""

    __slots__ = ()
    active = False

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **fields) -> None:
        """Ignore annotations while recording is disabled."""


_NOOP_SCOPE = _NoopScope()


class _Active(threading.local):
    """This thread's innermost owning statement scope; the class default
    makes "no statement open" one attribute read."""

    scope: "_StatementScope | None" = None


_ACTIVE = _Active()


def enter(name: str) -> str | None:
    """Move this thread's open statement into phase ``name`` (one of
    :data:`PHASES`); returns the phase it was in, for :func:`leave` —
    ``None``, and nothing done, when no statement is open."""
    scope = _ACTIVE.scope
    return None if scope is None else scope.switch(name)


def leave(was: str | None) -> None:
    """Move the statement back to the phase :func:`enter` returned."""
    if was is not None:
        _ACTIVE.scope.switch(was)


def charged() -> dict | None:
    """The owning record's phases, charged up to now (a copy), of this
    thread's open statement; None when no statement is open."""
    scope = _ACTIVE.scope
    if scope is None:
        return None
    scope.switch(scope._phase)
    return dict(scope.record.phases)


#: process-wide trace number source (``next()`` is atomic in CPython;
#: numbers only need to be unique, not dense)
_TRACE_IDS = itertools.count(1)

_ERRORS = metrics.counter("recorder.errors")
_INCIDENTS = metrics.counter("recorder.incidents")


class _StatementScope:
    """Context manager covering one statement; the outermost scope emits."""

    __slots__ = ("_recorder", "_root", "_outer", "_start", "_phase", "_mark",
                 "record")

    active = True

    def __init__(self, recorder: "FlightRecorder", record: QueryRecord,
                 own: bool):
        self._recorder = recorder
        self._root = own
        # What no bracket claims is the owner's: the serving layer opens
        # its scopes with ``own``, Database.execute does not.
        self._phase = "server" if own else "db.database"
        self.record = record

    def switch(self, name: str) -> str:
        """Charge the time since the last transition to the phase being
        left and make ``name`` current; returns the phase left."""
        now = time.perf_counter()
        was, phases = self._phase, self.record.phases
        phases[was] = phases.get(was, 0.0) + now - self._mark
        self._phase, self._mark = name, now
        return was

    def note(self, *, rows: int | None = None, io=None,
             kind: str | None = None, params=None,
             shape: str | None = None,
             digest: str | None = None) -> None:
        """Annotate the owning record (outermost scope wins on conflicts).

        ``io`` is an :class:`~repro.storage.device.IOStats` delta; only
        its counters are copied, the object is never mutated.
        """
        target = _ACTIVE.scope
        record = target.record if target is not None else self.record
        if rows is not None:
            record.rows = rows
        if io is not None:
            # These are QueryRecord fields, not live IOStats counters: the
            # delta's values are copied out, never written back.
            record.pages_read = io.pages_read        # qblint: disable=no-direct-iostats-mutation
            record.pages_written = io.pages_written  # qblint: disable=no-direct-iostats-mutation
            record.bytes_read = io.bytes_read        # qblint: disable=no-direct-iostats-mutation
        if kind is not None:
            record.kind = kind
        if params is not None:
            record.params = tuple(_short_repr(p) for p in params)
        if shape is not None:
            record.shape, record.digest = shape, digest

    def __enter__(self) -> "_StatementScope":
        outer = self._outer = _ACTIVE.scope
        if self._root or outer is None:
            self._root = True
            _ACTIVE.scope = self
            # A root statement starts a trace; a served statement issued
            # under another (a UDF's) joins its caller's.
            record = self.record
            record.trace = (next(_TRACE_IDS) if outer is None
                            else outer.record.trace)
            record.started_unix = time.time()
            self._start = self._mark = time.perf_counter()
        else:
            # Nested under the serving layer's scope, this one owns
            # nothing: its notes and its time land on the outer record,
            # and ``_phase`` keeps the outer phase to go back to.
            self._phase = self._outer.switch(self._phase)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._root:
            self._outer.switch(self._phase)
            return False
        _ACTIVE.scope = self._outer
        record = self.record
        self.switch(self._phase)  # the tail, and the clock reading it ends on
        record.wall_seconds = self._mark - self._start
        if exc is not None:
            record.ok = False
            record.error = f"{type(exc).__name__}: {exc}"
        self._recorder._finish(record)
        return False


class FlightRecorder:
    """Bounded ring of completed statements with dump-on-trigger incidents."""

    def __init__(self, capacity: int = 512, incident_capacity: int = 32):
        self.enabled = True
        self.capacity = capacity
        # Appended without the lock (a deque append is atomic); the lock
        # covers reading it whole and replacing it.
        self._ring: deque[QueryRecord] = deque(maxlen=capacity)
        self._incidents: deque[dict] = deque(maxlen=incident_capacity)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        #: wall seconds at which a statement is slow — a ``query.slow``
        #: incident and a line in a slow-only query log (None = never)
        self.slow_threshold_seconds: float | None = None
        #: when set, every incident is also written here as a JSON file
        self.incident_dir: Path | None = None
        #: records retired, ever (``recorder.records`` reads it)
        self._retired = metrics.Counter("recorder.records")
        self._retired_before_reset = 0

    @property
    def recorded(self) -> int:
        """Records retired since the last :meth:`reset`."""
        return self._retired.value - self._retired_before_reset


    def statement(self, sql: str, *, session: str | None = None,
                  own: bool = False, pool_wait_seconds: float = 0.0,
                  params=None):
        """A scope covering one statement's execution.

        The outermost scope on a thread owns the record; a nested one
        (``Database.execute`` under the serving layer) annotates it via
        :meth:`_StatementScope.note` — unless opened with ``own`` (a
        served statement), which emits its own record.  An owner passes
        its ``pool_wait_seconds`` and ``params`` here.
        """
        if not self.enabled:
            return _NOOP_SCOPE
        record = QueryRecord(sql, session=session,
                             pool_wait_seconds=pool_wait_seconds)
        if params:
            record.params = tuple(_short_repr(p) for p in params)
        return _StatementScope(self, record, own)

    def _finish(self, record: QueryRecord) -> None:
        self._ring.append(record)
        self._retired.inc()
        # Digest table and query log are sinks of the same record.
        digest_mod.observe(record)
        threshold = self.slow_threshold_seconds
        slow = threshold is not None and record.wall_seconds >= threshold
        qlog.get_query_log().emit(record, slow)
        if not record.ok:
            _ERRORS.inc()
            self.incident("query.error", trigger=record.to_dict())
        elif slow:
            self.incident("query.slow", trigger=record.to_dict())

    def recent(self, n: int = 50) -> list[QueryRecord]:
        """The newest ``n`` records, most recent first."""
        with self._lock:
            items = list(self._ring)
        return list(reversed(items))[:max(0, n)]


    def incident(self, reason: str, trigger: dict | None = None) -> dict:
        """Dump the recorder into a self-contained JSON incident report.

        ``reason`` names the trigger (``query.slow``, ``query.error``,
        ``wal.recovery``); ``trigger`` carries its specifics.  The report
        bundles the ring contents and a metrics snapshot, so it can be
        read (or shipped) without access to the live process.
        """
        report = {
            "incident": next(self._seq),
            "reason": reason,
            "created_unix": time.time(),
            "trigger": trigger or {},
            "recent_queries": [r.to_dict() for r in self.recent(self.capacity)],
            "digests": digest_mod.get_table().top(10),
            "metrics": metrics.snapshot(),
        }
        with self._lock:
            self._incidents.append(report)
        _INCIDENTS.inc()
        directory = self.incident_dir
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            name = f"incident-{report['incident']:04d}-{reason.replace('.', '-')}.json"
            (directory / name).write_text(json.dumps(report, indent=2) + "\n")
        return report

    def incidents(self) -> list[dict]:
        """Every retained incident report, oldest first."""
        with self._lock:
            return list(self._incidents)


    def resize(self, capacity: int) -> None:
        """Change how many records the ring keeps (the newest survive)."""
        with self._lock:
            self.capacity = capacity
            self._ring = deque(self._ring, maxlen=capacity)

    def reset(self) -> None:
        """Drop records and incidents (thresholds and sizing are untouched)."""
        with self._lock:
            self._ring.clear()
            self._incidents.clear()
        self._retired_before_reset = self._retired.value

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"FlightRecorder({state}, {len(self._ring)}/{self.capacity} "
            f"records, {len(self._incidents)} incidents)"
        )


_RECORDER = FlightRecorder()
metrics.derived("recorder.records", metrics.Counter,
                lambda: _RECORDER._retired.value)


def get_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _RECORDER


#: open a statement scope on the process-wide recorder
statement = _RECORDER.statement


def incident(reason: str, trigger: dict | None = None) -> dict:
    """Emit an incident report on the process-wide recorder."""
    return _RECORDER.incident(reason, trigger=trigger)


def enable() -> FlightRecorder:
    """Turn recording on (the default); returns the recorder."""
    _RECORDER.enabled = True
    return _RECORDER


def disable() -> None:
    """Turn recording off (kept records remain until :func:`reset`)."""
    _RECORDER.enabled = False


def reset() -> None:
    """Clear the process-wide recorder's records and incidents."""
    _RECORDER.reset()
