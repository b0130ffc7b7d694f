"""Hierarchical trace spans for the whole pipeline of Figure 7.

A span covers one named stage (``lfm.read_ranges``, ``executor.select``,
``dx.render``...) and records three things when it closes:

* **wall seconds** — real elapsed time of this implementation;
* **simulated seconds** — what the calibrated
  :class:`~repro.net.costmodel.CostModel1994` says the 1994 testbed would
  have spent (derived from the span's I/O delta unless the instrumented
  site supplies a better stage model);
* **an I/O delta** — the :class:`~repro.storage.device.IOStats` movement of
  whatever counter object the site passed as ``io=``.

Tracing is **off by default** and the disabled path is a single flag check
returning a shared no-op span, so instrumented code performs no clock
reads, no stat snapshots, and — critically — no storage I/O of its own:
the Table 3/4 page counts are bit-identical with the layer on or off (the
recorder only ever *reads* counters; qblint's ``no-direct-iostats-mutation``
rule keeps it that way).

Spans form **trees**.  Every span carries a ``trace_id`` (the statement
it belongs to), a process-unique ``span_id``, and its ``parent_id``;
parentage follows nesting on the thread that opened them, which for a
served statement is the caller's own — the serving layer runs every
statement there.  A statement binds its trace id (and session) to the
thread with :func:`attach`: a root span opened inside takes that trace,
and a statement issued under an open span joins the open span's trace,
so one query yields one tree.  Binding works even while span recording
is disabled (a thread-local attribute write), which is what gives the
flight recorder its always-on ``trace_id``.

The per-thread state (open-span stack, bound context) lives in a
``threading.local``; the shared record list is appended under a mutex, so
concurrent sessions can trace simultaneously without corrupting each
other's trees — :func:`span_trees` reassembles them by parentage.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "SpanRecord",
    "SpanTree",
    "TraceContext",
    "Tracer",
    "get_tracer",
    "span",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "records",
    "capture",
    "render_text",
    "new_trace_id",
    "current_context",
    "current_trace_id",
    "attach",
    "span_trees",
]

#: process-wide id sources (``next()`` is atomic in CPython; ids only need
#: to be unique, not dense)
_TRACE_IDS = itertools.count(1)
_SPAN_IDS = itertools.count(1)


def new_trace_id() -> str:
    """A fresh, process-unique trace id (one per served statement)."""
    return f"trace-{next(_TRACE_IDS):08d}"


class TraceContext(NamedTuple):
    """The statement a thread is running, as :func:`attach` binds it."""

    trace_id: str
    #: session name, stamped onto every span opened under this context
    session: str | None = None


@dataclass
class SpanRecord:
    """One completed (or still-open) span, in start order."""

    name: str
    depth: int
    wall_seconds: float = 0.0
    #: ``time.perf_counter()`` at span open — timeline position; only
    #: deltas between spans of one capture are meaningful
    start_perf: float = 0.0
    #: CostModel1994 elapsed time for the work this span covered
    sim_seconds: float = 0.0
    #: IOStats delta over the span, when the site passed an ``io=`` source
    io: object | None = None
    meta: dict = field(default_factory=dict)
    #: the statement tree this span belongs to (roots mint their own)
    trace_id: str | None = None
    #: process-unique id, assigned when the span opens
    span_id: int = 0
    #: the enclosing span (same or another thread); None for roots
    parent_id: int | None = None

    def format(self) -> str:
        """Render the span as an indented text line."""
        parts = [f"{self.name}  wall={self.wall_seconds * 1e3:.3f} ms"]
        if self.sim_seconds:
            parts.append(f"sim={self.sim_seconds:.3f} s")
        if self.io is not None:
            parts.append(
                f"io={self.io.pages_read}r/{self.io.pages_written}w pages"
            )
        parts.extend(f"{k}={v}" for k, v in self.meta.items())
        return "  ".join(parts)

    def to_dict(self, origin: float = 0.0) -> dict:
        """The span as a JSON-ready dict; ``start_us`` counts from
        ``origin`` (a ``start_perf`` reading, e.g. the trace's first)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": round((self.start_perf - origin) * 1e6, 3),
            "wall_us": round(self.wall_seconds * 1e6, 3),
            "pages_read": self.io.pages_read if self.io is not None else None,
            "pages_written": (self.io.pages_written
                              if self.io is not None else None),
            "meta": {str(k): v for k, v in self.meta.items()},
        }


class _NoopSpan:
    """The shared disabled span: every operation is a no-op."""

    __slots__ = ()
    active = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **meta) -> None:
        """Ignore annotations while tracing is disabled."""

    def set_sim_seconds(self, seconds: float) -> None:
        """Ignore the simulated-time override while tracing is disabled."""


_NOOP = _NoopSpan()


class _Span:
    """A live span; created only while the tracer is enabled."""

    __slots__ = ("_tracer", "_io_source", "_io_before", "_start", "_sim", "record")

    active = True

    def __init__(self, tracer: "Tracer", name: str, io_source, meta: dict):
        self._tracer = tracer
        self._io_source = io_source
        self._io_before = None
        self._sim: float | None = None
        self.record = SpanRecord(name=name, depth=0, meta=meta)

    def note(self, **meta) -> None:
        """Attach extra key/value annotations to the span."""
        self.record.meta.update(meta)

    def set_sim_seconds(self, seconds: float) -> None:
        """Override the simulated elapsed time (stage-specific cost model)."""
        self._sim = float(seconds)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        local = tracer._local
        record = self.record
        ctx = local.ctx
        record.span_id = next(_SPAN_IDS)
        if local.stack:
            record.parent_id = local.stack[-1]
            record.trace_id = local.trace_id
        else:  # a root: of the bound statement's trace, else standalone
            record.trace_id = (ctx.trace_id if ctx is not None
                               else new_trace_id())
            local.trace_id = record.trace_id
        record.depth = len(local.stack)
        if ctx is not None and ctx.session is not None:
            record.meta.setdefault("session", ctx.session)
        with tracer._lock:
            tracer.records.append(record)  # start order = forest pre-order
        local.stack.append(record.span_id)
        if self._io_source is not None:
            self._io_before = self._io_source.copy()
        self._start = record.start_perf = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        record = self.record
        record.wall_seconds = time.perf_counter() - self._start
        if self._io_source is not None:
            record.io = self._io_source - self._io_before
        if self._sim is not None:
            record.sim_seconds = self._sim
        elif record.io is not None:
            record.sim_seconds = self._tracer.simulated_io_seconds(record.io)
        local = self._tracer._local
        if local.stack and local.stack[-1] == record.span_id:
            local.stack.pop()
        elif record.span_id in local.stack:  # tolerate out-of-order exits
            local.stack.remove(record.span_id)
        if not local.stack:
            local.trace_id = None
        return False


class _ThreadState(threading.local):
    """Per-thread trace position: bound context, open spans."""

    def __init__(self) -> None:  # called once per thread by threading.local
        self.ctx: TraceContext | None = None
        self.stack: list[int] = []
        self.trace_id: str | None = None


class Tracer:
    """A span recorder; the module-level singleton serves the whole process."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._cost_model = None

    @property
    def cost_model(self):
        """The :class:`CostModel1994` used to simulate span times (lazy)."""
        if self._cost_model is None:
            from repro.net.costmodel import CostModel1994

            self._cost_model = CostModel1994()
        return self._cost_model

    def simulated_io_seconds(self, io) -> float:
        """Modeled 1994 elapsed time for an I/O delta (unbuffered page I/O)."""
        return self.cost_model.seconds_per_page_io * (
            io.pages_read + io.pages_written
        )

    def span(self, name: str, io=None, **meta):
        """A context manager covering one stage.

        ``io`` is any object with ``copy()`` and ``__sub__`` (an
        :class:`IOStats` or duck-compatible counter set) whose delta over
        the span should be recorded.  When tracing is disabled this returns
        the shared no-op span immediately.
        """
        if not self.enabled:
            return _NOOP
        return _Span(self, name, io, meta)

    def current_context(self) -> TraceContext | None:
        """The context :meth:`attach` bound on this thread, if any."""
        return self._local.ctx

    @contextmanager
    def attach(self, ctx: TraceContext):
        """Bind ``ctx`` to this thread for the block.

        A root span opened inside joins trace ``ctx.trace_id``; spans
        nest under whatever is already open here, as always.  Cheap
        enough to run unconditionally (no clocks, no allocation beyond
        the restore slot), so the flight recorder gets trace ids even
        while span recording is off.
        """
        local = self._local
        saved, local.ctx = local.ctx, ctx
        try:
            yield ctx
        finally:
            local.ctx = saved

    def reset(self) -> None:
        """Drop every recorded span (the enabled flag is untouched)."""
        with self._lock:
            self.records.clear()
        local = self._local
        local.stack = []
        local.trace_id = None


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, io=None, **meta):
    """Open a span on the process-wide tracer (no-op while disabled)."""
    return _TRACER.span(name, io=io, **meta)


def enable() -> Tracer:
    """Turn tracing on; returns the tracer for convenience."""
    _TRACER.enabled = True
    return _TRACER


def disable() -> None:
    """Turn tracing off (recorded spans are kept until :func:`reset`)."""
    _TRACER.enabled = False


def is_enabled() -> bool:
    """Is tracing currently enabled?"""
    return _TRACER.enabled


def reset() -> None:
    """Clear the recorded spans on the process-wide tracer."""
    _TRACER.reset()


def records() -> list[SpanRecord]:
    """A copy of the recorded spans, in start order."""
    with _TRACER._lock:
        return list(_TRACER.records)


#: the context bound on this thread (see :meth:`Tracer.current_context`)
current_context = _TRACER.current_context


def current_trace_id() -> str | None:
    """The trace id active on this thread, if any (works while disabled)."""
    local = _TRACER._local
    if local.trace_id is not None:
        return local.trace_id
    return local.ctx.trace_id if local.ctx is not None else None


#: bind a statement's context to this thread (see :meth:`Tracer.attach`)
attach = _TRACER.attach


@contextmanager
def capture():
    """Enable tracing for a block; yields a list filled with its spans.

    The previous enabled state is restored on exit, so a ``capture()``
    inside an already-enabled session is harmless.
    """
    previous = _TRACER.enabled
    mark = len(_TRACER.records)
    _TRACER.enabled = True
    out: list[SpanRecord] = []
    try:
        yield out
    finally:
        _TRACER.enabled = previous
        with _TRACER._lock:
            out.extend(_TRACER.records[mark:])


@dataclass
class SpanTree:
    """One node of a reassembled trace tree."""

    record: SpanRecord
    children: list["SpanTree"] = field(default_factory=list)

    def walk(self):
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


def span_trees(spans: list[SpanRecord] | None = None) -> list[SpanTree]:
    """Reassemble span records into parentage trees (one per root).

    A served statement's spans nest on the one thread that ran it, so it
    comes back as exactly one tree.  A span whose parent is missing from ``spans`` becomes a
    root (the capture window clipped its ancestors).
    """
    spans = records() if spans is None else spans
    nodes = {s.span_id: SpanTree(s) for s in spans}
    roots: list[SpanTree] = []
    for s in spans:
        node = nodes[s.span_id]
        parent = nodes.get(s.parent_id) if s.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def render_text(spans: list[SpanRecord] | None = None) -> str:
    """The span list as an indented tree (start order, depth-indented)."""
    spans = records() if spans is None else spans
    return "\n".join("  " * s.depth + s.format() for s in spans)
