"""Spans measured from outside: timing wrappers around public entry points.

Only the traced run (``--trace 1``) uses this module.  :class:`Tracer`
replaces each entry point named in :data:`TARGETS` with a wrapper that
records a :class:`Span` in memory;
module-level functions are also replaced in every loaded ``repro``
namespace that imported them by value (``repro.db.database.parse``,
``repro.db.executor.plan_select``, ...).  :meth:`Tracer.uninstall`
restores every patched attribute, and :meth:`Tracer.survivors` proves it.

A span's *self time* is its duration minus the part its child spans
cover, so per op the layers' self times plus the op's own uncovered time
(``unattributed_ms``) add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: (span name, layer, "module:attr.path", kind).  Kinds: ``call`` (plain
#: function or method), ``cm`` (returns a context manager whose body the
#: span covers) and ``submit`` (WorkerPool.submit: carries the op across
#: the pool hop).  The layer is the module a later change would edit.
TARGETS = (
    ("core.query", "core", "repro.core.system:QbismSystem.query", "call"),
    ("core.multi_study_band", "core",
     "repro.core.system:QbismSystem.multi_study_band", "call"),
    ("medical.server.execute", "medical",
     "repro.medical.server:MedicalServer.execute", "call"),
    ("medical.server.band_consistency", "medical",
     "repro.medical.server:MedicalServer.band_consistency_region", "call"),
    ("medical.load_raw", "medical",
     "repro.medical.loader:MedicalLoader.load_raw_study", "call"),
    ("medical.warp", "medical",
     "repro.medical.loader:MedicalLoader.warp_study", "call"),
    ("db.sql.parse", "db.sql", "repro.db.sql.parser:parse", "call"),
    ("db.sql.unparse", "db.sql", "repro.db.sql.unparse:unparse", "call"),
    ("db.semantic.check", "db.semantic", "repro.db.semantic:check", "call"),
    ("db.planner.plan", "db.planner", "repro.db.planner:plan_select", "call"),
    ("db.executor.execute", "db.executor",
     "repro.db.executor:Executor.execute", "call"),
    ("db.functions.call", "db.functions",
     "repro.db.functions:FunctionRegistry.call", "call"),
    ("db.database.execute", "db.database",
     "repro.db.database:Database.execute", "call"),
    ("db.database.transaction", "db.database",
     "repro.db.database:Database.transaction", "cm"),
    ("db.database.pin_version", "db.database",
     "repro.db.database:Database.pin_version", "call"),
    ("db.mvcc.publish", "db.mvcc",
     "repro.db.mvcc:VersionManager.publish", "call"),
    ("storage.lfm.read", "storage.lfm",
     "repro.storage.lfm:LongFieldManager.read", "call"),
    ("storage.lfm.read_ranges", "storage.lfm",
     "repro.storage.lfm:LongFieldManager.read_ranges", "call"),
    # snapshot SELECTs read through the version's view, not the manager
    ("storage.lfm.read", "storage.lfm",
     "repro.storage.lfm:FieldTableView.read", "call"),
    ("storage.lfm.read_ranges", "storage.lfm",
     "repro.storage.lfm:FieldTableView.read_ranges", "call"),
    ("storage.lfm.create", "storage.lfm",
     "repro.storage.lfm:LongFieldManager.create", "call"),
    ("storage.wal.transaction", "storage.wal",
     "repro.storage.wal:WriteAheadLog.transaction", "cm"),
    ("storage.buddy.alloc", "storage.buddy",
     "repro.storage.buddy:BuddyAllocator.alloc", "call"),
    ("storage.buddy.free", "storage.buddy",
     "repro.storage.buddy:BuddyAllocator.free", "call"),
    ("regions.decode", "regions",
     "repro.regions.region:Region.from_bytes", "call"),
    ("regions.encode", "regions",
     "repro.regions.region:Region.to_bytes", "call"),
    ("regions.reorder", "regions",
     "repro.regions.region:Region.reorder", "call"),
    ("regions.sweep", "regions",
     "repro.regions.intervals:IntervalSet.sweep", "call"),
    ("volumes.data_region", "volumes",
     "repro.volumes.data_region:DataRegion.from_bytes", "call"),
    ("volumes.data_region", "volumes",
     "repro.volumes.data_region:DataRegion.to_bytes", "call"),
    ("volumes.data_region", "volumes",
     "repro.volumes.data_region:DataRegion.to_array", "call"),
    ("volumes.from_array", "volumes",
     "repro.volumes.volume:Volume.from_array", "call"),
    ("volumes.banding", "volumes",
     "repro.volumes.banding:uniform_bands", "call"),
    ("curves.transform", "curves",
     "repro.curves.hilbert:HilbertCurve.index", "call"),
    ("curves.transform", "curves",
     "repro.curves.hilbert:HilbertCurve.coords", "call"),
    ("curves.transform", "curves",
     "repro.curves.morton:MortonCurve.index", "call"),
    ("curves.transform", "curves",
     "repro.curves.morton:MortonCurve.coords", "call"),
    ("compression.encode", "compression",
     "repro.compression.runcodecs:NaiveRunCodec.encode", "call"),
    ("compression.encode", "compression",
     "repro.compression.runcodecs:EliasRunCodec.encode", "call"),
    ("compression.encode", "compression",
     "repro.compression.runcodecs:_OctantCodecBase.encode", "call"),
    ("compression.decode", "compression",
     "repro.compression.runcodecs:NaiveRunCodec.decode", "call"),
    ("compression.decode", "compression",
     "repro.compression.runcodecs:EliasRunCodec.decode", "call"),
    ("compression.decode", "compression",
     "repro.compression.runcodecs:_OctantCodecBase.decode", "call"),
    ("net.rpc.send", "net", "repro.net.rpc:RpcChannel.send", "call"),
    ("viz.import", "viz", "repro.viz.dx:DataExplorer.import_volume", "call"),
    ("viz.render", "viz", "repro.viz.dx:DataExplorer.render", "call"),
    ("server.session.execute", "server",
     "repro.server.session:Session.execute", "call"),
    ("server.pool.submit", "server",
     "repro.server.pool:WorkerPool.submit", "submit"),
    ("server.result_cache.get", "server",
     "repro.server.resultcache:ResultCache.get", "call"),
    ("server.result_cache.put", "server",
     "repro.server.resultcache:ResultCache.put", "call"),
    ("server.result_cache.invalidate", "server",
     "repro.server.resultcache:ResultCache.invalidate", "call"),
)

#: span name -> layer, plus the spans the harness and the pool hop add
LAYER_OF = {name: layer for name, layer, _, _ in TARGETS}
LAYER_OF.update({"op": None, "server.pool.wait": "server",
                 "server.pool.run": "server"})
LAYERS = tuple(dict.fromkeys(layer for _, layer, _, _ in TARGETS))


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None  #: id of the span that caused this one
    op: int | None      #: id of the op's root span; None between blocks
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _State(threading.local):
    cur = None  #: id of the innermost open span on this thread
    op = None   #: id of the op this thread is working for


class _SpanContext:
    """Covers a wrapped context manager from ``__enter__`` to ``__exit__``."""

    def __init__(self, tracer, name, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        self._token = self._tracer.begin()
        return self._inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.end(self._name, self._token)


class Tracer:
    """Installs the wrappers, holds the spans and the counted work."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._counts_lock = threading.Lock()
        self._state = _State()
        self._ids = itertools.count(1)
        self._patched: list[tuple[type, str, object]] = []  # class attrs
        self._functions: dict = {}  # wrapper -> original module function

    # -- recording ------------------------------------------------------ #

    def begin(self):
        state = self._state
        parent = state.cur
        sid = next(self._ids)
        state.cur = sid
        return sid, parent, time.perf_counter()

    def end(self, name, token):
        end = time.perf_counter()
        sid, parent, start = token
        state = self._state
        state.cur = parent
        self.spans.append(Span(sid, name, start, end, parent, state.op,
                               threading.get_ident()))

    def begin_op(self):
        """Open the root span of one benchmark op; its id is the op id."""
        token = self.begin()
        self._state.op = token[0]
        return token

    def end_op(self, token):
        self.end("op", token)
        self._state.op = None

    def count(self, **deltas):
        if self._state.op is None:
            return  # untimed work between blocks
        with self._counts_lock:
            for key, value in deltas.items():
                self.counts[key] += value

    # -- wrappers ------------------------------------------------------- #

    def _call_wrapper(self, orig, name, hook):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            token = begin()
            try:
                result = orig(*args, **kwargs)
            finally:
                end(name, token)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def _cm_wrapper(self, orig, name, hook):
        def wrapper(*args, **kwargs):
            return _SpanContext(self, name, orig(*args, **kwargs))

        wrapper.__wrapped__ = orig
        return wrapper

    def _submit_wrapper(self, orig, name, hook):
        """WorkerPool.submit: the task carries its op to the worker thread.

        On the worker, ``server.pool.wait`` spans the time in the queue
        and ``server.pool.run`` the task itself, both children of the span
        that submitted (``Session.execute``), so the client-observed time
        splits into queueing, execution and hand-back.
        """
        tracer = self

        def wrapper(pool, fn, *args):
            state = tracer._state
            parent, op = state.cur, state.op
            submitted = time.perf_counter()

            def carried(*task_args):
                worker = tracer._state
                started = time.perf_counter()
                tracer.spans.append(Span(next(tracer._ids), "server.pool.wait",
                                         submitted, started, parent, op,
                                         threading.get_ident()))
                worker.cur, worker.op = parent, op
                token = tracer.begin()
                try:
                    return fn(*task_args)
                finally:
                    tracer.end("server.pool.run", token)
                    worker.cur = worker.op = None

            token = tracer.begin()
            try:
                return orig(pool, carried, *args)
            finally:
                tracer.end(name, token)

        wrapper.__wrapped__ = orig
        return wrapper

    # -- install / uninstall -------------------------------------------- #

    def install(self):
        makers = {"call": self._call_wrapper, "cm": self._cm_wrapper,
                  "submit": self._submit_wrapper}
        # Load every target module first: one imported while patching would
        # bind an already-wrapped function by value, unseen by the scan below.
        for _name, _layer, path, _kind in TARGETS:
            importlib.import_module(path.split(":")[0])
        for name, _layer, path, kind in TARGETS:
            module_name, attr_path = path.split(":")
            owner = sys.modules[module_name]
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            binder = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            orig = raw.__func__ if binder else raw
            wrapper = makers[kind](orig, name, HOOKS.get(path))
            if parents:
                setattr(owner, attr, binder(wrapper) if binder else wrapper)
                self._patched.append((owner, attr, raw))
            else:
                self._functions[wrapper] = orig
                self._rebind(orig, wrapper)

    def _rebind(self, old, new):
        """Swap a module-level function in every namespace that imported it
        by value (``repro.db.database.parse``, ...)."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for attr, value in list(vars(mod).items()):
                    if value is old:
                        setattr(mod, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        # scanned again now: a module first imported during the traced
        # phase bound the wrapper, not the original
        for wrapper, orig in self._functions.items():
            self._rebind(wrapper, orig)
        self._functions.clear()

    @staticmethod
    def survivors() -> list[str]:
        """Attributes of loaded ``repro`` modules still holding a wrapper."""
        found = []
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                members = ([(attr, value)] if not isinstance(value, type) else
                           [(f"{attr}.{k}", v) for k, v in vars(value).items()])
                for label, member in members:
                    member = getattr(member, "__func__", member)
                    if hasattr(member, "__wrapped__") and getattr(
                            member, "__module__", None) == __name__:
                        found.append(f"{mod.__name__}.{label}")
        return found


# -- counts taken at the same boundaries -------------------------------- #

def _count_work(tracer, args, result):
    work = result.work
    tracer.count(rows_scanned=work.rows_scanned, rows_output=work.rows_output,
                 udf_calls=work.udf_calls, runs_processed=work.runs_processed,
                 voxels_extracted=work.voxels_extracted)


def _count_points(tracer, args, result):
    tracer.count(curve_points=len(result))


def _count_encode(tracer, args, result):
    tracer.count(codec_runs=args[1].run_count, codec_bytes=len(result))


def _count_messages(tracer, args, result):
    tracer.count(rpc_messages=result.messages)


HOOKS = {
    "repro.db.database:Database.execute": _count_work,
    "repro.curves.hilbert:HilbertCurve.index": _count_points,
    "repro.curves.hilbert:HilbertCurve.coords": _count_points,
    "repro.curves.morton:MortonCurve.index": _count_points,
    "repro.curves.morton:MortonCurve.coords": _count_points,
    "repro.compression.runcodecs:NaiveRunCodec.encode": _count_encode,
    "repro.compression.runcodecs:EliasRunCodec.encode": _count_encode,
    "repro.compression.runcodecs:_OctantCodecBase.encode": _count_encode,
    "repro.net.rpc:RpcChannel.send": _count_messages,
}


# -- analysis ----------------------------------------------------------- #

def self_times(spans) -> dict[int, float]:
    """Span id -> seconds of the span not covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.seconds - covered
    return result


def _json(value) -> str:
    if value is None:
        return "null"
    return f'"{value}"' if isinstance(value, str) else repr(value)


def write_jsonl(spans, path) -> None:
    """One span per line: the trace artefact of a traced run."""
    with open(path, "w") as out:
        for span in spans:
            out.write(
                f'{{"id": {span.id}, "name": "{span.name}", '
                f'"layer": {_json(LAYER_OF[span.name])}, '
                f'"start": {span.start!r}, "end": {span.end!r}, '
                f'"parent": {_json(span.parent)}, "op": {_json(span.op)}, '
                f'"thread": {span.thread}}}\n')
