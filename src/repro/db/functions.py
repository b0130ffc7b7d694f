"""User-defined SQL functions — the Starburst extensibility hook (§5.1).

QBISM's spatial operators are ordinary SQL functions registered here; the
executor embeds them in query plans and invokes them at run time, exactly
as Starburst does.  Each function receives an :class:`ExecutionContext`
giving it access to the Long Field Manager (to dereference LONGFIELD
handles) and to the work counters the cost model uses to produce the
paper's CPU-time columns.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field

from repro.db.types import SqlType
from repro.errors import CatalogError, ExecutionError
from repro.obs import metrics, recorder
from repro.regions.region import Region
from repro.storage.lfm import LongField, LongFieldManager

__all__ = [
    "ANY",
    "NUMBER",
    "ExecutionContext",
    "FunctionRegistry",
    "FunctionSignature",
    "WorkCounters",
    "builtin_functions",
    "builtin_signatures",
    "decode_region",
    "signature_from_callable",
]

_DECODE_MEMO_HITS = metrics.counter("regions.decode_memo.hits")
_DECODE_MEMO_MISSES = metrics.counter("regions.decode_memo.misses")

#: query-time REGION decodes, payload bytes -> :class:`Region` (see
#: :mod:`repro.db.spatial`); a full memo starts over, as ``Region``'s header
#: table does, and hits read it without the lock.
_DECODED: dict[bytes, Region] = {}
_DECODED_MAX = 8 << 20
_decoded_bytes = 0  # updated under _DECODED_LOCK
_DECODED_LOCK = threading.Lock()


def decode_region(payload: bytes) -> Region:
    """``Region.from_bytes(payload)``, decoded once per distinct payload.

    Only a payload that decodes enters the memo: a corrupt one raises the
    same error on every call."""
    global _decoded_bytes
    region = _DECODED.get(payload)
    if region is not None:
        _DECODE_MEMO_HITS.inc()
        return region
    region = Region.from_bytes(payload)
    _DECODE_MEMO_MISSES.inc()
    size = len(payload) + 16 * region.run_count
    if size > _DECODED_MAX:
        return region
    with _DECODED_LOCK:
        if _decoded_bytes + size > _DECODED_MAX:
            _DECODED.clear()
            _decoded_bytes = 0
        held = _DECODED.setdefault(payload, region)
        if held is region:
            _decoded_bytes += size
    return held


#: argument type spec: any SQL type is acceptable
ANY = None
#: argument type spec: INTEGER or REAL
NUMBER = frozenset({SqlType.INTEGER, SqlType.REAL})


@dataclass(frozen=True)
class FunctionSignature:
    """Declared shape of a SQL-callable function, for static checking.

    ``param_types`` lists, per positional argument, the set of acceptable
    :class:`SqlType` values (``ANY`` = unconstrained).  ``max_args`` of
    ``None`` marks a variadic function.  ``returns`` of ``None`` means the
    result type is not statically known.  A signature derived from a bare
    Python callable (no declaration) constrains arity only.
    """

    name: str
    min_args: int
    max_args: int | None
    param_types: tuple[frozenset | None, ...] = ()
    returns: SqlType | None = None

    def arity_ok(self, count: int) -> bool:
        """Does a call with ``n`` arguments satisfy this signature?"""
        if count < self.min_args:
            return False
        return self.max_args is None or count <= self.max_args

    def arity_description(self) -> str:
        """Human-readable arity, for error messages."""
        if self.max_args is None:
            return f"at least {self.min_args}"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args} to {self.max_args}"

    def param_spec(self, position: int) -> frozenset | None:
        """The acceptable types of one positional argument (ANY if unspecified)."""
        if position < len(self.param_types):
            return self.param_types[position]
        return ANY


def signature_from_callable(name: str, fn, wants_ctx: bool) -> FunctionSignature:
    """Derive an arity-only signature by inspecting a Python callable."""
    min_args = 0
    max_args: int | None = 0
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return FunctionSignature(name, 0, None)
    if wants_ctx:
        params = params[1:]
    for param in params:
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            max_args = None
            continue
        if param.kind is param.KEYWORD_ONLY:
            continue
        if max_args is not None:
            max_args += 1
        if param.default is param.empty:
            min_args += 1
    return FunctionSignature(name, min_args, max_args)


@dataclass
class WorkCounters:
    """Abstract work performed during a query, fed to the 1994 cost model."""

    rows_scanned: int = 0
    rows_output: int = 0
    udf_calls: int = 0
    runs_processed: int = 0  #: run-list elements merged/scanned by spatial ops
    voxels_extracted: int = 0  #: intensity values gathered from VOLUMEs
    longfield_bytes_read: int = 0

    def copy(self) -> "WorkCounters":
        """An independent snapshot, for before/after deltas."""
        return WorkCounters(**vars(self))

    def __sub__(self, other: "WorkCounters") -> "WorkCounters":
        return WorkCounters(**{k: v - getattr(other, k) for k, v in vars(self).items()})

    def __add__(self, other: "WorkCounters") -> "WorkCounters":
        return WorkCounters(**{k: v + getattr(other, k) for k, v in vars(self).items()})

    def reset(self) -> None:
        """Zero every counter."""
        for key in vars(self):
            setattr(self, key, 0)


@dataclass
class ExecutionContext:
    """Run-time environment handed to queries and UDFs."""

    lfm: LongFieldManager | None = None
    work: WorkCounters = field(default_factory=WorkCounters)
    #: memoized results of (uncorrelated) nested query blocks, per statement
    subquery_cache: dict = field(default_factory=dict)
    #: the binder's record of the statement (:func:`repro.db.semantic.check`)
    blocks: dict = field(default_factory=dict)
    #: a :class:`~repro.obs.explain.PlanProfile` to fill for EXPLAIN
    #: ANALYZE; the executor claims it for the outermost SELECT only.
    profile: object | None = None
    #: the statement's thread-local I/O collector (an
    #: :class:`~repro.storage.device.IOStats` registered via
    #: ``attribute_io``); per-operator page attribution reads this instead
    #: of the process-global counters, so concurrent statements never
    #: steal each other's I/O.
    io_sink: object | None = None
    #: planner mode for this statement ("cost" or "naive")
    planner_mode: str = "cost"
    #: this execution's plan table (keys as in
    #: :class:`~repro.db.sql.prepared.Bound`, which seeds it and keeps
    #: what the executor adds); the query blocks must outlive it
    plans: dict = field(default_factory=dict)
    #: ``Database.stored_cells``: cells of the REGIONs the enclosing
    #: transaction stored, which an INSERT takes before reading a payload
    stored_cells: dict = field(default_factory=dict)

    def read_longfield(self, value) -> bytes:
        """Dereference a LONGFIELD cell: handles are read via the LFM,
        transient byte payloads pass through unchanged."""
        if isinstance(value, bytes):
            return value
        if isinstance(value, LongField):
            if self.lfm is None:
                raise ExecutionError(
                    "query needs the Long Field Manager but none is attached"
                )
            data = self.lfm.read(value)
            self.work.longfield_bytes_read += len(data)
            return data
        raise ExecutionError(f"not a LONGFIELD value: {type(value).__name__}")


class FunctionRegistry:
    """Case-insensitive registry of SQL-callable functions.

    A registered callable may optionally declare a leading parameter named
    ``ctx`` to receive the :class:`ExecutionContext`; remaining parameters
    are the SQL arguments.
    """

    def __init__(self) -> None:
        self._functions: dict[str, tuple[callable, bool]] = {}
        self._signatures: dict[str, FunctionSignature] = {}
        self._registrations = 0

    def register(self, name: str, fn: callable,
                 signature: FunctionSignature | None = None,
                 replace: bool = False) -> None:
        """Add one function under a case-insensitive name.

        Re-registering an existing name is rejected unless ``replace=True``
        (silently shadowing a spatial operator would invalidate every plan
        the analyzer has blessed against its declared signature).  Without a
        declared ``signature``, an arity-only one is derived by inspecting
        the callable so the analyzer can still reject wrong-arity calls.
        """
        key = name.lower()
        if key in self._functions and not replace:
            raise CatalogError(
                f"function {name!r} already registered (pass replace=True to override)"
            )
        wants_ctx = False
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        if params and params[0] == "ctx":
            wants_ctx = True
        if signature is None:
            signature = signature_from_callable(name, fn, wants_ctx)
        self._functions[key] = (fn, wants_ctx)
        self._signatures[key] = signature
        self._registrations += 1

    def register_all(self, functions: dict[str, callable],
                     signatures: dict[str, FunctionSignature] | None = None) -> None:
        """Register several functions at once (with optional signatures)."""
        signatures = signatures or {}
        for name, fn in functions.items():
            self.register(name, fn, signature=signatures.get(name))

    def signature(self, name: str) -> FunctionSignature | None:
        """The declared (or derived) signature of a function, if registered."""
        return self._signatures.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def stamp(self, funcs: frozenset[str]):
        """What a remembered semantic check of a statement calling
        ``funcs`` (lowercased names) stays valid for: this registry at
        its current registration count.  ``None`` means such a check
        must not be remembered at all."""
        return self, self._registrations

    def call(self, name: str, args: list, ctx: ExecutionContext):
        """Invoke a registered function, wrapping unexpected failures."""
        try:
            fn, wants_ctx = self._functions[name.lower()]
        except KeyError:
            raise CatalogError(f"no such function {name!r}") from None
        ctx.work.udf_calls += 1
        was = recorder.enter("db.functions")
        try:
            if wants_ctx:
                return fn(ctx, *args)
            return fn(*args)
        except (CatalogError, ExecutionError):
            raise
        # The UDF sandbox boundary: arbitrary user code fails in arbitrary
        # ways, and every failure must surface as one ExecutionError.
        except Exception as exc:  # qblint: disable=no-broad-except
            raise ExecutionError(f"function {name}() failed: {exc}") from exc
        finally:
            recorder.leave(was)

    def names(self) -> list[str]:
        """All registered function names, sorted."""
        return sorted(self._functions)


def builtin_functions() -> dict[str, callable]:
    """Small library of general-purpose scalar functions."""
    return {
        "abs": lambda x: abs(x) if x is not None else None,
        "lower": lambda s: s.lower() if s is not None else None,
        "upper": lambda s: s.upper() if s is not None else None,
        "length": lambda v: len(v) if v is not None else None,
        "coalesce": lambda *args: next((a for a in args if a is not None), None),
    }


def builtin_signatures() -> dict[str, FunctionSignature]:
    """Declared signatures of the builtin scalar functions."""
    text = frozenset({SqlType.TEXT})
    return {
        "abs": FunctionSignature("abs", 1, 1, (NUMBER,)),
        "lower": FunctionSignature("lower", 1, 1, (text,), SqlType.TEXT),
        "upper": FunctionSignature("upper", 1, 1, (text,), SqlType.TEXT),
        "length": FunctionSignature("length", 1, 1, (ANY,), SqlType.INTEGER),
        "coalesce": FunctionSignature("coalesce", 1, None),
    }
