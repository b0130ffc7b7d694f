"""Exception hierarchy for the QBISM reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subsystems add
more specific types (storage, SQL, medical layer) below it.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "UnknownNameError",
    "DuplicateNameError",
    "GridMismatchError",
    "CurveMismatchError",
    "CodecError",
    "StorageError",
    "AllocationError",
    "LongFieldError",
    "WalError",
    "SimulatedCrash",
    "DatabaseError",
    "SqlSyntaxError",
    "SqlTypeError",
    "CatalogError",
    "ExecutionError",
    "UnsupportedStatementError",
    "StaticAnalysisError",
    "ResolutionError",
    "TypeCheckError",
    "SpatialUsageError",
    "AggregateUsageError",
    "FunctionUsageError",
    "MedicalError",
    "RegistrationError",
    "ConcurrencyError",
    "LockOrderError",
    "PotentialDeadlockError",
    "ServerError",
    "ServerBusyError",
    "SessionClosedError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed a library-level validation check."""


class UnknownNameError(ReproError, KeyError):
    """A lookup by name (structure, codec, curve) found nothing."""


class DuplicateNameError(ReproError, KeyError):
    """A name or key that must be unique was registered twice."""


class GridMismatchError(ReproError, ValueError):
    """Two spatial objects defined on incompatible grids were combined."""


class CurveMismatchError(ReproError, ValueError):
    """Two objects linearized along different space-filling curves were combined."""


class CodecError(ReproError, ValueError):
    """A REGION/integer codec was asked to encode or decode invalid data."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class AllocationError(StorageError):
    """The buddy allocator could not satisfy a request."""


class LongFieldError(StorageError):
    """An operation referenced a missing or invalid long field."""


class WalError(StorageError):
    """A write-ahead-log operation could not be performed safely."""


class SimulatedCrash(StorageError):
    """A fault-injection schedule cut the power mid-operation.

    Raised by :class:`repro.storage.faults.FaultyDevice` at its scheduled
    crash point, and by every later operation on the same (now offline)
    device.  Test harnesses catch it, harvest the surviving device image,
    and reopen to exercise recovery.
    """


class DatabaseError(ReproError):
    """Base class for relational-engine failures."""


class SqlSyntaxError(DatabaseError, ValueError):
    """The SQL text could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SqlTypeError(DatabaseError, TypeError):
    """An expression was applied to values of the wrong SQL type."""


class CatalogError(DatabaseError, KeyError):
    """A table, column, or function referenced in a query does not exist."""


class ExecutionError(DatabaseError, RuntimeError):
    """A query plan failed during execution."""


class UnsupportedStatementError(DatabaseError, ValueError):
    """A statement form is not supported in the requested context."""


class StaticAnalysisError(DatabaseError):
    """Base class for errors found by the semantic analyzer before execution.

    Instances carry the full list of structured diagnostics on
    ``self.diagnostics``; ``self.code`` and ``self.span`` expose the primary
    (first) diagnostic's stable error code and source span.  Concrete
    subclasses mix in the legacy exception type callers already catch for
    the same class of mistake, so adding the static pass changes *when*
    queries fail, never *what* callers must handle.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        primary = self.diagnostics[0]
        self.code = primary.code
        self.span = primary.span
        super().__init__(primary.format())


class ResolutionError(StaticAnalysisError, CatalogError):
    """A name (table, alias, column, function) did not resolve (QB1xx)."""


class TypeCheckError(StaticAnalysisError, SqlTypeError):
    """Static type inference found an ill-typed expression (QB2xx)."""


class SpatialUsageError(StaticAnalysisError, SqlTypeError):
    """A LONGFIELD / spatial value was used in a scalar context (QB3xx)."""


class AggregateUsageError(StaticAnalysisError, ExecutionError):
    """An aggregate appeared where SQL does not allow one (QB1xx)."""


class FunctionUsageError(StaticAnalysisError, ExecutionError):
    """A function call cannot succeed: wrong arity or argument types (QB2xx).

    Derives :class:`ExecutionError` because at run time such calls fail
    *inside* the function and surface as wrapped execution errors.
    """


class ConcurrencyError(ReproError, RuntimeError):
    """A lock was used outside its protocol (bad nesting, upgrade attempt)."""


class LockOrderError(ConcurrencyError):
    """Lockdep saw a thread re-acquire a non-reentrant lock it holds.

    With a plain ``threading.Lock`` that acquisition would block forever;
    the witness raises instead, before it happens.
    """


class PotentialDeadlockError(ConcurrencyError):
    """Lockdep found a cycle in the lock-acquisition-order graph.

    Raised on the acquisition that *closes* the cycle, even when the
    threads involved never actually blocked each other — the ABBA pattern
    is reported the first time both orders have been observed.
    """


class ServerError(ReproError):
    """Base class for query-serving failures (sessions, worker pool)."""


class ServerBusyError(ServerError):
    """The server's admission queue is full and the policy is ``reject``.

    Clients should back off and retry; the statement was never enqueued,
    so nothing was executed.
    """


class SessionClosedError(ServerError):
    """A statement was submitted on a session that has been closed."""


class MedicalError(ReproError):
    """Base class for medical-layer failures (load pipeline, server)."""


class RegistrationError(MedicalError, RuntimeError):
    """Affine registration between patient and atlas space failed."""
