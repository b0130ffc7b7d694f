"""Client sessions: per-connection state over one shared database.

A :class:`Session` is what :meth:`QueryServer.connect
<repro.server.server.QueryServer.connect>` hands back — the serving
layer's analogue of a DBMS connection.  Each session carries:

* a **session-local function registry** chaining to the shared one, so
  ``register_function`` on one session never changes what another
  session's SQL resolves (the Starburst extension hook, scoped);
* its own **statement counter** — every statement's flight-recorder
  record is tagged with the session name.

Statements go through the server's admission control: :meth:`execute`
takes a pool slot — waiting its turn when none is free — and runs the
statement on the calling thread.
"""

from __future__ import annotations

import threading

from repro.concurrency import lockdep
from repro.db.functions import FunctionRegistry, FunctionSignature
from repro.errors import CatalogError, SessionClosedError

__all__ = ["Session", "SessionFunctions"]


class SessionFunctions(FunctionRegistry):
    """A per-session registry layered over the shared one.

    Lookups try the session-local table first, then fall back to the
    base; registrations land locally (shadowing a shared function needs
    ``replace=True``, same contract as the shared registry).
    """

    def __init__(self, base: FunctionRegistry):
        super().__init__()
        self._base = base

    @property
    def local_names(self) -> list[str]:
        """Names registered on this session only, sorted."""
        return sorted(self._functions)

    def register(self, name: str, fn, signature: FunctionSignature | None = None,
                 replace: bool = False) -> None:
        """Register a session-local function (may shadow a shared one)."""
        if not replace and name.lower() not in self._functions \
                and name in self._base:
            raise CatalogError(
                f"function {name!r} already registered (pass replace=True "
                f"to shadow it for this session)"
            )
        super().register(name, fn, signature=signature, replace=True)

    def signature(self, name: str) -> FunctionSignature | None:
        """Declared signature, session-local first."""
        local = super().signature(name)
        return local if local is not None else self._base.signature(name)

    def __contains__(self, name: str) -> bool:
        return super().__contains__(name) or name in self._base

    def stamp(self, funcs: frozenset[str]):
        """The shared registry's stamp — unless the statement calls a
        session-local function, whose meaning no other session shares."""
        if funcs & self._functions.keys():
            return None
        return self._base.stamp(funcs)

    def call(self, name: str, args: list, ctx):
        """Invoke, resolving session-local functions before shared ones."""
        if name.lower() in self._functions:
            return super().call(name, args, ctx)
        return self._base.call(name, args, ctx)

    def names(self) -> list[str]:
        """Every resolvable function name (shared + session-local)."""
        return sorted(set(self._base.names()) | set(self._functions))


class Session:
    """One client's connection to a :class:`QueryServer`."""

    def __init__(self, server, session_id: int, name: str | None = None):
        self._server = server
        self.session_id = session_id
        self.name = name or f"session-{session_id}"
        self.functions = SessionFunctions(server.db.functions)
        #: guards the session's mutable state: the statement counter and
        #: the closed flag — both read by other threads
        #: (``session_snapshot`` on the admin thread, concurrent callers)
        self._state_lock = lockdep.instrument(
            threading.Lock(), "session.state"
        )
        self.statements = 0  # guarded_by: _state_lock
        self.closed = False  # guarded_by: _state_lock

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def execute(self, sql: str, params: list | None = None):
        """Run one statement through the server; blocks for the result."""
        # A plain read of the flag: a close() may land just after the
        # check with or without the lock, so taking it would order nothing.
        if self.closed:
            raise SessionClosedError(f"{self.name} is closed")
        return self._server.admit(self, sql, params)

    def _admitted(self) -> None:
        """Count one statement as it starts (a refused one never does)."""
        # Under the lock: concurrent submitters on a shared session lose
        # no increments, and ``session_snapshot`` reads a consistent value.
        with self._state_lock:
            self.statements += 1

    def register_function(self, name: str, fn,
                          signature: FunctionSignature | None = None,
                          replace: bool = False) -> None:
        """Register a UDF visible to this session only."""
        self.functions.register(name, fn, signature=signature, replace=replace)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """End the session; subsequent statements are refused (idempotent)."""
        with self._state_lock:
            if self.closed:
                return
            self.closed = True
        self._server._session_closed(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"Session({self.name!r}, {self.statements} statements, {state})"
