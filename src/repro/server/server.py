"""The concurrent query server: admission, dispatch, caching, accounting.

:class:`QueryServer` turns the single-caller :class:`~repro.db.database.
Database` into a multi-client service, the ROADMAP's "serve heavy
traffic" direction.  The moving parts, bottom-up (diagrammed in
ARCHITECTURE.md):

* MVCC snapshot reads — SELECTs pin an immutable published version and
  run with **no lock**; DML/DDL take the database's re-entrant write
  lock, each write wrapped in a storage transaction so the
  WAL keeps crash safety under concurrent writers (the lock is held
  until the commit is durable and its version published);
* a :class:`~repro.server.pool.WorkerPool` — ``workers`` execution slots
  a client occupies on its own thread, plus the bounded FIFO
  (``block``/``reject`` policy) where callers wait their turn when every
  slot is taken;
* a shared :class:`~repro.server.resultcache.ResultCache`, keyed by the
  statement's text as sent and its parameters, and probed first: a hit
  is answered from the entry, which carries the statement's functions,
  shape and digest id, with no parse and no statement-memo lookup.  It
  is invalidated by any
  write to a table the cached statement names; fills are fenced by
  snapshot sequence numbers so a late fill can never resurrect
  invalidated rows;
* for everything else, the database's memo of
  :class:`~repro.db.sql.Prepared` statements per raw text
  (:meth:`Database.prepare <repro.db.database.Database.prepare>`) — the
  one parse a served statement that misses the cache costs, and the
  source of every syntactic fact dispatch, caching and the flight
  recorder use.  Cached statements never reach it, so its slots and its
  admission counts are spent on what the cache does not hold;
* per-session state (:class:`~repro.server.session.Session`): local UDF
  registries;
* the :class:`~repro.net.rpc.RpcChannel` result payloads ship through,
  so served traffic shows up in the paper's message accounting.

Everything is observable: ``server.*`` metrics (queue depth, slot wait,
active sessions, result-cache hit rate), one flight-recorder record per
statement (opened here, so whatever time no layer below claims is
recorded as ``server``), tagged with the session name.
"""

from __future__ import annotations

import threading

from repro.db.database import Database, QueryResult
from repro.db.executor import ResultSet
from repro.db.functions import WorkCounters
# Database.prepare does the parsing now; the name stays bound here because
# the frozen ledger self-test (benchmarks/ledger/test_ledger.py) uses this
# module as its example of one importing ``parse`` by value mid-trace.
from repro.db.sql.parser import parse  # noqa: F401
from repro.db.sql.prepared import Prepared
from repro.concurrency import lockdep
from repro.errors import ServerError
from repro.net.rpc import RpcChannel
from repro.obs import metrics, recorder
from repro.server.pool import WorkerPool, current_wait_seconds
from repro.server.resultcache import CachedResult, ResultCache, cache_key
from repro.server.session import Session
from repro.storage.device import IOStats

__all__ = ["QueryServer"]

_SESSIONS_OPENED = metrics.counter("server.sessions_opened")
_ACTIVE_SESSIONS = metrics.gauge("server.active_sessions")
_STATEMENTS = metrics.counter("server.statements")
_MEMO_HITS = metrics.counter("server.stmt_memo.hits")
_MEMO_MISSES = metrics.counter("server.stmt_memo.misses")
_MEMO_REJECTED = metrics.counter("server.stmt_memo.rejected")


class QueryServer:
    """A multi-session serving layer over one shared :class:`Database`."""

    def __init__(self, db: Database, workers: int = 4, queue_depth: int = 64,
                 policy: str = "block", result_cache: bool = True,
                 rpc: RpcChannel | None = None):
        self.db = db
        self.pool = WorkerPool(workers=workers, queue_depth=queue_depth,
                               policy=policy)
        self.cache: ResultCache | None = ResultCache() if result_cache else None
        self.rpc = rpc if rpc is not None else RpcChannel()
        self._sessions: dict[int, Session] = {}  # guarded_by: _lock
        self._lock = lockdep.instrument(threading.Lock(), "server.sessions")
        self._next_session_id = 1  # guarded_by: _lock
        self._closed = False  # guarded_by: _lock
        self._admin = None  # guarded_by: _lock

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #

    def connect(self, name: str | None = None) -> Session:
        """Open a new session (the client-facing connection object)."""
        with self._lock:
            if self._closed:
                raise ServerError("server is shut down")
            session_id = self._next_session_id
            self._next_session_id += 1
            session = Session(self, session_id, name=name)
            self._sessions[session_id] = session
            _SESSIONS_OPENED.inc()
            _ACTIVE_SESSIONS.set(len(self._sessions))
        return session

    def _session_closed(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
            _ACTIVE_SESSIONS.set(len(self._sessions))

    @property
    def active_sessions(self) -> int:
        """Sessions currently open."""
        with self._lock:
            return len(self._sessions)

    def session_snapshot(self) -> list[dict]:
        """Every open session as a JSON-ready dict (the /sessions view)."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {"id": s.session_id, "name": s.name, "statements": s.statements,
             "local_functions": s.functions.local_names}
            for s in sessions
        ]

    # ------------------------------------------------------------------ #
    # statement dispatch
    # ------------------------------------------------------------------ #

    def admit(self, session: Session, sql: str, params: list | None):
        """Run one statement in one of the pool's slots, on the caller's
        thread (sessions call this); returns its result."""
        return self.pool.run(self._run_statement, session, sql, params)

    def _run_statement(self, session: Session, sql: str,
                       params: list | None) -> QueryResult:
        """Execution of one admitted statement, in the slot it holds."""
        _STATEMENTS.inc()
        session._admitted()
        # The statement's own flight-recorder record (a fresh trace id,
        # or its caller's when a UDF issued it), which Database.execute
        # annotates with everything but a cache hit.
        with recorder.statement(sql, session=session.name, own=True,
                                pool_wait_seconds=current_wait_seconds(),
                                params=params) as rec:
            result = self._execute(session, sql, params, rec)
            # Ship the result payload through the RPC channel so served
            # traffic lands in the paper's message accounting (a counts
            # model: 8 bytes a value, chunked).  The shipping is the
            # statement's tail: its ``net`` phase runs to the scope's end.
            if rec.active:
                rec.switch("net")
            self.rpc.send(len(result.rows) * max(1, len(result.columns)) * 8)
        return result

    def _execute(self, session: Session, sql: str, params: list | None,
                 rec) -> QueryResult:
        registry = session.functions
        cache, counted = self.cache, False
        if cache is not None:
            key = cache_key(sql, params)
            # A repeated text is answered from its entry before it is
            # prepared, unless this session shadows a function it calls.
            # get() confirms the probe and counts it, hit or miss (an
            # eviction or invalidation may have come in between).
            entry = cache.peek(key)
            if entry is not None and registry.stamp(entry.funcs) is not None:
                entry, counted = cache.get(key), True
                if entry is not None:
                    return self._answer(entry, sql, rec)
        prepared, hit = self.db.prepare(sql)
        (_MEMO_HITS if hit else _MEMO_MISSES).inc()
        if prepared.ad_hoc:
            _MEMO_REJECTED.inc()
        if not prepared.is_read:
            return self._execute_write(prepared, session, params)
        cacheable = (
            cache is not None
            and not prepared.is_explain
            # A statement calling a session-local UDF must not land in the
            # shared cache: another session may bind the same name to
            # different code.
            and registry.stamp(prepared.funcs) is not None
        )
        if not cacheable:
            return self.db.execute(prepared, params, functions=registry)
        if not counted:
            entry = cache.get(key)
            if entry is not None:
                return self._answer(entry, sql, rec)
        with self.db.read_view() as view:
            result = self.db.execute(prepared, params, functions=registry,
                                     view=view)
            if view.seq is not None:
                # The fill is tagged with the snapshot's sequence number;
                # the cache rejects it if a write with a newer sequence
                # invalidated these tables in the meantime.  Rows a
                # write holder read from its own open transaction belong
                # to no version: not cached.
                cache.put(key, CachedResult(
                    columns=tuple(result.columns),
                    rows=tuple(result.rows),
                    tables=prepared.tables,
                    seq=view.seq,
                    funcs=prepared.funcs,
                    shape=prepared.shape,
                    digest=prepared.digest,
                ))
            return result

    def _answer(self, entry: CachedResult, sql: str, rec) -> QueryResult:
        """A cache hit's result: zero I/O, zero work.  Database.execute
        never ran, so the statement's record is marked here."""
        if rec.active:  # this scope's own record: no note to route
            record = rec.record
            record.rows, record.cache_hit, record.kind = (
                len(entry.rows), True, "read")
            record.shape, record.digest = entry.shape, entry.digest
        return QueryResult(
            result=ResultSet(list(entry.columns), list(entry.rows)),
            work=WorkCounters(),
            io=IOStats() if self.db.lfm is not None else None,
            sql=sql,
        )

    def _execute_write(self, prepared: Prepared, session: Session,
                       params: list | None) -> QueryResult:
        """Exclusive path: transaction-scoped write + cache invalidation.

        db.transaction() takes the exclusive lock itself and holds it
        until the commit is durable and published.  Stale cache fills are
        fenced by the sequence-numbered invalidation, which the
        transaction fires once, when the version becomes visible; a write
        that fails before its commit record is journaled publishes
        nothing, so nothing it touched was ever cacheable and nothing
        needs fencing.
        """
        def invalidate(seq: int) -> None:
            if self.cache is not None:
                self.cache.invalidate(prepared.tables, seq)

        with self.db.transaction(on_publish=invalidate):
            # Re-entrant by construction: transaction() already holds the
            # write lock on this thread, so the one execute() takes nests
            # instead of inverting the order.
            return self.db.execute(prepared, params,
                                   functions=session.functions)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start_admin(self, host: str = "127.0.0.1", port: int = 0):
        """Start the admin/metrics HTTP endpoint beside this server.

        Returns the :class:`~repro.server.admin.AdminServer` (its ``url``
        is where ``/metrics`` and friends live); closing the query server
        closes it too.  Port 0 (the default) asks the OS for a free port.
        """
        from repro.server.admin import AdminServer

        admin = AdminServer(self, host=host, port=port)
        with self._lock:
            self._admin = admin
        return admin

    def close(self) -> None:
        """Close every session and stop admitting (admitted statements
        finish first)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
            admin = self._admin
            self._admin = None
        for session in sessions:
            session.close()
        self.pool.shutdown(wait=True)
        if admin is not None:
            admin.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        cache = repr(self.cache) if self.cache is not None else "off"
        return (
            f"QueryServer({self.active_sessions} sessions, {self.pool!r}, "
            f"cache={cache})"
        )
