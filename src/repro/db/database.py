"""The database facade: parse, plan, execute, account.

A :class:`Database` owns a catalog, a function registry, and (optionally) a
Long Field Manager.  ``execute()`` returns a :class:`QueryResult` carrying
the rows *and* the per-query deltas of the work counters and device I/O
statistics — the raw material for the paper's Tables 3 and 4.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.concurrency import guarded_by, lockdep
from repro.db.admission import FrequencyAdmission
from repro.db.catalog import Catalog
from repro.db.executor import Executor, ResultSet
from repro.db.functions import (
    ExecutionContext,
    FunctionRegistry,
    FunctionSignature,
    WorkCounters,
    builtin_functions,
    builtin_signatures,
)
from repro.db.mvcc import DatabaseVersion, VersionManager
from repro.db.persist import commit_record
from repro.db.planner import Plan, level_label
from repro.db.semantic import analyze as _analyze
from repro.db.semantic import check
from repro.db.sql.ast import Select
from repro.db.sql.parser import last_tokens, parse
from repro.db.sql.prepared import Bound, Prepared
from repro.errors import UnsupportedStatementError
from repro.net.costmodel import CostModel1994
from repro.obs import metrics, recorder
from repro.storage.device import IOStats, attribute_io
from repro.storage.lfm import FieldTableView, LongFieldManager

__all__ = ["Database", "QueryResult", "ReadView"]

_STATEMENTS = metrics.counter("db.statements")
_QUERY_SECONDS = metrics.histogram("db.query_seconds")

#: distinct statement texts :meth:`Database.prepare` remembers
_STMT_MEMO_CAPACITY = 256


def _compile(sql: str, ad_hoc: bool = False) -> Prepared:
    """Statement text to a fresh, unbound :class:`Prepared` (the parse);
    classified by its tokens when a record will want its shape."""
    was = recorder.enter("db.sql")
    try:
        ast = parse(sql)
        return Prepared(sql, ast, ad_hoc,
                        None if was is None else last_tokens())
    finally:
        recorder.leave(was)


def _check(prepared: Prepared, catalog, registry: FunctionRegistry) -> dict:
    """The semantic check of one statement (its ``db.semantic`` time):
    the binder's record of it."""
    was = recorder.enter("db.semantic")
    try:
        return check(prepared.ast, catalog, registry)
    finally:
        recorder.leave(was)


_MODEL_1994 = CostModel1994()


def _analyzed_plan(plan: Plan, result: ResultSet, io: IOStats | None,
                   work: WorkCounters) -> list[str]:
    """EXPLAIN ANALYZE's lines: each join level's estimate beside the rows
    it examined and matched, the output stage, and a total splitting the
    statement's time so far by layer, as its flight record does, beside
    its I/O and the simulated 1994 Starburst time (one row of Table 3).

    Times are printed in hundredths of a millisecond, rounded down, so
    the printed phases never sum to more than the printed total.
    """
    counts = result.level_counts
    lines = [
        "  " * level + f"{level_label(plan, level)}  (est rows={round(est)}, "
        f"rows examined={counts[2 * level]}, matched={counts[2 * level + 1]})"
        for level, est in enumerate(plan.est_rows)
    ]
    rows = len(result.rows)
    lines.append(f"output: {rows} row(s)  (est rows={round(plan.est_out)}, "
                 f"rows in={counts[-1]})")
    phases = recorder.charged()
    if phases is None:
        total = f"total: {rows} row(s), no flight record kept (recording is off)"
    else:
        parts = {name: int(seconds * 1e5)
                 for name, seconds in phases.items() if seconds}
        whole = max(int(sum(phases.values()) * 1e5), sum(parts.values()))
        split = " + ".join(f"{name} {part / 100:.2f}"
                           for name, part in parts.items())
        total = f"total: {rows} row(s) in {whole / 100:.2f} ms ({split})"
    if io is not None:
        sim = _MODEL_1994.starburst_real_seconds(work, io)
        total += (f"; statement I/O: {io.pages_read} pages / {io.bytes_read} "
                  f"bytes read; simulated 1994 Starburst real time: {sim:.2f} s")
    lines.append(total)
    return lines


@dataclass
class QueryResult:
    """Rows plus the resource accounting for one statement."""

    result: ResultSet
    work: WorkCounters
    io: IOStats | None
    sql: str

    # Convenience passthroughs so callers can treat this like a ResultSet.
    @property
    def rows(self) -> list[tuple]:
        """Result rows as tuples."""
        return self.result.rows

    @property
    def columns(self) -> list[str]:
        """Output column names."""
        return self.result.columns

    @property
    def rowcount(self) -> int:
        """Number of rows returned or affected."""
        return self.result.rowcount

    def __iter__(self):
        return iter(self.result.rows)

    def __len__(self) -> int:
        return len(self.result.rows)

    def first(self):
        """The first row, or ``None`` when the result is empty."""
        return self.result.first()

    def scalar(self):
        """The single value of a one-row, one-column result."""
        return self.result.scalar()

    def to_dicts(self) -> list[dict]:
        """Rows as a list of column-name -> value dicts."""
        return self.result.to_dicts()

    def column(self, name: str) -> list:
        """Every value of one named output column."""
        return self.result.column(name)


class ReadView:
    """What one read runs against: a catalog, an LFM facade, a sequence.

    Built only by :meth:`Database.read_view`, already holding its pin;
    leaving the ``with`` block releases it.  ``seq`` is the pinned
    version's sequence number, or ``None`` when the write holder reads its
    own open transaction — rows that belong to no published version, so
    the serving layer does not cache them.
    """

    __slots__ = ("catalog", "lfm", "seq", "_db", "_pinned")

    def __init__(self, db: "Database", catalog, lfm,
                 pinned: DatabaseVersion | None):
        self.catalog = catalog
        self.lfm = lfm
        self.seq = pinned.seq if pinned is not None else None
        self._db = db
        self._pinned = pinned

    def __enter__(self) -> "ReadView":
        return self

    def __exit__(self, *exc) -> None:
        if self._pinned is not None:
            self._db.unpin_version(self._pinned)


@dataclass
class Database:
    """An extensible relational database with LONGFIELD support.

    Every committed write publishes an immutable snapshot version of the
    catalog and LFM field table (:mod:`repro.db.mvcc`); the latest one is
    the committed state.  Reads run against it with **no lock**
    (:meth:`read_view`), so readers never stall behind DML, and a write
    scope that fails reinstates it.
    """

    lfm: LongFieldManager | None = None
    catalog: Catalog = field(default_factory=Catalog)
    functions: FunctionRegistry = field(default_factory=FunctionRegistry)
    #: default planner mode for every statement: "cost" (statistics-driven
    #: join ordering, predicate reordering, spatial probes) or "naive"
    #: (FROM-order joins, conjuncts verbatim — the differential-testing
    #: baseline).  Overridable per statement via
    #: ``execute(..., planner=...)``.
    planner: str = "cost"

    def __post_init__(self) -> None:
        self.functions.register_all(builtin_functions(), builtin_signatures())
        # The statement write lock: re-entrant, so statements issued
        # inside a transaction() scope take it again without blocking.
        self._rwlock = lockdep.instrument(threading.RLock(), "db.rwlock",
                                          reentrant=True)
        self._versions = VersionManager()
        self._txn_nesting = 0  # open transaction() scopes; guarded_by: db.rwlock
        self._writer = None  # thread ident inside transaction(); guarded_by: db.rwlock
        #: handle -> directory cell of the REGIONs the open transaction()
        #: stored (``spatial.store_region``), for its INSERTs.  Emptied at
        #: commit *and* rollback: a rolled-back field id is issued again.
        self._stored_cells: dict = {}  # guarded_by: db.rwlock
        self._prepared: OrderedDict[str, Prepared] = OrderedDict()  # guarded_by: _stmt_lock
        self._stmt_admission = FrequencyAdmission(_STMT_MEMO_CAPACITY)  # guarded_by: _stmt_lock
        self._stmt_lock = lockdep.instrument(threading.Lock(), "db.stmt_memo")
        if self.lfm is not None:
            # Extent frees wait for pinned readers streaming their bytes.
            self.lfm.retire_extent = self._versions.defer_free
        self.publish_snapshot()

    @property
    def stored_cells(self) -> dict | None:
        """The cells of the REGIONs the calling thread's open
        :meth:`transaction` stored; None outside one (nothing would empty it)."""
        inside = self._writer == threading.get_ident()
        return self._stored_cells if inside else None

    @property
    def versions(self) -> VersionManager:
        """The MVCC version manager (snapshot chain introspection)."""
        return self._versions

    @property
    def version_seq(self) -> int:
        """Sequence number of the latest published snapshot."""
        return self._versions.latest_seq

    # ------------------------------------------------------------------ #
    # MVCC snapshot protocol
    # ------------------------------------------------------------------ #

    def read_view(self) -> ReadView:
        """Open the state one read runs against; use as ``with`` target.

        The latest published version, pinned — the committed state, read
        with no lock — except for the write holder, whose statements see
        its own open transaction in the live catalog and LFM.
        """
        pinned = self.pin_version()
        if pinned is None:
            return ReadView(self, self.catalog, self.lfm, None)
        lfm = (FieldTableView(self.lfm, pinned.fields)
               if self.lfm is not None else None)
        return ReadView(self, pinned.catalog, lfm, pinned)

    def pin_version(self) -> DatabaseVersion | None:
        """Pin the latest published version for a lock-free read.

        Returns ``None`` — :meth:`read_view` then reads the live state
        under the lock this thread already holds — only to the write
        holder: statements inside its open transaction must see that
        transaction's uncommitted state.  A non-``None`` result must be
        released with :meth:`unpin_version`.
        """
        if self._writer == threading.get_ident():
            return None
        return self._versions.pin_latest()

    def unpin_version(self, version: DatabaseVersion) -> None:
        """Release a pin taken with :meth:`pin_version`."""
        self._versions.unpin(version)

    def publish_snapshot(self) -> None:
        """Publish the live committed state as a fresh snapshot version.

        Runs automatically after every committed write statement and
        transaction.  Loaders that mutate tables directly (through
        ``catalog.writable``, bypassing the SQL layer) must call it once
        when done: until then readers do not see their changes, and a
        failed write scope discards them.
        """
        with self._rwlock:
            self._publish_version()

    @guarded_by("db.rwlock")
    def _publish_version(self) -> None:
        """Publish under the already-held write lock."""
        was = recorder.enter("db.mvcc")
        try:
            self._versions.publish(self.catalog, self.lfm)
        finally:
            recorder.leave(was)

    def prepare(self, sql: str) -> tuple[Prepared, bool]:
        """The memoized :class:`Prepared` of one statement text, and
        whether the memo already held it (the serving layer counts its
        hits and misses).

        Clients send the same few parameterized texts over and over, so
        the memo is what makes a repeated statement cost no parse — and,
        through :attr:`Prepared.bound`, no semantic check and no planning
        either.  It memoizes what repeats: it evicts in LRU order, but
        once full it admits a new text only if that text has been
        prepared more often than the LRU entry
        (:class:`~repro.db.admission.FrequencyAdmission`).  A text it
        turns away comes back :attr:`Prepared.ad_hoc`, and runs like bare
        ``execute(text)``: checked and planned for its one call, with
        nothing kept.
        """
        with self._stmt_lock:
            self._stmt_admission.touch(sql)
            prepared = self._prepared.get(sql)
            if prepared is not None:
                self._prepared.move_to_end(sql)
                return prepared, True
        prepared = _compile(sql)
        with self._stmt_lock:
            if self._stmt_admission.admit(self._prepared, sql):
                self._prepared[sql] = prepared
            else:
                prepared.ad_hoc = True
        return prepared, False

    def _bind(self, prepared: Prepared, catalog,
              registry: FunctionRegistry) -> tuple[Bound, dict]:
        """Run the semantic check unless it already passed on this state.

        The state is the stamp of :mod:`repro.db.sql.prepared`: identity,
        mutation count and statistics stamp of each named table in
        ``catalog`` (identity only for an INSERT that reads no table), and
        ``registry``'s own stamp.  Returns the
        statement's :class:`Bound` for that stamp (fresh, with no plans,
        after a check; one with no stamp, for this run only, when the
        registry forbids keeping one or the statement is
        :attr:`~Prepared.ad_hoc`) and a private copy of its plan table for
        the executor to fill — :meth:`_keep_plans` publishes what it adds.
        """
        functions = (None if prepared.ad_hoc
                     else registry.stamp(prepared.funcs))
        if functions is None:
            return Bound(None, _check(prepared, catalog, registry), {}), {}
        tables = catalog.stamp_of(prepared.tables)
        if prepared.is_values_insert:
            # bound to the target's schema (fixed per uid), not its rows
            tables = [stamp and stamp[0] for stamp in tables]
        stamp = (functions, *tables)
        bound = prepared.bound
        if bound is None or bound.stamp != stamp:
            bound = prepared.bound = Bound(
                stamp, _check(prepared, catalog, registry), {})
        return bound, dict(bound.plans)

    @staticmethod
    def _keep_plans(prepared: Prepared, bound: Bound, plans: dict) -> None:
        """Replace the slot with one holding the plans an execution
        added — unless it was re-bound meanwhile (they are planned again).

        ``plans`` is keyed by ``id()`` of query blocks, so it must be the
        table :meth:`_bind` handed out for this very ``prepared`` and
        filled by executing ``prepared.ast``: the statement object keeps
        its blocks alive for as long as the slot can name them.
        """
        if len(plans) > len(bound.plans) and prepared.bound is bound:
            prepared.bound = bound._replace(plans=plans)

    def execute(self, sql: str | Prepared, params: list | None = None,
                functions: FunctionRegistry | None = None,
                view: ReadView | None = None,
                planner: str | None = None) -> QueryResult:
        """Parse, analyze, and run one SQL statement.

        ``sql`` is statement text or the :class:`~repro.db.sql.Prepared`
        a caller already got from :meth:`prepare`.  Text that comes with
        ``params`` is a template the client will send again, and goes
        through the statement memo; bare text is ad hoc — every literal
        makes another one, so it is compiled for this call alone and
        leaves the memo to the templates.  So is a template the memo
        turns away (:meth:`prepare`).

        The semantic analyzer runs between parse and execution — or has
        run, against this very catalog and registry state (:meth:`_bind`)
        — so a malformed query fails with a ``QBxxx`` diagnostic before
        any Long Field Manager I/O is issued or any UDF is called.

        ``params`` binds ``?`` placeholders positionally; this is how
        Python-side values (LongField handles, large strings) enter
        statements without literal syntax.

        ``functions`` substitutes a different registry for this statement
        — the session layer passes a per-session registry that chains to
        the shared one, so session-local UDFs resolve without touching
        other sessions.

        SELECT / EXPLAIN run against a :meth:`read_view`; ``view`` lets a
        caller that already opened one (the result cache tags entries
        with its sequence number) supply it, and that caller still closes
        it.  A mutating statement runs in a :meth:`transaction` — the
        caller's, or one of its own that publishes a fresh snapshot when
        it has run and reinstates the published one when it fails.

        ``planner`` overrides the database's default planner mode
        (:attr:`planner`) for this statement.
        """
        prepared = None if isinstance(sql, str) else sql
        text = sql if prepared is None else prepared.sql
        ad_hoc = params is None
        params = list(params or ())
        registry = functions if functions is not None else self.functions
        mode = planner if planner is not None else self.planner
        # The flight recorder's statement scope opens before the parse, so
        # a syntax error leaves a record too.  When the serving layer
        # already opened one on this thread (it owns session/pool-wait
        # attribution), the notes below land on that record instead.
        with recorder.statement(text) as rec:
            if prepared is None:
                prepared = (_compile(text, True) if ad_hoc
                            else self.prepare(text)[0])
            if rec.active:
                rec.note(kind=prepared.kind, shape=prepared.shape,
                         digest=prepared.digest)
            if prepared.is_read:
                with (self.read_view() if view is None
                      else nullcontext(view)) as view:
                    return self._run(prepared, params, registry, mode, rec,
                                     view.catalog, view.lfm)
            with self.transaction():
                return self._run(prepared, params, registry, mode, rec,
                                 self.catalog, self.lfm)

    def _run(self, prepared: Prepared, params: list,
             registry: FunctionRegistry, mode: str, rec, catalog,
             lfm) -> QueryResult:
        """The statement body: analyze, execute, account.

        ``catalog`` / ``lfm`` are a :class:`ReadView`'s, or the live
        structures under the write lock.  EXPLAIN ANALYZE is its SELECT
        run as any other, answered with :func:`_analyzed_plan` instead of
        the rows.
        """
        stmt, sql, explain = prepared.ast, prepared.sql, prepared.is_explain
        bound, plans = self._bind(prepared, catalog, registry)
        ctx = ExecutionContext(lfm=lfm, blocks=bound.blocks, planner_mode=mode,
                               plans=plans, stored_cells=self._stored_cells)
        if explain:
            analyze, stmt = stmt.analyze, stmt.statement
            if not isinstance(stmt, Select):
                raise UnsupportedStatementError(
                    "EXPLAIN supports SELECT statements only")
            if not analyze:
                plan = Executor(catalog, registry).plan(stmt, ctx).describe()
                self._keep_plans(prepared, bound, plans)
                rows = [(line,) for line in plan.splitlines()]
                rec.note(rows=len(rows), params=params or None)
                return QueryResult(ResultSet(["plan"], rows), WorkCounters(),
                                   None, sql)
        _STATEMENTS.inc()
        start = time.perf_counter()
        # Thread-local attribution: the delta is exactly this statement's
        # I/O even while other sessions run concurrently (a global
        # before/after snapshot would absorb their pages).  A snapshot's
        # LFM view shares the live manager's stats.
        executor = Executor(catalog, registry)
        with (attribute_io(lfm.stats) if lfm is not None
              else nullcontext()) as io_delta:
            result = executor.execute(stmt, params, ctx)
        self._keep_plans(prepared, bound, plans)
        if explain:
            # the outermost block's plan, kept in the plan table it ran from
            lines = _analyzed_plan(executor.plan(stmt, ctx), result, io_delta,
                                   ctx.work)
            result = ResultSet(["plan"], [(line,) for line in lines])
            rec.note(rows=len(lines), io=io_delta, params=params or None)
        else:
            _QUERY_SECONDS.observe(time.perf_counter() - start)
            # SELECTs report returned rows; writes report rows affected.
            rec.note(rows=len(result.rows) or result.rowcount, io=io_delta,
                     params=params or None)
        return QueryResult(result=result, work=ctx.work, io=io_delta, sql=sql)

    def analyze(self, sql: str) -> list:
        """Run only the static pass; returns the list of diagnostics."""
        stmt = self.prepare(sql)[0].ast
        with self.read_view() as view:
            return _analyze(stmt, view.catalog, self.functions)

    @contextmanager
    def transaction(self, on_publish=None):
        """Scope several statements into one write scope and one storage
        transaction.

        Every write is one (an auto-commit statement opens its own; a
        batch of them shares the caller's).  The outermost scope commits
        or fails as a whole: committed, it is published as one version; failed — an
        exception leaves it, or its commit raises — the published version
        is reinstated, so nothing its INSERTs, UPDATEs, DELETEs or DDL did
        survives.  Under a write-ahead log the commit syncs the long
        fields the scope stored, then journals its
        :func:`~repro.db.persist.commit_record` (its catalog edits and, if
        it moved, the LFM's field table, which a rollback unwinds too).
        A data or journal device error comes before the record is intact,
        so it is an ordinary rollback.  On a raw device the storage scope
        is a no-op, so the long fields a failed scope stored stay
        allocated and unreferenced.  Databases without an LFM have no
        storage to protect.

        The scope holds ``db.rwlock`` from entry until the commit is
        durable and its snapshot published: write lock, storage scope
        (whose exit is the commit), publish, unlock.  Concurrent readers
        never observe a half-applied transaction, two writers' storage
        transactions cannot interleave, and a version is visible only once
        its commit record is on the journal.  Statements issued inside the
        scope re-enter the lock without blocking.

        ``on_publish`` — a callable receiving the published snapshot's
        sequence number — fires once, when the version becomes visible
        (right after the unlock).  The serving layer hangs its
        result-cache invalidation here.
        """
        device = self.lfm.device if self.lfm is not None else None
        was = recorder.enter("lock_wait")
        with self._rwlock:
            recorder.leave(was)
            self._txn_nesting += 1
            outermost = self._txn_nesting == 1
            if outermost:
                self._writer = threading.get_ident()
            published, watched = None, False

            def reinstate() -> None:
                self._versions.reinstate(self.catalog)

            try:
                with (device.transaction(meta_provider=lambda: commit_record(
                        self._versions, self.catalog, self.lfm))
                      if device is not None else nullcontext()):
                    # A storage transaction that can roll back reinstates
                    # with its own undo.
                    watched = (outermost and device is not None
                               and self.lfm.on_rollback(reinstate))
                    yield self
                if outermost:
                    self._publish_version()
                    published = self._versions.latest_seq
            # The scope boundary: rollback and unlock must run for
            # KeyboardInterrupt and SystemExit too.
            except BaseException:  # qblint: disable=no-broad-except
                self._versions.discard_pending()
                if outermost and not watched:
                    reinstate()
                raise
            finally:
                self._txn_nesting -= 1
                if not self._txn_nesting:
                    self._stored_cells.clear()
                    self._writer = None
        if published is not None and on_publish is not None:
            on_publish(published)

    def register_function(self, name: str, fn,
                          signature: FunctionSignature | None = None,
                          replace: bool = False) -> None:
        """Register a user-defined SQL function (the Starburst extension hook).

        A declared ``signature`` lets the analyzer type-check calls; without
        one, only arity (derived from the callable) is enforced.
        """
        self.functions.register(name, fn, signature=signature, replace=replace)

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return self.catalog.table_names()

    def __repr__(self) -> str:
        return f"Database(tables={self.catalog.table_names()})"
