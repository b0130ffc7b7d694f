"""Page-granular write-ahead logging for the block device.

The paper's Long Field Manager writes extents straight to a raw device;
a crash mid-write corrupts the store silently.  :class:`WriteAheadLog`
wraps a data device and journals every dirty 4 KiB page — with CRC32
checksums and a commit record — to a *separate* journal device before any
byte reaches the data device.  Any crash point therefore leaves the store
either at the old state or the new state, never between:

* crash before the commit record is durable → recovery finds a torn
  transaction, discards it, and the data device still holds the old state;
* crash after the commit record → recovery replays the journaled pages
  (idempotently) and the data device holds the new state.

**Journal format** (byte-addressed on the journal device; transactions
append until a checkpoint — ``reset_journal()``, called after the catalog
is durably saved — rewinds the head to 0, so every acknowledged commit
stays recoverable until its metadata is checkpointed elsewhere):

.. code-block:: text

    checkpoint   "QCKP" | last_txn_id u64 | ckpt_crc u32
    skip         "QSKP" | skip_len u64 | skip_crc u32   (jump skip_len bytes)
    TXN header   "QWAL" | version u16 | reserved u16 | txn_id u64 |
                 n_pages u32 | meta_len u32 | header_crc u32 | meta bytes
    page record  page_no u64 | payload_crc u32 | page_size payload bytes
    commit       "QCMT" | txn_id u64 | commit_crc u32   (crc of all above)

``meta`` is an optional JSON blob captured at commit time (the LFM
journals its field table there), so recovery can hand back the metadata
matching the replayed pages.  Recovery scans from offset 0, accepting
transactions only while every checksum verifies and txn ids strictly
increase; the first torn or corrupt record stops the scan and discards
the tail.

The skip record is how the log stays scannable after a *failed* group
flush on a live system that keeps running: the failure leaves a torn
region in the journal while later transactions have already sealed
(reserved space) beyond it, so the flush leader stamps a CRC'd skip
record over the hole and the scan jumps straight to the first record
after it.  The transactions inside the hole were reported rolled back
to their committers, so skipping them *is* the correct recovery.  If
the stamp itself fails (the journal is the broken device), the hole is
remembered and every subsequent flush refuses to journal past it —
re-attempting the repair first — so no commit is ever acknowledged that
a recovery scan could not reach.

The checkpoint record is what ``reset_journal()`` writes at offset 0: it
carries the newest txn id ever committed, so the epoch survives a
restart.  Without it, a reopened process would restart txn ids at 1 and
a later scan could walk off the end of the new (shorter) epoch onto an
intact stale record whose old id still reads as "monotonically larger" —
replaying pre-checkpoint pages over post-checkpoint data.  Recovery
seeds its monotonicity floor from the checkpoint record (and, belt and
braces, from the ``next_txn_id`` the catalog persists) and rejects any
record at or below it.

Transactions buffer dirty pages in memory (reads see them — the log is
the DBMS-side redo buffer), append to the journal at commit, then apply
to the data device (apply-at-commit) — so outside a transaction the
data device always holds exactly the committed state and ``dump()`` is
trivially consistent.

The wrapper is duck-compatible with :class:`BlockDevice`: ``stats`` holds
the *logical* I/O the client asked for (what Table 3/4 instrumentation
reads), ``data_stats`` the physical data-device I/O, and
``journal_stats`` the journal I/O — kept separate so enabling the WAL
never perturbs the paper's LFM page counts.  Activity is surfaced through
``wal.*`` metrics and ``wal.commit`` / ``wal.apply`` / ``wal.recover``
trace spans.
"""

from __future__ import annotations

import json
import struct
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.concurrency import guarded_by, lockdep
from repro.errors import StorageError, WalError
from repro.obs import metrics, recorder, trace
from repro.storage.device import IOStats, _page_span, _scatter_span

__all__ = ["WriteAheadLog", "RecoveryReport", "recover_journal", "WAL_VERSION"]

WAL_VERSION = 1

_TXN_MAGIC = b"QWAL"
_COMMIT_MAGIC = b"QCMT"
_CKPT_MAGIC = b"QCKP"
_HEADER = struct.Struct("<4sHHQII")   # magic, version, reserved, txn_id, n_pages, meta_len
_CRC = struct.Struct("<I")
_PAGE = struct.Struct("<QI")          # page_no, payload_crc
_COMMIT = struct.Struct("<4sQI")      # magic, txn_id, commit_crc
_CKPT = struct.Struct("<4sQI")        # magic, last_txn_id, ckpt_crc
_SKIP_MAGIC = b"QSKP"
_SKIP = struct.Struct("<4sQI")        # magic, skip_len, skip_crc


@dataclass
class RecoveryReport:
    """What one recovery pass found in the journal."""

    replayed_txn_ids: list[int] = field(default_factory=list)
    pages_replayed: int = 0
    discarded: int = 0             #: torn/corrupt transactions dropped
    meta: dict | None = None       #: metadata of the newest committed txn
    end_offset: int = 0            #: journal byte just past the last valid record
    last_txn_id: int = 0           #: newest id seen (checkpoint or replayed txn)

    @property
    def replayed(self) -> int:
        """Number of transactions replayed from the journal."""
        return len(self.replayed_txn_ids)

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(replayed={self.replayed_txn_ids}, "
            f"pages={self.pages_replayed}, discarded={self.discarded})"
        )


def _scan_journal(journal, last_id: int = 0) -> tuple[list, int, int, int]:
    """Parse the journal into committed transactions plus a discard count.

    Returns ``(txns, discarded, end_offset, last_id)`` where each txn is
    ``(txn_id, meta, [(page_no, payload), ...])``, ``end_offset`` is the
    byte just past the last valid record, and ``last_id`` the newest txn
    id accepted (seeded by a checkpoint record or the caller's floor).
    The scan stops at the first record that fails a magic, bounds,
    checksum, or txn-id-monotonic check; if that point lies inside a
    started transaction it counts as one discarded (torn) transaction.
    """
    page_size = journal.page_size
    capacity = journal.capacity
    txns: list[tuple[int, dict | None, list[tuple[int, bytes]]]] = []
    pos = 0
    while True:
        if pos + _CKPT.size > capacity:
            return txns, 0, pos, last_id
        probe = journal.read(pos, _CKPT.size)
        if probe[:4] == _CKPT_MAGIC:
            _, ckpt_id, ckpt_crc = _CKPT.unpack(probe)
            if ckpt_crc != zlib.crc32(probe[:_CKPT.size - _CRC.size]):
                return txns, 0, pos, last_id
            if ckpt_id < last_id:
                return txns, 0, pos, last_id
            last_id = ckpt_id
            pos += _CKPT.size
            continue
        if probe[:4] == _SKIP_MAGIC:
            _, skip_len, skip_crc = _SKIP.unpack(probe)
            if skip_crc != zlib.crc32(probe[:_SKIP.size - _CRC.size]):
                return txns, 0, pos, last_id
            if skip_len < _SKIP.size or pos + skip_len > capacity:
                return txns, 0, pos, last_id
            # A repaired hole: a group flush failed here and the leader
            # stamped the torn region over.  The transactions inside
            # were reported rolled back, so jump to the first record
            # beyond the hole (not counted as discarded — nothing
            # acknowledged is being dropped).
            pos += skip_len
            continue
        head_len = _HEADER.size + _CRC.size
        if pos + head_len > capacity:
            return txns, 0, pos, last_id
        blob = journal.read(pos, head_len)
        magic, version, _, txn_id, n_pages, meta_len = _HEADER.unpack(blob[:_HEADER.size])
        if magic != _TXN_MAGIC or version != WAL_VERSION:
            return txns, 0, pos, last_id
        (header_crc,) = _CRC.unpack(blob[_HEADER.size:])
        if pos + head_len + meta_len > capacity:
            return txns, 1, pos, last_id
        meta_bytes = journal.read(pos + head_len, meta_len) if meta_len else b""
        if header_crc != zlib.crc32(blob[:_HEADER.size] + meta_bytes):
            return txns, 1, pos, last_id
        if txn_id <= last_id:
            # A stale record from an earlier, already-checkpointed epoch.
            return txns, 0, pos, last_id
        running = zlib.crc32(blob + meta_bytes)
        cursor = pos + head_len + meta_len
        pages: list[tuple[int, bytes]] = []
        ok = True
        for _ in range(n_pages):
            record_len = _PAGE.size + page_size
            if cursor + record_len > capacity:
                ok = False
                break
            record = journal.read(cursor, record_len)
            page_no, payload_crc = _PAGE.unpack(record[:_PAGE.size])
            payload = record[_PAGE.size:]
            if payload_crc != zlib.crc32(payload):
                ok = False
                break
            running = zlib.crc32(record, running)
            pages.append((page_no, payload))
            cursor += record_len
        if not ok:
            return txns, 1, pos, last_id
        if cursor + _COMMIT.size > capacity:
            return txns, 1, pos, last_id
        commit = journal.read(cursor, _COMMIT.size)
        commit_magic, commit_id, commit_crc = _COMMIT.unpack(commit)
        if commit_magic != _COMMIT_MAGIC or commit_id != txn_id or commit_crc != running:
            return txns, 1, pos, last_id
        try:
            meta = json.loads(meta_bytes) if meta_len else None
        except ValueError:
            return txns, 1, pos, last_id
        txns.append((txn_id, meta, pages))
        last_id = txn_id
        pos = cursor + _COMMIT.size


class _CommitBatch:
    """One sealed transaction awaiting its (possibly grouped) flush.

    Built under the transaction lock by ``_seal``: journal space is
    reserved (``start``), the txn id assigned, the header+meta bytes
    rendered, and the dirty pages captured.  The flush leader writes the
    journal records and applies the pages later, outside the lock.
    """

    __slots__ = ("txn_id", "start", "head_bytes", "pages", "meta", "undo",
                 "total", "done", "error", "committed", "flushed")

    def __init__(self, txn_id, start, head_bytes, pages, meta, undo, total):
        self.txn_id = txn_id
        self.start = start
        self.head_bytes = head_bytes
        self.pages = pages          # [(page_no, payload bytearray)], sorted
        self.meta = meta
        self.undo = undo
        self.total = total
        self.done = False           # guarded_by: _commit_cond
        self.error = None           # guarded_by: _commit_cond
        #: commit record durably journaled — the batch can no longer roll
        #: back, even if a later step of the same flush fails (set by the
        #: flush leader only, read after ``done`` is observed)
        self.committed = False
        #: journal + apply + overlay-clear all completed
        self.flushed = False


def recover_journal(device, journal, next_txn_id: int = 1) -> RecoveryReport:
    """Replay committed journal transactions into ``device``; discard torn ones.

    ``next_txn_id`` is an externally persisted id floor (the catalog's,
    if any): records with ids below it predate the last checkpoint and
    are rejected even if the checkpoint record itself was torn.
    Idempotent: replaying a transaction writes the same committed page
    images, so a crash *during* recovery is healed by recovering again.
    """
    report = RecoveryReport()
    with trace.span("wal.recover", io=journal.stats):
        txns, report.discarded, report.end_offset, report.last_txn_id = \
            _scan_journal(journal, last_id=max(0, next_txn_id - 1))
        page_size = device.page_size
        for txn_id, meta, pages in txns:
            for page_no, payload in pages:
                device.write(page_no * page_size, payload)
                report.pages_replayed += 1
            report.replayed_txn_ids.append(txn_id)
            if meta is not None:
                report.meta = meta
    metrics.counter("wal.recoveries").inc()
    metrics.counter("wal.txns_replayed").inc(report.replayed)
    metrics.counter("wal.txns_discarded").inc(report.discarded)
    metrics.counter("wal.pages_replayed").inc(report.pages_replayed)
    return report


class WriteAheadLog:
    """A crash-safe, transaction-scoped wrapper around a data device.

    ``device`` holds the data pages; ``journal`` is a second (typically
    much smaller) device holding the redo log.  Construction runs
    recovery by default, replaying whatever committed transactions the
    journal holds — the report lands on :attr:`recovery` and the newest
    committed metadata on :attr:`last_committed_meta`.

    Writes outside an explicit :meth:`transaction` scope auto-commit as a
    single-write transaction, so *every* write is journaled.
    """

    def __init__(self, device, journal, recover: bool = True,
                 next_txn_id: int = 1, flush_latency: float = 0.0):
        if journal.page_size != device.page_size:
            raise WalError(
                f"journal page size {journal.page_size} does not match "
                f"data device page size {device.page_size}"
            )
        self.device = device
        self.journal = journal
        self.page_size = device.page_size
        self.capacity = device.capacity
        #: simulated fsync cost, paid once per flushed *group* — the knob
        #: the mixed-workload bench turns to model real commit-path I/O
        #: latency (in-memory devices otherwise make flushes free)
        self.flush_latency = float(flush_latency)
        self.stats = IOStats()  # logical accounting; guarded_by: _stats_lock
        self._depth = 0  # guarded_by: txn
        # Commit serialization: the outermost transaction scope owns this
        # re-entrant lock for its whole extent, so concurrent writers
        # serialize journal commits instead of interleaving dirty pages —
        # nesting within one thread still joins the outer transaction.
        # Since group commit, the lock covers buffering and *sealing*
        # only: the journal flush happens outside it, so the next writer
        # can start while this one's flush is still in flight.
        self._txn_lock = lockdep.instrument(
            threading.RLock(), "wal.txn", reentrant=True
        )
        self._stats_lock = lockdep.instrument(threading.Lock(), "wal.stats")
        self._dirty: dict[int, bytearray] = {}  # guarded_by: txn
        self._undo: list = []  # guarded_by: txn
        self._meta_provider = None  # guarded_by: txn
        self._on_sealed = None  # guarded_by: txn
        self._owner: int | None = None  # owning thread ident; guarded_by: txn
        self._next_txn_id = max(1, int(next_txn_id))  # guarded_by: txn
        self._journal_head = 0  # append point; guarded_by: txn
        # Group-commit machinery.  The condition is a deliberately
        # uninstrumented leaf: it is only ever held briefly around queue
        # and flag flips, never while acquiring another tracked lock.
        self._commit_cond = threading.Condition()
        self._commit_queue: deque[_CommitBatch] = deque()  # guarded_by: _commit_cond
        self._flusher_active = False  # guarded_by: _commit_cond
        # Sealed-but-not-yet-applied page images.  Readers overlay these
        # so committed state is visible before the (possibly grouped,
        # possibly slow) apply lands; the flusher removes entries as it
        # applies.  Maps page_no -> (txn_id, payload).
        self._pending_lock = threading.Lock()  # leaf; guards _pending
        self._pending: dict[int, tuple[int, bytearray]] = {}
        #: byte range of a journal hole left by a failed group flush that
        #: could not be skip-stamped yet (the journal itself was failing).
        #: Touched only by the flush leader and by ``reset_journal`` after
        #: a drain, which are mutually exclusive by construction.
        self._repair_pending: tuple[int, int] | None = None
        #: replication ship hooks, called by the flush leader once per
        #: committed batch, in txn-id order, after the commit record is
        #: durable.  Appended before concurrent traffic starts (replica
        #: attach); the leader reads a snapshot, so a racing append at
        #: worst misses the in-flight group — which the replica's resync
        #: path replays anyway.
        self._ship_hooks: list = []
        self.last_committed_meta: dict | None = None  # updated by the flusher
        self.recovery: RecoveryReport | None = None
        if recover:
            self.recovery = recover_journal(
                device, journal, next_txn_id=self._next_txn_id
            )
            # Ids continue across restarts: the checkpoint record (or the
            # caller's persisted floor) keeps monotonicity over the stale
            # epoch still readable beyond the journal head.
            self._next_txn_id = max(
                self._next_txn_id, self.recovery.last_txn_id + 1
            )
            # Append after the valid records (a torn tail gets overwritten).
            self._journal_head = self.recovery.end_offset
            self.last_committed_meta = self.recovery.meta
            if self.recovery.replayed or self.recovery.discarded:
                # A crash happened before this open: leave an incident
                # report behind (a clean reopen replays nothing and stays
                # quiet).
                recorder.incident("wal.recovery", trigger={
                    "replayed_txn_ids": list(self.recovery.replayed_txn_ids),
                    "pages_replayed": self.recovery.pages_replayed,
                    "discarded": self.recovery.discarded,
                    "last_txn_id": self.recovery.last_txn_id,
                })

    # ------------------------------------------------------------------ #
    # accounting views
    # ------------------------------------------------------------------ #

    @property
    def data_stats(self) -> IOStats:
        """Physical I/O that reached the data device."""
        return self.device.stats

    @property
    def journal_stats(self) -> IOStats:
        """Journal I/O — deliberately separate from the data accounting."""
        return self.journal.stats

    @property
    def in_transaction(self) -> bool:
        """Is a transaction scope currently open?"""
        return self._depth > 0

    @property
    def next_txn_id(self) -> int:
        """The id the next commit will use (persisted by ``save_database``)."""
        return self._next_txn_id

    @property
    def supports_rollback(self) -> bool:
        """Transactions here really roll back; :meth:`on_rollback` works."""
        return True

    @property
    def supports_group_commit(self) -> bool:
        """``transaction`` accepts ``on_sealed`` for early lock release."""
        return True

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    @contextmanager
    def transaction(self, meta_provider=None, on_sealed=None):
        """Scope a transaction; nested scopes join the outermost one.

        ``meta_provider`` — a zero-argument callable evaluated at commit
        time — supplies the JSON-serializable metadata journaled with the
        commit record (the LFM passes its ``export_state``).  On an
        exception the buffered pages are discarded: the data device never
        saw them, so the store stays at the old state.

        Under concurrent writers the scope is thread-exclusive: a second
        thread opening a transaction blocks until the first *seals*.
        Since group commit, commit happens in two steps: **seal** (under
        the transaction lock: evaluate metadata, reserve journal space,
        assign the txn id, capture the dirty pages as a
        :class:`_CommitBatch`) and **flush** (outside the lock: journal
        writes + apply, performed by a single leader for every batch
        queued meanwhile).  ``on_sealed`` — called once after a
        successful outermost seal, before the flush — lets the caller
        release its own outer locks early, which is what makes grouping
        possible; if it raises, the seal is retracted and the
        transaction rolls back.  This scope does not return until this
        transaction's flush completed, so durability-before-acknowledge
        is unchanged.

        A flush failure rolls the transaction back only while its commit
        record has not reached the journal.  Once the commit record is
        durable the transaction is committed — recovery would replay it —
        so a data-device failure during the apply re-raises here *without*
        unwinding state: in-memory and durable state stay in agreement
        (the committed pages keep serving from the pending overlay).
        """
        state: dict = {"batch": None}
        with self._txn_lock:
            with self._transaction_scope(meta_provider, on_sealed, state):
                yield self
        # Reached only when the scope exited cleanly (sealed): wait for —
        # or lead — the group flush, with the transaction lock released.
        batch = state["batch"]
        if batch is not None:
            self._await_flush(batch)

    @contextmanager
    def _transaction_scope(self, meta_provider=None, on_sealed=None,
                           state: dict | None = None):
        """The single-threaded transaction body (txn lock already held)."""
        if self._depth == 0:
            self._dirty = {}
            self._undo = []
            self._meta_provider = meta_provider
            self._on_sealed = on_sealed
            self._owner = threading.get_ident()
        elif meta_provider is not None and self._meta_provider is None:
            self._meta_provider = meta_provider
        self._depth += 1
        metrics.counter("wal.transactions").inc()
        completed = False
        try:
            yield self
            completed = True
        finally:
            self._depth -= 1
            if self._depth == 0:
                callback = self._on_sealed
                self._on_sealed = None
                self._owner = None
                if not completed:
                    self._rollback()
                else:
                    try:
                        batch = self._seal()
                    # Cleanup-and-reraise: even SimulatedCrash must unwind
                    # the in-memory state.
                    except BaseException:  # qblint: disable=no-broad-except
                        # The seal never reserved journal space (journal
                        # full, meta serialization failure): the caller
                        # must see the old in-memory state too.
                        self._rollback()
                        raise
                    if callback is not None:
                        try:
                            callback()
                        # Cleanup-and-reraise: a failing publish callback
                        # must not leave a sealed batch behind.
                        except BaseException:  # qblint: disable=no-broad-except
                            if batch is not None:
                                self._retract_sealed(batch)
                            raise
                    if batch is not None:
                        # Enqueue under the txn lock so queue order equals
                        # txn-id order — the flusher applies strictly in
                        # commit order even across groups.
                        with self._commit_cond:
                            self._commit_queue.append(batch)
                        if state is not None:
                            state["batch"] = batch

    def on_rollback(self, undo) -> None:
        """Register a callable run if the enclosing transaction rolls back.

        Clients mutating in-memory metadata inside a transaction (the LFM
        registering a field, the allocator carving an extent) register the
        inverse action here; if the *outermost* scope aborts — including a
        join via :meth:`~repro.db.database.Database.transaction` where the
        failure happens long after the mutating call returned — the
        callbacks run in reverse registration order, so memory state rolls
        back together with the discarded pages.  On commit they are
        dropped.
        """
        # Under the transaction lock: the registration joins the open
        # transaction it belongs to (re-entrant for the owning thread),
        # and a stray call from a non-owner thread serializes against the
        # owner's commit instead of racing the undo list.
        with self._txn_lock:
            if self._depth == 0:
                raise WalError("on_rollback requires an open transaction")
            self._undo.append(undo)

    def _rollback(self) -> None:
        """Discard buffered pages and unwind registered undo actions."""
        self._dirty = {}
        self._meta_provider = None
        undo, self._undo = self._undo, []
        for action in reversed(undo):
            action()
        metrics.counter("wal.rollbacks").inc()

    @guarded_by("txn")
    def _seal(self) -> _CommitBatch | None:
        """Turn the buffered transaction into a :class:`_CommitBatch`.

        Evaluates the metadata provider, renders the journal header,
        checks journal capacity (raising *before* any state moves, so the
        caller's rollback still unwinds everything), then atomically
        reserves journal space, assigns the txn id, registers the pages
        in the pending overlay, and detaches the dirty/undo state into
        the batch.  Returns ``None`` for an empty transaction.
        """
        dirty = self._dirty
        provider = self._meta_provider
        if not dirty and provider is None:
            # Nothing happened: no batch, nothing to flush.
            self._undo = []
            self._meta_provider = None
            return None
        meta = provider() if provider is not None else None
        meta_bytes = json.dumps(meta).encode("ascii") if meta is not None else b""
        txn_id = self._next_txn_id
        header = _HEADER.pack(
            _TXN_MAGIC, WAL_VERSION, 0, txn_id, len(dirty), len(meta_bytes)
        )
        header += _CRC.pack(zlib.crc32(header + meta_bytes))
        pages = sorted(dirty.items())
        total = len(header) + len(meta_bytes) \
            + len(pages) * (_PAGE.size + self.page_size) + _COMMIT.size
        if self._journal_head + total > self.journal.capacity:
            raise WalError(
                f"transaction needs {total} journal bytes but only "
                f"{self.journal.capacity - self._journal_head} remain; "
                f"checkpoint (save the database) to reset the journal — "
                f"nothing was written"
            )
        batch = _CommitBatch(
            txn_id, self._journal_head, header + meta_bytes, pages, meta,
            self._undo, total,
        )
        with self._pending_lock:
            for page_no, payload in pages:
                self._pending[page_no] = (txn_id, payload)
        self._next_txn_id = txn_id + 1
        self._journal_head += total
        self._dirty = {}
        self._undo = []
        self._meta_provider = None
        return batch

    @guarded_by("txn")
    def _retract_sealed(self, batch: _CommitBatch) -> None:
        """Unwind a seal whose ``on_sealed`` callback failed.

        Still under the transaction lock, so nothing else sealed after
        this batch: the journal-space reservation and txn id roll
        straight back, the pending pages come out of the overlay, and the
        undo actions unwind the in-memory state.
        """
        self._next_txn_id = batch.txn_id
        self._journal_head = batch.start
        self._clear_pending(batch)
        undo, batch.undo = batch.undo, []
        for action in reversed(undo):
            action()
        metrics.counter("wal.rollbacks").inc()

    # ------------------------------------------------------------------ #
    # group flush (leader/follower commit barrier)
    # ------------------------------------------------------------------ #

    def _await_flush(self, batch: _CommitBatch) -> None:
        """Wait until ``batch`` is flushed — becoming the leader if nobody is.

        Called with no locks held.  The first committer to arrive while
        no flush is running becomes the leader and flushes every batch
        queued so far (and any that arrive while it works); followers
        just wait on the commit barrier.  On a flush failure only the
        batches whose commit record never reached the journal unwind
        (in their own committers' threads); a batch whose commit record
        is already durable stays committed — its committer re-raises
        the device error but the in-memory state keeps the transaction,
        matching what recovery would replay.
        """
        cond = self._commit_cond
        with cond:
            while not batch.done and self._flusher_active:
                cond.wait()
            leader = not batch.done
            if leader:
                self._flusher_active = True
        if leader:
            self._lead_flushes()
        if batch.error is not None:
            if not batch.committed:
                self._undo_batch(batch)
            raise batch.error

    def _lead_flushes(self) -> None:
        """Flush queued batches, group at a time, until the queue is empty."""
        cond = self._commit_cond
        while True:
            with cond:
                group = list(self._commit_queue)
                self._commit_queue.clear()
                if not group:
                    self._flusher_active = False
                    cond.notify_all()
                    return
            error = None
            try:
                # An earlier failure may have left an unstamped hole in
                # the journal; repair it before journaling anything
                # beyond it, or recovery's scan would stop at the hole
                # and silently discard this group's commits.
                self._repair_journal_hole()
                self._flush_group(group)
            # A failure fails the erroring batch and everything after it
            # in the group.  Batches the flush already completed were
            # marked done (success) as each one finished — their journal
            # records are durable and their committers may already have
            # returned.
            except BaseException as exc:  # qblint: disable=no-broad-except
                error = exc
                self._seal_journal_hole(group)
            with cond:
                for b in group:
                    if not b.done:
                        b.error = None if b.flushed else error
                        b.done = True
                if error is not None:
                    self._flusher_active = False
                cond.notify_all()
            if error is not None:
                return

    def _complete_batch(self, batch: _CommitBatch) -> None:
        """Release one fully flushed batch's committer (leader thread)."""
        batch.flushed = True
        with self._commit_cond:
            batch.done = True
            self._commit_cond.notify_all()

    def _seal_journal_hole(self, group: list[_CommitBatch]) -> None:
        """Record — and try to stamp — the torn region of a failed group.

        The hole spans from the first batch whose commit record never
        reached the journal to the end of the group's reserved space
        (later batches may already have sealed past it, so the append
        point cannot simply rewind).  Merging with a previously recorded
        hole keeps the region contiguous: journal space is reserved
        strictly in seal order.
        """
        failed = [b for b in group if not b.committed]
        if not failed:
            return
        start = failed[0].start
        end = group[-1].start + group[-1].total
        if self._repair_pending is not None:
            start = min(start, self._repair_pending[0])
            end = max(end, self._repair_pending[1])
        self._repair_pending = (start, end)
        self._try_stamp_hole()

    def _repair_journal_hole(self) -> None:
        """Stamp any pending hole, or refuse to flush past it.

        Raising here (before the group journals anything) keeps the
        invariant that no commit is acknowledged unless a recovery scan
        can reach its records.
        """
        if self._repair_pending is None:
            return
        self._try_stamp_hole()
        if self._repair_pending is not None:
            start, end = self._repair_pending
            raise WalError(
                f"journal hole [{start}, {end}) left by a failed group "
                f"flush cannot be repaired; commits beyond it would be "
                f"unrecoverable"
            )

    def _try_stamp_hole(self) -> None:
        """Best-effort skip-record write over the recorded hole."""
        start, end = self._repair_pending
        body = _SKIP_MAGIC + struct.pack("<Q", end - start)
        try:
            self.journal.write(start, body + _CRC.pack(zlib.crc32(body)))
        # The journal may be the very device that just failed (or be
        # offline after a simulated crash): keep the hole recorded and
        # let the next leader retry before journaling anything.
        except BaseException:  # qblint: disable=no-broad-except
            return
        self._repair_pending = None
        metrics.counter("wal.holes_repaired").inc()

    def _flush_group(self, group: list[_CommitBatch]) -> None:
        """Journal + apply every batch of one group; one flush for all.

        Batches are processed in txn-id order (the queue preserves seal
        order).  Per batch the journal writes and the apply writes are
        byte-and-call identical to the pre-group-commit code path, so
        fault-injection schedules keyed on write counts replay
        unchanged; the once-per-group ``flush_latency`` sleep models the
        fsync that real group commit amortizes.

        Each batch's commit record is its point of no return: once it is
        on the journal the batch is committed (``batch.committed``) even
        if the apply — or a later batch — fails, because recovery will
        replay it.  An apply failure therefore leaves the batch's pages
        in the pending overlay (readers keep seeing the committed image)
        instead of rolling anything back.  Fully flushed batches release
        their committers immediately, so a failure on a later batch can
        never retroactively "fail" an earlier durable commit.
        """
        for batch in group:
            with trace.span("wal.commit", io=self.journal.stats,
                            txn=batch.txn_id, pages=len(batch.pages)):
                running = zlib.crc32(batch.head_bytes)
                head = batch.start
                self.journal.write(head, batch.head_bytes)
                head += len(batch.head_bytes)
                for page_no, payload in batch.pages:
                    record = _PAGE.pack(
                        page_no, zlib.crc32(bytes(payload))
                    ) + bytes(payload)
                    running = zlib.crc32(record, running)
                    self.journal.write(head, record)
                    head += len(record)
                self.journal.write(
                    head, _COMMIT.pack(_COMMIT_MAGIC, batch.txn_id, running)
                )
            # The commit record is durable: the transaction is committed
            # even if the apply below is cut short (recovery replays it).
            batch.committed = True
            if batch.meta is not None:
                self.last_committed_meta = batch.meta
            metrics.counter("wal.commits").inc()
            metrics.counter("wal.pages_journaled").inc(len(batch.pages))
            metrics.counter("wal.bytes_journaled").inc(batch.total)
            metrics.gauge("wal.journal_bytes").set(batch.start + batch.total)
            with trace.span("wal.apply", io=self.device.stats, txn=batch.txn_id):
                for page_no, payload in batch.pages:
                    self.device.write(page_no * self.page_size, bytes(payload))
            self._clear_pending(batch)
            self._complete_batch(batch)
            self._ship_batch(batch)
        metrics.counter("wal.flushes").inc()
        if len(group) > 1:
            metrics.counter("wal.group_commits").inc()
            metrics.counter("wal.grouped_txns").inc(len(group))
        if self.flush_latency:
            time.sleep(self.flush_latency)

    def add_ship_hook(self, hook) -> None:
        """Register a replication hook: ``hook(batch)`` per committed batch.

        The flush leader calls every hook once per batch, in txn-id
        order, *after* the batch's commit record is durable and its
        committer has been released — so shipping observes exactly the
        committed prefix of the transaction stream and can never delay
        or fail a commit.  Hook exceptions are swallowed (counted as
        ``wal.ship_errors``): a broken replica link must not take down
        the primary's write path; the replica resyncs when it reattaches.
        """
        self._ship_hooks.append(hook)

    def _ship_batch(self, batch: _CommitBatch) -> None:
        """Offer one committed batch to every registered ship hook."""
        for hook in list(self._ship_hooks):
            try:
                hook(batch)
            # Replication is strictly best-effort on the commit path; any
            # failure is the *replica's* problem (resync) — see
            # add_ship_hook's contract.
            except BaseException:  # qblint: disable=no-broad-except
                metrics.counter("wal.ship_errors").inc()

    def _clear_pending(self, batch: _CommitBatch) -> None:
        """Drop ``batch``'s pages from the pending overlay (if still its own).

        A later transaction that rewrote the same page owns the entry
        now; the txn-id check leaves it in place.
        """
        with self._pending_lock:
            for page_no, _ in batch.pages:
                entry = self._pending.get(page_no)
                if entry is not None and entry[0] == batch.txn_id:
                    del self._pending[page_no]

    def _undo_batch(self, batch: _CommitBatch) -> None:
        """Unwind one failed batch's in-memory state (committer thread)."""
        self._clear_pending(batch)
        # The committer no longer holds the txn lock here; take it so the
        # undo actions (which mutate txn-guarded LFM state) cannot race a
        # concurrent transaction.
        with self._txn_lock:
            undo, batch.undo = batch.undo, []
            for action in reversed(undo):
                action()
        metrics.counter("wal.rollbacks").inc()

    def _drain_flushes(self) -> None:
        """Block until no flush is running and no batch is queued.

        Every queued batch has a committer inside :meth:`_await_flush`
        that will lead its own flush if needed, so this always
        terminates.  Callers that need the journal/device quiescent
        (checkpoint, dump, close) drain first.
        """
        with self._commit_cond:
            while self._commit_queue or self._flusher_active:
                self._commit_cond.wait()

    def reset_journal(self) -> None:
        """Invalidate the journal (after the catalog checkpointed elsewhere).

        Writes a checkpoint record at offset 0 carrying the newest
        committed txn id.  Stale transaction records beyond it stay on the
        device, but recovery seeds its monotonicity floor from the
        checkpoint, so they can never be replayed — even after a restart
        that would otherwise restart txn ids at 1 and make an old id look
        monotonically fresh again.
        """
        # Hold the transaction lock: a checkpoint racing another thread's
        # open transaction waits for its commit instead of moving the
        # append point underneath it.  Re-entrant, so a reset attempted
        # from *inside* a transaction still reaches the depth check below.
        with self._txn_lock:
            if self.in_transaction:
                raise WalError("cannot reset the journal inside a transaction")
            # Quiesce in-flight group flushes before moving the append
            # point: holding the txn lock means no *new* batch can seal
            # while we wait, and every already-sealed batch has a
            # committer driving it to completion.
            self._drain_flushes()
            last_id = self._next_txn_id - 1
            body = _CKPT_MAGIC + struct.pack("<Q", last_id)
            self.journal.write(0, body + _CRC.pack(zlib.crc32(body)))
            self._journal_head = _CKPT.size
            # Any unstamped hole lies in the invalidated epoch now: the
            # checkpoint's txn-id floor already stops the scan before it.
            self._repair_pending = None
            metrics.gauge("wal.journal_bytes").set(self._journal_head)

    # ------------------------------------------------------------------ #
    # device duck interface
    # ------------------------------------------------------------------ #

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise StorageError(
                f"access [{offset}, {offset + length}) outside device of "
                f"capacity {self.capacity}"
            )

    def _dirty_page(self, number: int) -> bytearray:
        """The transaction-local image of one page, faulting it in on demand.

        The fill reads through the pending overlay: a page committed by
        an earlier transaction whose grouped apply has not landed yet
        must seed this transaction's read-modify-write with the
        *committed* image, not the stale device bytes.  The overlay is
        snapshotted *before* the device read — a concurrent flush can
        apply the page and clear its entry mid-read, and patching from
        the pre-read snapshot is what keeps the committed image either
        way (no new entry can appear: sealing needs the txn lock this
        thread holds).
        """
        page = self._dirty.get(number)
        if page is None:
            start = number * self.page_size
            snap = self._snapshot_pending()
            page = bytearray(self.device.read(start, self.page_size))
            if snap is not None and number in snap:
                page[:] = snap[number]
            self._dirty[number] = page
        return page

    def write(self, offset: int, data: bytes) -> None:
        """Buffer a write into the open transaction (auto-commit outside one).

        The transaction join is unconditional: outside any scope the write
        auto-commits; inside one it joins (re-entrant lock).  A write
        racing *another thread's* open transaction blocks on the
        transaction lock instead of interleaving its pages into that
        thread's buffer.
        """
        self._check_range(offset, len(data))
        with self.transaction():
            self._buffer_write(offset, data)

    @guarded_by("txn")
    def _buffer_write(self, offset: int, data: bytes) -> None:
        """Stage one write in the open transaction's dirty-page buffer."""
        with self._stats_lock:
            self.stats.add_write(*_page_span(offset, len(data)), len(data))
        if not data:
            return
        first = offset // self.page_size
        last = (offset + len(data) - 1) // self.page_size
        cursor = 0
        for number in range(first, last + 1):
            page_start = number * self.page_size
            lo = max(offset, page_start) - page_start
            hi = min(offset + len(data), page_start + self.page_size) - page_start
            if lo == 0 and hi == self.page_size and number not in self._dirty:
                # Full-page overwrite: no read-modify-write fill needed.
                self._dirty[number] = bytearray(data[cursor:cursor + self.page_size])
            else:
                self._dirty_page(number)[lo:hi] = data[cursor:cursor + (hi - lo)]
            cursor += hi - lo

    def _overlay_from(self, blob: bytearray, start: int,
                      pages: dict) -> bytearray:
        """Patch a byte range with page images from ``pages`` (page_no keyed)."""
        stop = start + len(blob)
        first = start // self.page_size
        last = (stop - 1) // self.page_size if stop > start else first
        for number in range(first, last + 1):
            page = pages.get(number)
            if page is None:
                continue
            page_start = number * self.page_size
            lo = max(start, page_start)
            hi = min(stop, page_start + self.page_size)
            blob[lo - start:hi - start] = page[lo - page_start:hi - page_start]
        return blob

    def _overlay(self, blob: bytearray, start: int) -> bytearray:
        """Patch a byte range read from the device with dirty-page contents."""
        return self._overlay_from(blob, start, self._dirty)

    def _snapshot_pending(self) -> dict[int, bytearray] | None:
        """Copy the pending overlay map (page_no -> committed payload).

        Taken *before* a device read, so the committed image of any page
        the flush leader applies-and-clears while the read is in flight
        still patches the result.  Payloads are immutable after seal, so
        holding references (not copies) is safe.
        """
        if not self._pending:
            return None
        with self._pending_lock:
            if not self._pending:
                return None
            return {number: entry[1]
                    for number, entry in self._pending.items()}

    def _overlay_pending(self, blob: bytearray, start: int) -> bytearray:
        """Patch a byte range with committed-but-not-yet-applied pages."""
        snap = self._snapshot_pending()
        return blob if snap is None else self._overlay_from(blob, start, snap)

    def _sees_own_writes(self) -> bool:
        """Is the calling thread the owner of the open transaction?

        Only the owning thread overlays the uncommitted dirty buffer
        onto its reads: MVCC snapshot readers running concurrently must
        see committed state only, never another thread's in-flight
        transaction.
        """
        return bool(self._dirty) and self._owner == threading.get_ident()

    def read(self, offset: int, length: int) -> bytes:
        """Read through the log: committed state, plus — for the thread
        that owns the open transaction — its own uncommitted writes.

        The pending overlay is snapshotted *before* the device read and
        re-checked after: a concurrent group flush can apply a page and
        clear its overlay entry between the two, and a device read that
        captured the pre-apply bytes must still be patched with the
        committed image (MVCC snapshot readers pinned to the published
        version would otherwise observe pre-commit state).
        """
        snap = self._snapshot_pending() if length else None
        data = self.device.read(offset, length)
        with self._stats_lock:
            self.stats.add_read(*_page_span(offset, length), length)
        if not length:
            return data
        blob = None
        if snap is not None:
            blob = self._overlay_from(bytearray(data), offset, snap)
        if self._pending:
            # Entries sealed while the device read was in flight carry
            # newer committed images and override the snapshot's.
            blob = self._overlay_pending(
                blob if blob is not None else bytearray(data), offset
            )
        if self._sees_own_writes():
            blob = self._overlay(blob if blob is not None else bytearray(data), offset)
        return bytes(blob) if blob is not None else data

    def read_ranges(self, starts, stops) -> bytes:
        """Scattered read with overlays (page-deduplicated).

        Same pre-read pending snapshot as :meth:`read`: a grouped apply
        racing this read cannot strip the committed overlay from bytes
        captured before it landed.
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        snap = self._snapshot_pending()
        data = self.device.read_ranges(starts, stops)  # validates + accounts
        with self._stats_lock:
            self.stats.add_read(*_scatter_span(starts, stops))
        pending = bool(self._pending)
        own = self._sees_own_writes()
        if snap is None and not pending and not own:
            return data
        out = bytearray(data)
        cursor = 0
        for start, stop in zip(starts.tolist(), stops.tolist()):
            if stop <= start:
                continue
            seg = bytearray(out[cursor:cursor + (stop - start)])
            if snap is not None:
                self._overlay_from(seg, start, snap)
            if pending:
                self._overlay_pending(seg, start)
            if own:
                self._overlay(seg, start)
            out[cursor:cursor + (stop - start)] = seg
            cursor += stop - start
        return bytes(out)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def dump(self, path):
        """Write the committed data image to a file."""
        if self.in_transaction:
            raise WalError("cannot dump the device inside an open transaction")
        self._drain_flushes()
        return self.device.dump(path)

    def close(self) -> None:
        """Close the journal and the underlying data device."""
        if self.in_transaction:
            raise WalError("cannot close the WAL inside an open transaction")
        self._drain_flushes()
        self.journal.close()
        self.device.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = f"txn depth {self._depth}" if self._depth else "idle"
        return (
            f"WriteAheadLog({self.device!r}, journal={self.journal.capacity} "
            f"bytes, {state})"
        )
