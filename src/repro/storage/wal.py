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

**Journal format v2** (byte-addressed on the journal device; transactions
append until a checkpoint — ``reset_journal()``, called after the catalog
is durably saved — rewinds the head to 0, so every acknowledged commit
stays recoverable until its metadata is checkpointed elsewhere):

.. code-block:: text

    checkpoint   "QCKP" | last_txn_id u64 | ckpt_crc u32
    TXN header   "QWAL" | version u16 | reserved u16 | txn_id u64 |
                 n_pages u32 | meta_len u32 | header_crc u32 | meta bytes
    page record  page_no u64 | payload_crc u32 | page_size payload bytes
    commit       "QCMT" | txn_id u64 | commit_crc u32   (crc of all above)

``meta`` is an optional JSON blob captured at commit time: a database
write scope's commit record (:func:`repro.db.persist.commit_record`: its
catalog edits, plus the LFM's ``next_id``/``fields`` if it changed them)
or a bare LFM commit's ``next_id``/``fields``.  Recovery hands back every
replayed meta in id order (:attr:`RecoveryReport.metas`), the saved
catalog's redo log.  It scans from offset 0, accepting transactions only
while every checksum verifies and txn ids strictly increase; the first
torn or corrupt record stops the scan and discards the tail.  An intact
v1 header above the id floor raises :class:`WalError`: v1 meta never
held rows (reopen with the build that wrote it, then save).  No skip
records exist: a failed commit does not advance the append point, so
the next header overwrites its remains.

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
the DBMS-side redo buffer).  A commit is one step under the transaction
lock: append the records to the journal, ``sync`` them to stable storage,
then apply the pages to the data device (apply-at-commit) — so outside a
transaction the data device holds exactly the committed state and
``dump()`` is trivially consistent.

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
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.concurrency import guarded_by, lockdep
from repro.errors import StorageError, WalError
from repro.obs import metrics, recorder, trace
from repro.storage.device import IOStats, _page_span, _scatter_span

__all__ = ["WriteAheadLog", "RecoveryReport", "recover_journal", "WAL_VERSION"]

WAL_VERSION = 2

_TXN_MAGIC = b"QWAL"
_COMMIT_MAGIC = b"QCMT"
_CKPT_MAGIC = b"QCKP"
_HEADER = struct.Struct("<4sHHQII")   # magic, version, reserved, txn_id, n_pages, meta_len
_CRC = struct.Struct("<I")
_PAGE = struct.Struct("<QI")          # page_no, payload_crc
_COMMIT = struct.Struct("<4sQI")      # magic, txn_id, commit_crc
_CKPT = struct.Struct("<4sQI")        # magic, last_txn_id, ckpt_crc


@dataclass
class RecoveryReport:
    """What one recovery pass found in the journal."""

    replayed_txn_ids: list[int] = field(default_factory=list)
    pages_replayed: int = 0
    discarded: int = 0             #: torn/corrupt transactions dropped
    #: metadata of every replayed transaction that carried any, by txn id
    metas: list[dict] = field(default_factory=list)
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
        head_len = _HEADER.size + _CRC.size
        if pos + head_len > capacity:
            return txns, 0, pos, last_id
        blob = journal.read(pos, head_len)
        magic, version, _, txn_id, n_pages, meta_len = _HEADER.unpack(blob[:_HEADER.size])
        if magic != _TXN_MAGIC or version not in (1, WAL_VERSION):
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
        if version != WAL_VERSION:
            raise WalError(
                f"journal transaction {txn_id} is format v{version}, whose "
                f"records cannot restore rows: reopen the database with the "
                f"build that wrote it and save it, then reopen it here")
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
                report.metas.append(meta)
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
    journal holds — the report lands on :attr:`recovery`, and on
    :attr:`last_committed_meta` the newest committed metadata that carries
    a field table.

    Writes outside an explicit :meth:`transaction` scope auto-commit as a
    single-write transaction, so *every* write is journaled.
    """

    def __init__(self, device, journal, recover: bool = True,
                 next_txn_id: int = 1):
        if journal.page_size != device.page_size:
            raise WalError(
                f"journal page size {journal.page_size} does not match "
                f"data device page size {device.page_size}"
            )
        self.device = device
        self.journal = journal
        self.page_size = device.page_size
        self.capacity = device.capacity
        self.stats = IOStats()  # logical accounting; guarded_by: _stats_lock
        self._depth = 0  # guarded_by: txn
        # Commit serialization: the outermost transaction scope owns this
        # re-entrant lock from its first buffered write through its commit
        # (journal, sync, apply), so concurrent writers' commits never
        # interleave — nesting within one thread joins the outer scope.
        self._txn_lock = lockdep.instrument(
            threading.RLock(), "wal.txn", reentrant=True
        )
        self._stats_lock = lockdep.instrument(threading.Lock(), "wal.stats")
        self._dirty: dict[int, bytearray] = {}  # guarded_by: txn
        self._undo: list = []  # guarded_by: txn
        self._meta_provider = None  # guarded_by: txn
        self._owner: int | None = None  # owning thread ident; guarded_by: txn
        self._next_txn_id = max(1, int(next_txn_id))  # guarded_by: txn
        self._journal_head = 0  # append point; guarded_by: txn
        #: page images of committed transactions whose apply failed: the
        #: journal holds them, the data device does not yet.  Replaced
        #: under the transaction lock, never mutated, so a reader's
        #: reference taken before its device read stays whole.
        self._unapplied: dict[int, bytearray] = {}
        self.last_committed_meta: dict | None = None
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
            self.last_committed_meta = next(
                (m for m in reversed(self.recovery.metas) if "fields" in m),
                None)
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

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    @contextmanager
    def transaction(self, meta_provider=None):
        """Scope a transaction; nested scopes join the outermost one.

        ``meta_provider`` — a zero-argument callable evaluated at commit
        time — supplies the JSON-serializable metadata journaled in the
        transaction's header (a database write scope's commit record, the
        LFM's ``export_state``); a nested scope's counts only when the
        outermost scope brought none.  On an
        exception the buffered pages are discarded: the data device never
        saw them, so the store stays at the old state.

        The scope is thread-exclusive: a second thread opening a
        transaction blocks until the first has committed.  The outermost
        exit is the commit, one step under the transaction lock: journal
        the records, sync the journal, apply the pages.  The scope
        returns once all three are done, so whatever the caller makes
        visible afterwards is already durable.

        A commit fails — rolls back, runs the undo actions, raises — only
        while its commit record has not reached the journal.  Past that
        point the transaction is committed (recovery would replay it), so
        a data-device failure during the apply re-raises here *without*
        unwinding anything: reads keep serving the committed pages and
        the next checkpoint retries the apply.
        """
        with self._txn_lock:
            outermost = self._depth == 0
            if outermost:
                self._dirty = {}
                self._undo = []
                self._meta_provider = meta_provider
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
                if outermost:
                    self._owner = None
                    if completed:
                        was = recorder.enter("storage.wal")
                        try:
                            self._commit()
                        finally:
                            recorder.leave(was)
                    else:
                        self._rollback()

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

    @guarded_by("txn")
    def _rollback(self) -> None:
        """Discard buffered pages and unwind registered undo actions."""
        self._dirty = {}
        self._meta_provider = None
        undo, self._undo = self._undo, []
        for action in reversed(undo):
            action()
        metrics.counter("wal.rollbacks").inc()

    @guarded_by("txn")
    def _commit(self) -> None:
        """Commit the buffered transaction: journal, sync, apply."""
        if not self._dirty and self._meta_provider is None:
            self._undo = []  # nothing happened: nothing to journal
            return
        try:
            txn_id, pages, meta = self._journal_txn()
        # Cleanup-and-reraise: the commit record is not on the journal, so
        # the caller must see the old in-memory state too — whatever is
        # unwinding the stack.
        except BaseException:  # qblint: disable=no-broad-except
            self._rollback()
            raise
        # The commit record is durable: the transaction is committed even
        # if the apply below is cut short (recovery replays it).
        self._dirty = {}
        self._undo = []
        self._meta_provider = None
        if meta is not None and "fields" in meta:
            self.last_committed_meta = meta
        try:
            with trace.span("wal.apply", io=self.device.stats, txn=txn_id):
                for page_no, payload in pages:
                    self.device.write(page_no * self.page_size, bytes(payload))
        # Not a rollback: hold the images the device refused, re-raise.
        except BaseException:  # qblint: disable=no-broad-except
            self._unapplied = {**self._unapplied, **dict(pages)}
            raise
        if self._unapplied:
            # Held pages this commit rewrote are current on the device now.
            applied = {page_no for page_no, _ in pages}
            self._unapplied = {n: p for n, p in self._unapplied.items()
                               if n not in applied}

    @guarded_by("txn")
    def _journal_txn(self) -> tuple[int, list, dict | None]:
        """Write the buffered transaction's records and sync them; returns
        ``(txn_id, [(page_no, payload)] by page number, meta)``.

        Evaluates the metadata provider and checks journal capacity
        before anything moves.  The append point and the journal gauge
        advance only on success: a failed transaction leaves its torn
        record where the next commit's header will land.  Its txn id is
        spent either way, so an id names at most one attempt.
        """
        provider = self._meta_provider
        meta = provider() if provider is not None else None
        meta_bytes = json.dumps(meta).encode("ascii") if meta is not None else b""
        txn_id = self._next_txn_id
        pages = sorted(self._dirty.items())
        header = _HEADER.pack(
            _TXN_MAGIC, WAL_VERSION, 0, txn_id, len(pages), len(meta_bytes)
        )
        header += _CRC.pack(zlib.crc32(header + meta_bytes)) + meta_bytes
        total = len(header) + len(pages) * (_PAGE.size + self.page_size) \
            + _COMMIT.size
        start = self._journal_head
        if start + total > self.journal.capacity:
            raise WalError(
                f"transaction needs {total} journal bytes but only "
                f"{self.journal.capacity - start} remain; "
                f"checkpoint (save the database) to reset the journal — "
                f"nothing was written"
            )
        self._next_txn_id = txn_id + 1
        try:
            with trace.span("wal.commit", io=self.journal.stats,
                            txn=txn_id, pages=len(pages)):
                running = zlib.crc32(header)
                head = start
                self.journal.write(head, header)
                head += len(header)
                for page_no, payload in pages:
                    record = _PAGE.pack(
                        page_no, zlib.crc32(bytes(payload))
                    ) + bytes(payload)
                    running = zlib.crc32(record, running)
                    self.journal.write(head, record)
                    head += len(record)
                self.journal.write(
                    head, _COMMIT.pack(_COMMIT_MAGIC, txn_id, running)
                )
                # The write-ahead rule: the records are on stable storage
                # before any page reaches the data device and before the
                # committer is told.
                self.journal.sync(start, total)
        except BaseException:  # qblint: disable=no-broad-except
            # Reported rolled back, so it must never replay: void its
            # header.  Best effort — the journal may be the device that
            # just failed, and the next commit's header overwrites the
            # same bytes regardless.
            try:
                self.journal.write(start, bytes(_HEADER.size + _CRC.size))
            except BaseException:  # qblint: disable=no-broad-except
                pass
            raise
        self._journal_head = start + total
        metrics.counter("wal.commits").inc()
        metrics.counter("wal.flushes").inc()
        metrics.counter("wal.pages_journaled").inc(len(pages))
        metrics.counter("wal.bytes_journaled").inc(total)
        metrics.gauge("wal.journal_bytes").set(self._journal_head)
        return txn_id, pages, meta

    @guarded_by("txn")
    def _apply_held_pages(self) -> None:
        """Retry the apply an earlier data-device failure cut short.

        A checkpoint calls this first: the image it dumps must contain
        every acknowledged commit, and resetting the journal would drop
        the only other durable copy.
        """
        held = self._unapplied
        if not held:
            return
        try:
            for page_no in sorted(held):
                self.device.write(page_no * self.page_size, bytes(held[page_no]))
        except (StorageError, OSError) as exc:
            raise WalError(
                f"{len(held)} committed page(s) still cannot reach the data "
                f"device; the journal keeps them — not checkpointing"
            ) from exc
        self._unapplied = {}

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
            self._apply_held_pages()
            last_id = self._next_txn_id - 1
            body = _CKPT_MAGIC + struct.pack("<Q", last_id)
            self.journal.write(0, body + _CRC.pack(zlib.crc32(body)))
            self._journal_head = _CKPT.size
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
            page = self._dirty.get(number)
            if lo == 0 and hi == self.page_size and page is None:
                # Full-page overwrite: no read-modify-write fill needed.
                self._dirty[number] = bytearray(data[cursor:cursor + self.page_size])
            else:
                if page is None:
                    # Fault the committed image in: a held page's lives in
                    # the un-applied map, not on the device.
                    page = self._dirty[number] = bytearray(
                        self._unapplied.get(number)
                        or self.device.read(page_start, self.page_size)
                    )
                page[lo:hi] = data[cursor:cursor + (hi - lo)]
            cursor += hi - lo

    def _overlay(self, blob: bytearray, start: int, pages: dict) -> None:
        """Patch a byte range with page images from ``pages`` (page_no keyed)."""
        stop = start + len(blob)
        for number in range(start // self.page_size,
                            (stop - 1) // self.page_size + 1):
            page = pages.get(number)
            if page is None:
                continue
            page_start = number * self.page_size
            lo = max(start, page_start)
            hi = min(stop, page_start + self.page_size)
            blob[lo - start:hi - start] = page[lo - page_start:hi - page_start]

    def _overlays(self) -> list[dict]:
        """The page maps a read must patch over the device bytes, if any.

        Committed pages the device does not hold yet, then — only for the
        thread that owns the open transaction — its uncommitted writes:
        MVCC snapshot readers running concurrently must see committed
        state only.  Called *before* the device read, so a held page
        applied meanwhile still patches from the caller's reference.
        """
        maps = [self._unapplied] if self._unapplied else []
        if self._dirty and self._owner == threading.get_ident():
            maps.append(self._dirty)
        return maps

    def read(self, offset: int, length: int) -> bytes:
        """Read through the log: committed state, plus — for the thread
        that owns the open transaction — its own uncommitted writes."""
        maps = self._overlays()
        data = self.device.read(offset, length)
        with self._stats_lock:
            self.stats.add_read(*_page_span(offset, length), length)
        if not maps or not length:
            return data
        blob = bytearray(data)
        for pages in maps:
            self._overlay(blob, offset, pages)
        return bytes(blob)

    def read_ranges(self, starts, stops) -> bytes:
        """Scattered read with the same overlays (page-deduplicated)."""
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        maps = self._overlays()
        data = self.device.read_ranges(starts, stops)  # validates + accounts
        with self._stats_lock:
            self.stats.add_read(*_scatter_span(starts, stops))
        if not maps:
            return data
        out = bytearray(data)
        cursor = 0
        for start, stop in zip(starts.tolist(), stops.tolist()):
            if stop <= start:
                continue
            seg = bytearray(out[cursor:cursor + (stop - start)])
            for pages in maps:
                self._overlay(seg, start, pages)
            out[cursor:cursor + (stop - start)] = seg
            cursor += stop - start
        return bytes(out)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def dump(self, path):
        """Write the committed data image to a file."""
        with self._txn_lock:
            if self.in_transaction:
                raise WalError("cannot dump the device inside an open transaction")
            self._apply_held_pages()
            return self.device.dump(path)

    def close(self) -> None:
        """Close the journal and the underlying data device."""
        if self.in_transaction:
            raise WalError("cannot close the WAL inside an open transaction")
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
