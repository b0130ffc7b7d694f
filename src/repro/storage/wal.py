"""Metadata write-ahead logging over a write-once data device.

A long field is write-once: :meth:`LongFieldManager.create` fills a
freshly allocated extent that no committed field table references, and
nothing rewrites it in place.  So, like the Starburst Long Field Manager
the paper ran on (Lehman and Lindsay, VLDB 1989), :class:`WriteAheadLog`
never logs long-field data.  A write goes straight to the data device
and the log remembers its byte range; a commit forces those ranges to
stable storage, then appends one record carrying the transaction's
metadata and forces that.  Any crash point leaves the store at the old
state or the new state, never between:

* crash before the record is durable → recovery finds a torn record,
  discards it, and the metadata is the old state's; the extents the
  transaction wrote lie in space that no committed field table claims,
  so :meth:`LongFieldManager.restore` leaves them free;
* crash after the record → recovery hands back its metadata, and the
  extents it names were on stable storage before the record was.

Frees wait for the commit (see :meth:`WriteAheadLog.on_commit`), so a
transaction never writes over bytes its old state still references.

The journal (format v3) holds a checkpoint record and one record per
commit carrying its metadata as JSON: a database write scope's commit
record (:func:`repro.db.persist.commit_record`) or a bare LFM commit's
``export_state``.  DESIGN.md ("Durability") lays the records out and
gives the rules the recovery scan applies; an intact v1 or v2 record
above its id floor is refused with :class:`WalError`.

The wrapper is duck-compatible with :class:`BlockDevice`: ``stats`` holds
the *logical* I/O the client asked for (what Table 3/4 instrumentation
reads), ``data_stats`` the physical data-device I/O, and
``journal_stats`` the journal I/O.  Activity is surfaced through
``wal.*`` metrics.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.concurrency import guarded_by, lockdep
from repro.errors import StorageError, WalError
from repro.obs import metrics, recorder
from repro.storage.device import IOStats, _page_span

__all__ = ["WriteAheadLog", "RecoveryReport", "recover_journal", "WAL_VERSION"]

_RECOVERIES = metrics.counter("wal.recoveries")
_TXNS_REPLAYED = metrics.counter("wal.txns_replayed")
_TXNS_DISCARDED = metrics.counter("wal.txns_discarded")
_TRANSACTIONS = metrics.counter("wal.transactions")
_ROLLBACKS = metrics.counter("wal.rollbacks")
_COMMITS = metrics.counter("wal.commits")
_FLUSHES = metrics.counter("wal.flushes")
_BYTES_JOURNALED = metrics.counter("wal.bytes_journaled")
_JOURNAL_BYTES = metrics.gauge("wal.journal_bytes")

WAL_VERSION = 3

_TXN_MAGIC = b"QWAL"
_CKPT_MAGIC = b"QCKP"
_HEADER = struct.Struct("<4sHHQI")     # magic, version, reserved, txn_id, meta_len
#: the v1/v2 header, read only to recognise (and refuse) an old record
_OLD_HEADER = struct.Struct("<4sHHQII")  # ..., txn_id, n_pages, meta_len
_CRC = struct.Struct("<I")
_CKPT = struct.Struct("<4sQI")        # magic, last_txn_id, ckpt_crc


@dataclass
class RecoveryReport:
    """What one recovery pass found in the journal."""

    replayed_txn_ids: list[int] = field(default_factory=list)
    discarded: int = 0             #: torn/corrupt transactions dropped
    #: metadata of every replayed transaction, by txn id
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
            f"discarded={self.discarded})"
        )


def _intact(journal, pos: int, header: struct.Struct):
    """``(fields, meta_bytes, end)`` of the record at ``pos`` laid out
    with ``header``, or None if it runs off the device or fails its CRC."""
    head_len = header.size + _CRC.size
    if pos + head_len > journal.capacity:
        return None
    blob = journal.read(pos, head_len)
    fields = header.unpack_from(blob)
    end = pos + head_len + fields[-1]
    if end > journal.capacity:
        return None
    meta_bytes = journal.read(pos + head_len, fields[-1])
    if _CRC.unpack_from(blob, header.size)[0] != zlib.crc32(
            blob[:header.size] + meta_bytes):
        return None
    return fields, meta_bytes, end


def _scan_journal(journal, last_id: int = 0) -> tuple[list, int, int, int]:
    """Parse the journal into committed transactions plus a discard count.

    Returns ``(txns, discarded, end_offset, last_id)`` where each txn is
    ``(txn_id, meta)``, ``end_offset`` is the byte just past the last
    valid record, and ``last_id`` the newest txn id accepted (seeded by a
    checkpoint record or the caller's floor).  The scan stops at the
    first record that fails a magic, bounds, checksum, or
    txn-id-monotonic check; a record that starts well but fails its
    checksum counts as one discarded (torn) transaction.
    """
    txns: list[tuple[int, dict]] = []
    pos = 0
    while True:
        if pos + _CKPT.size > journal.capacity:
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
        version = struct.unpack_from("<H", probe, 4)[0]
        if probe[:4] != _TXN_MAGIC or version not in (1, 2, WAL_VERSION):
            return txns, 0, pos, last_id
        record = _intact(journal, pos,
                         _HEADER if version == WAL_VERSION else _OLD_HEADER)
        if record is None:
            return txns, 1, pos, last_id
        (_, _, _, txn_id, *_), meta_bytes, end = record
        if txn_id <= last_id:
            # A stale record from an earlier, already-checkpointed epoch.
            return txns, 0, pos, last_id
        if version != WAL_VERSION:
            raise WalError(
                f"journal transaction {txn_id} is format v{version}, whose "
                f"records this build cannot replay: reopen the database with "
                f"the build that wrote it and save it, then reopen it here")
        try:
            meta = json.loads(meta_bytes)
        except ValueError:
            return txns, 1, pos, last_id
        txns.append((txn_id, meta))
        last_id = txn_id
        pos = end


def recover_journal(journal, next_txn_id: int = 1) -> RecoveryReport:
    """Read the committed metadata out of ``journal``; discard torn records.

    ``next_txn_id`` is an externally persisted id floor (the catalog's,
    if any): records with ids below it predate the last checkpoint and
    are rejected even if the checkpoint record itself was torn.  Writes
    nothing, so recovering twice gives the same report.
    """
    report = RecoveryReport()
    txns, report.discarded, report.end_offset, report.last_txn_id = \
        _scan_journal(journal, last_id=max(0, next_txn_id - 1))
    for txn_id, meta in txns:
        report.replayed_txn_ids.append(txn_id)
        report.metas.append(meta)
    _RECOVERIES.inc()
    _TXNS_REPLAYED.inc(report.replayed)
    _TXNS_DISCARDED.inc(report.discarded)
    return report


class WriteAheadLog:
    """A crash-safe, transaction-scoped wrapper around a data device.

    ``device`` holds the long fields; ``journal`` is a second (typically
    much smaller) device holding the metadata log.  Construction runs
    recovery by default — the report lands on :attr:`recovery`, and on
    :attr:`last_committed_meta` the newest committed metadata that carries
    a field table.

    Writes outside an explicit :meth:`transaction` scope auto-commit as a
    single-write transaction.
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
        # re-entrant lock from its first write through its commit, so
        # concurrent writers' commits never interleave — nesting within
        # one thread joins the outer scope.
        self._txn_lock = lockdep.instrument(
            threading.RLock(), "wal.txn", reentrant=True
        )
        self._stats_lock = lockdep.instrument(threading.Lock(), "wal.stats")
        self._extents: list[tuple[int, int]] = []  # guarded_by: txn
        self._undo: list = []  # guarded_by: txn
        self._after: list = []  # guarded_by: txn
        self._meta_provider = None  # guarded_by: txn
        self._next_txn_id = max(1, int(next_txn_id))  # guarded_by: txn
        self._journal_head = 0  # append point; guarded_by: txn
        self.last_committed_meta: dict | None = None
        self.recovery: RecoveryReport | None = None
        if recover:
            self.recovery = recover_journal(
                journal, next_txn_id=self._next_txn_id
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
        time — supplies the JSON-serializable metadata the commit record
        carries (a database write scope's commit record, the LFM's
        ``export_state``); a nested scope's counts only when the
        outermost scope brought none.

        The scope is thread-exclusive: a second thread opening a
        transaction blocks until the first has committed.  The outermost
        exit is the commit, one step under the transaction lock: ``sync``
        the extents the transaction wrote, then append the record and
        ``sync`` it; the scope returns with the commit durable.  A commit
        that raises — metadata too big for the journal, a data or journal
        device error — has written no intact record: it rolls back, runs
        the undo actions and re-raises.  Its extents stay where they are,
        in space no committed field table claims.
        """
        with self._txn_lock:
            outermost = self._depth == 0
            if outermost:
                self._extents = []
                self._undo = []
                self._after = []
                self._meta_provider = meta_provider
            elif meta_provider is not None and self._meta_provider is None:
                self._meta_provider = meta_provider
            self._depth += 1
            _TRANSACTIONS.inc()
            completed = False
            try:
                yield self
                completed = True
            finally:
                self._depth -= 1
                if outermost:
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
        callbacks run in reverse registration order.  On commit they are
        dropped.
        """
        self._register(self._undo, undo)

    def on_commit(self, action) -> None:
        """Register a callable run once the enclosing transaction's commit
        record is durable; dropped on rollback.  The LFM frees a deleted
        field's extent here, so no write of the same transaction can land
        on bytes the old state still references."""
        self._register(self._after, action)

    def _register(self, actions: list, action) -> None:
        # Under the transaction lock: the registration joins the open
        # transaction it belongs to (re-entrant for the owning thread),
        # and a stray call from a non-owner thread serializes against the
        # owner's commit instead of racing the list.
        with self._txn_lock:
            if self._depth == 0:
                raise WalError("registering an action requires an open transaction")
            actions.append(action)

    @guarded_by("txn")
    def _rollback(self) -> None:
        """Forget the transaction's extents and unwind its undo actions."""
        self._extents = []
        self._after = []
        self._meta_provider = None
        undo, self._undo = self._undo, []
        for action in reversed(undo):
            action()
        _ROLLBACKS.inc()

    @guarded_by("txn")
    def _commit(self) -> None:
        """Commit the open transaction: sync its extents, then journal its
        metadata; runs the commit actions once the record is durable."""
        provider = self._meta_provider
        meta = None
        try:
            if self._extents:
                # One sync over the span of the extents: each call is an
                # fdatasync of its range, and clean pages in between cost
                # nothing to flush.
                first = min(offset for offset, _ in self._extents)
                end = max(offset + length for offset, length in self._extents)
                self.device.sync(first, end - first)
            if provider is not None:
                meta = provider()
                self._journal(meta)
        # Cleanup-and-reraise: no intact record is on the journal, so the
        # caller must see the old in-memory state too — whatever is
        # unwinding the stack.
        except BaseException:  # qblint: disable=no-broad-except
            self._rollback()
            raise
        after = self._after
        self._extents, self._undo, self._after = [], [], []
        self._meta_provider = None
        if meta is not None and "fields" in meta:
            self.last_committed_meta = meta
        for action in after:
            action()

    @guarded_by("txn")
    def _journal(self, meta: dict) -> None:
        """Write the commit record carrying ``meta`` and sync it.

        Checks journal capacity before anything moves.  The append point
        and the journal gauge advance only on success: a failed commit
        leaves its torn record where the next commit's will land.  Its
        txn id is spent either way, so an id names at most one attempt.
        """
        meta_bytes = json.dumps(meta).encode("ascii")
        txn_id = self._next_txn_id
        header = _HEADER.pack(_TXN_MAGIC, WAL_VERSION, 0, txn_id, len(meta_bytes))
        record = header + _CRC.pack(zlib.crc32(header + meta_bytes)) + meta_bytes
        start = self._journal_head
        if start + len(record) > self.journal.capacity:
            raise WalError(
                f"commit record needs {len(record)} journal bytes but only "
                f"{self.journal.capacity - start} remain; checkpoint (save the "
                f"database) to reset the journal — nothing was committed"
            )
        self._next_txn_id = txn_id + 1
        try:
            self.journal.write(start, record)
            # The write-ahead rule, for metadata: the record is on
            # stable storage before the committer is told.
            self.journal.sync(start, len(record))
        except BaseException:  # qblint: disable=no-broad-except
            # Reported rolled back, so it must never replay: void its
            # header.  Best effort — the journal may be the device that
            # just failed, and the next commit's record overwrites the
            # same bytes regardless.
            try:
                self.journal.write(start, bytes(_HEADER.size + _CRC.size))
            except BaseException:  # qblint: disable=no-broad-except
                pass
            raise
        self._journal_head = start + len(record)
        _COMMITS.inc()
        _FLUSHES.inc()
        _BYTES_JOURNALED.inc(len(record))
        _JOURNAL_BYTES.set(self._journal_head)

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
            last_id = self._next_txn_id - 1
            body = _CKPT_MAGIC + struct.pack("<Q", last_id)
            self.journal.write(0, body + _CRC.pack(zlib.crc32(body)))
            self._journal_head = _CKPT.size
            _JOURNAL_BYTES.set(self._journal_head)

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
        """Write a fresh extent straight to the data device.

        The range must be one no committed metadata references — the
        LFM's new extents are — because nothing journals its old bytes.
        The write joins the open transaction (auto-commits outside one),
        whose commit syncs the range before its record.  A write racing
        *another thread's* open transaction blocks on the transaction
        lock.
        """
        self._check_range(offset, len(data))
        with self.transaction():
            with self._stats_lock:
                self.stats.add_write(*_page_span(offset, len(data)), len(data))
            if data:
                self.device.write(offset, data)
                self._extents.append((offset, len(data)))

    def read(self, offset: int, length: int) -> bytes:
        """Read from the data device, accounted as logical I/O."""
        data = self.device.read(offset, length)
        with self._stats_lock:
            self.stats.add_read(*_page_span(offset, length), length)
        return data

    def read_ranges(self, starts, stops) -> bytes:
        """Scattered read from the data device (page-deduplicated)."""
        data, span = self.device.read_ranges_accounted(starts, stops)
        with self._stats_lock:
            self.stats.add_read(*span)
        return data

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def dump(self, path):
        """Write the data image to a file (refused inside a transaction)."""
        with self._txn_lock:
            if self.in_transaction:
                raise WalError("cannot dump the device inside an open transaction")
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
