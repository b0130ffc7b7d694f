"""Crash-consistency suite: enumerate every crash point, recover, verify.

The headline harness runs a fixed LFM workload — create A, create B,
delete A, create C, each its own transaction — over a data device and a
WAL journal that share one :class:`FaultSchedule`.  A fault-free dry run
counts the workload's total write calls; the suite then replays the
workload once per write index, crashing there, harvesting the surviving
device images, rebooting into recovery, and asserting the recovered store
equals one of the canonical between-transaction states — *old or new,
never in between* — with every surviving field's bytes exact.

Also covered: checksum detection of silent bit flips, idempotent recovery
(a crash *during* recovery heals on the next attempt), journal exhaustion
failing cleanly, atomic save/load with the journal-meta-wins rule, and
the Table 3/4 bit-identity guarantee with the WAL disabled and enabled.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.workloads import run_table3, run_table4
from repro.core import QbismSystem
from repro.db.database import Database
from repro.db.persist import load_database, save_database
from repro.errors import DatabaseError, SimulatedCrash, WalError
from repro.storage import (
    BlockDevice,
    FaultSchedule,
    FaultyDevice,
    LongFieldManager,
    WriteAheadLog,
    recover_journal,
)

CAPACITY = 1 << 20
JOURNAL_CAPACITY = 1 << 20

PAYLOAD_A = bytes(range(256)) * 20          # 5120 bytes, 2 pages
PAYLOAD_B = b"\xa5\x5a" * 4500              # 9000 bytes, 3 pages
PAYLOAD_C = b"qbism1994" * 600              # 5400 bytes, 2 pages


def build_stack(schedule: FaultSchedule | None = None,
                data_image: bytes | None = None,
                journal_image: bytes | None = None,
                recover: bool = True):
    """A WAL + LFM stack, optionally fault-injected and/or pre-imaged."""
    data = BlockDevice(CAPACITY)
    journal = BlockDevice(JOURNAL_CAPACITY)
    if data_image is not None:
        data.write(0, data_image)
    if journal_image is not None:
        journal.write(0, journal_image)
    fdata, fjournal = data, journal
    if schedule is not None:
        fdata = FaultyDevice(data, schedule, name="data")
        fjournal = FaultyDevice(journal, schedule, name="journal")
    wal = WriteAheadLog(fdata, fjournal, recover=recover)
    return wal, fdata, fjournal


def run_workload(lfm: LongFieldManager) -> int:
    """The canonical four-transaction workload; returns steps completed."""
    a = lfm.create(PAYLOAD_A)
    lfm.create(PAYLOAD_B)
    lfm.delete(a)
    lfm.create(PAYLOAD_C)
    return 4


def state_key(lfm: LongFieldManager) -> str:
    """A canonical fingerprint of the LFM: field table + every field's bytes."""
    state = lfm.export_state()
    contents = {
        field_id: lfm.read(lfm.handle(int(field_id))).hex()
        for field_id in state["fields"]
    }
    return json.dumps({"state": state, "contents": contents}, sort_keys=True)


def canonical_states() -> list[str]:
    """Fingerprints S0..S4 of the store between the workload's transactions."""
    wal, _, _ = build_stack(recover=False)
    lfm = LongFieldManager(wal)
    states = [state_key(lfm)]
    a = lfm.create(PAYLOAD_A)
    states.append(state_key(lfm))
    lfm.create(PAYLOAD_B)
    states.append(state_key(lfm))
    lfm.delete(a)
    states.append(state_key(lfm))
    lfm.create(PAYLOAD_C)
    states.append(state_key(lfm))
    assert len(set(states)) == 5, "workload states must be distinguishable"
    return states


def count_workload_writes() -> int:
    """Fault-free dry run counting every write call the workload issues."""
    schedule = FaultSchedule(seed=0, crash_after_writes=None)
    wal, _, _ = build_stack(schedule, recover=False)
    run_workload(LongFieldManager(wal))
    return schedule.writes_seen


def recover_from_wreck(fdata: FaultyDevice, fjournal: FaultyDevice) -> tuple:
    """Harvest the crashed devices, reboot, recover; returns (wal, lfm)."""
    wal, _, _ = build_stack(
        data_image=fdata.snapshot(), journal_image=fjournal.snapshot()
    )
    meta = wal.last_committed_meta or {"next_id": 1, "fields": {}}
    return wal, LongFieldManager.restore(wal, meta)


TOTAL_WRITES = count_workload_writes()
STATES = canonical_states()


class TestCrashPointEnumeration:
    """Every crash point must recover to an adjacent canonical state."""

    @pytest.mark.parametrize("torn", ["prefix", "pages", "none"])
    @pytest.mark.parametrize("crash_at", range(1, TOTAL_WRITES + 1))
    def test_crash_point_recovers_to_old_or_new_state(
        self, crash_at, torn, test_seed
    ):
        schedule = FaultSchedule(
            seed=test_seed, crash_after_writes=crash_at, torn=torn
        )
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        completed = 0
        try:
            lfm_a = lfm.create(PAYLOAD_A)
            completed = 1
            lfm.create(PAYLOAD_B)
            completed = 2
            lfm.delete(lfm_a)
            completed = 3
            lfm.create(PAYLOAD_C)
            completed = 4
        except SimulatedCrash:
            pass
        assert completed < 4, "the schedule must actually crash the workload"
        _, recovered = recover_from_wreck(fdata, fjournal)
        key = state_key(recovered)
        allowed = {STATES[completed], STATES[completed + 1]}
        assert key in allowed, (
            f"crash at write {crash_at} (torn={torn}) recovered to a state "
            f"that is neither S{completed} nor S{completed + 1}; replay with "
            f"{schedule.describe()}"
        )

    def test_workload_without_faults_reaches_final_state(self):
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        assert run_workload(lfm) == 4
        assert state_key(lfm) == STATES[4]

    def test_crash_point_enumeration_is_exhaustive(self):
        # The dry run's write count covers journal AND data writes: the
        # parametrized sweep above therefore hits every journaling point
        # and every apply point of all four transactions.
        assert TOTAL_WRITES >= 16, (
            f"expected a rich crash surface, got {TOTAL_WRITES} writes"
        )


class TestCommitBytesPinned:
    """The enumeration workload's journal image, write count and write-call
    order, recorded at rev ce8338a (the last build with group commit):
    a commit issues the same ``write`` calls with the same bytes."""

    WRITES_SEEN = 22
    JOURNAL_SHA256 = \
        "fe511c6ca234c8409d262a294faaa774a1972117d632da1d1206469eb1b44614"
    DATA_SHA256 = \
        "98174cb92433e2326122f6a1d1cb0108a79fa7697308e91e9a43c37d64357a16"
    WRITE_CALLS_SHA256 = \
        "d2d5d8c27438792451671bc365b646dfcffc83a7c06230b5afbaf2d236a3295a"

    def test_journal_image_and_write_calls_match_the_pins(self):
        calls: list[tuple[str, int, int]] = []

        class Recording(FaultyDevice):
            def write(self, offset, data):
                calls.append((self.name, offset, len(data)))
                super().write(offset, data)

        schedule = FaultSchedule(seed=0, crash_after_writes=None)
        fdata = Recording(BlockDevice(CAPACITY), schedule, name="data")
        fjournal = Recording(BlockDevice(JOURNAL_CAPACITY), schedule,
                             name="journal")
        run_workload(LongFieldManager(
            WriteAheadLog(fdata, fjournal, recover=False)))
        assert schedule.writes_seen == TOTAL_WRITES == self.WRITES_SEEN
        assert hashlib.sha256(fjournal.snapshot()).hexdigest() == \
            self.JOURNAL_SHA256
        assert hashlib.sha256(fdata.snapshot()).hexdigest() == self.DATA_SHA256
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == \
            self.WRITE_CALLS_SHA256


class TestWriteAheadRule:
    def test_journal_synced_after_commit_record_before_apply(self):
        """One ``sync`` per commit, over exactly the transaction's journal
        range, after its commit record and before the first data write —
        forwarded by ``FaultyDevice`` without counting as a write."""
        events: list[tuple] = []

        class Recording(BlockDevice):
            def __init__(self, capacity, tag):
                super().__init__(capacity)
                self.tag = tag

            def write(self, offset, data):
                events.append((self.tag, "write", offset, len(data)))
                super().write(offset, data)

            def sync(self, offset, length):
                events.append((self.tag, "sync", offset, length))
                super().sync(offset, length)

        schedule = FaultSchedule(seed=0, crash_after_writes=None)
        wal = WriteAheadLog(
            FaultyDevice(Recording(CAPACITY, "data"), schedule),
            FaultyDevice(Recording(JOURNAL_CAPACITY, "journal"), schedule),
            recover=False)
        wal.write(0, b"first")
        wal.write(4096, b"second")
        one = 28 + 4108 + 16  # header, page record, commit record
        assert events == [
            ("journal", "write", 0, 28), ("journal", "write", 28, 4108),
            ("journal", "write", 4136, 16), ("journal", "sync", 0, one),
            ("data", "write", 0, 4096),
            ("journal", "write", one, 28), ("journal", "write", one + 28, 4108),
            ("journal", "write", one + 4136, 16), ("journal", "sync", one, one),
            ("data", "write", 4096, 4096),
        ]
        assert schedule.writes_seen == 8


class TestChecksums:
    def test_bit_flip_in_journal_is_detected_on_recovery(self, test_seed):
        # Corrupt the first page record (write #2), crash during apply
        # (write #5, after the commit record is durable).  Recovery must
        # reject the corrupt transaction and fall back to the old state,
        # not replay garbled bytes.
        schedule = FaultSchedule(
            seed=test_seed, crash_after_writes=5, torn="none",
            bitflip_writes=(2,),
        )
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_A)
        recovered_wal, recovered = recover_from_wreck(fdata, fjournal)
        assert recovered_wal.last_committed_meta is None
        assert recovered_wal.recovery.discarded == 1
        assert state_key(recovered) == STATES[0]

    def test_clean_journal_replays_after_commit_record(self, test_seed):
        # Same crash point, no bit flip: the commit record is durable, so
        # recovery must replay to the NEW state (durability).
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=5, torn="none")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_A)
        _, recovered = recover_from_wreck(fdata, fjournal)
        assert state_key(recovered) == STATES[1]


class TestRecoveryIdempotence:
    def test_crash_during_recovery_heals_on_retry(self, test_seed):
        # Commit txn 1 fully into the journal, crash before apply finishes.
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=5, torn="pages")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        with pytest.raises(SimulatedCrash):
            LongFieldManager(wal).create(PAYLOAD_A)
        data_image, journal_image = fdata.snapshot(), fjournal.snapshot()

        # First recovery attempt crashes mid-replay.
        retry = FaultSchedule(seed=test_seed + 1, crash_after_writes=1, torn="prefix")
        data = BlockDevice(CAPACITY)
        data.write(0, data_image)
        journal = BlockDevice(JOURNAL_CAPACITY)
        journal.write(0, journal_image)
        fdata2 = FaultyDevice(data, retry, name="data")
        with pytest.raises(SimulatedCrash):
            WriteAheadLog(fdata2, journal, recover=True)

        # Second attempt over the twice-wrecked image must still land on S1.
        wal2, _, _ = build_stack(
            data_image=fdata2.snapshot(), journal_image=journal_image
        )
        recovered = LongFieldManager.restore(wal2, wal2.last_committed_meta)
        assert state_key(recovered) == STATES[1]
        assert wal2.recovery.replayed == 1

    def test_recovering_the_recovered_store_changes_nothing(self, test_seed):
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=7, torn="prefix")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        with pytest.raises(SimulatedCrash):
            run_workload(LongFieldManager(wal))
        wreck = (fdata.snapshot(), fjournal.snapshot())

        # First recovery — run behind a benign FaultyDevice so the healed
        # images can be harvested for the second pass.
        benign = FaultSchedule(seed=0)
        wal1, fd1, fj1 = build_stack(
            benign, data_image=wreck[0], journal_image=wreck[1]
        )
        meta1 = wal1.last_committed_meta or {"next_id": 1, "fields": {}}
        first = state_key(LongFieldManager.restore(wal1, meta1))

        # Second recovery over the already-recovered images: idempotent.
        wal2, _, _ = build_stack(
            data_image=fd1.snapshot(), journal_image=fj1.snapshot()
        )
        meta2 = wal2.last_committed_meta or {"next_id": 1, "fields": {}}
        assert meta2 == meta1
        assert state_key(LongFieldManager.restore(wal2, meta2)) == first


class TestJournalLimits:
    def test_oversized_transaction_fails_cleanly(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(8192)  # room for roughly one page record
        wal = WriteAheadLog(data, journal, recover=False)
        lfm = LongFieldManager(wal)
        before = state_key(lfm)
        with pytest.raises(WalError):
            lfm.create(b"\x01" * 40000)  # 10 pages never fit in 8 KiB
        assert state_key(lfm) == before
        assert wal.data_stats.pages_written == 0
        # The store keeps working: a transaction that fits still commits.
        small = lfm.create(b"tiny payload")
        assert lfm.read(small) == b"tiny payload"

    def test_page_size_mismatch_rejected(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(1 << 16, page_size=1 << 16)
        with pytest.raises(WalError):
            WriteAheadLog(data, journal)


class TestTransactions:
    def test_read_your_writes_inside_transaction(self):
        wal, _, _ = build_stack(recover=False)
        with wal.transaction():
            wal.write(100, b"uncommitted")
            assert wal.read(100, 11) == b"uncommitted"
            assert wal.data_stats.pages_written == 0  # nothing applied yet
        assert wal.read(100, 11) == b"uncommitted"
        assert wal.data_stats.pages_written == 1

    def test_rollback_discards_buffered_pages(self):
        wal, _, _ = build_stack(recover=False)

        class Boom(WalError):
            pass

        with pytest.raises(Boom):
            with wal.transaction():
                wal.write(0, b"doomed")
                raise Boom("abort")
        assert wal.read(0, 6) == b"\x00" * 6
        assert wal.data_stats.pages_written == 0

    def test_nested_transactions_commit_once(self):
        wal, _, _ = build_stack(recover=False)
        with wal.transaction():
            wal.write(0, b"outer")
            with wal.transaction():
                wal.write(4096, b"inner")
            # Inner exit must not commit: still one open transaction.
            assert wal.in_transaction
            assert wal.data_stats.pages_written == 0
        assert wal.read(0, 5) == b"outer"
        assert wal.read(4096, 5) == b"inner"

    def test_lfm_rolls_back_memory_state_on_crash(self, test_seed):
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=2, torn="none")
        wal, _, _ = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_A)
        # The failed create must leave no trace in the in-memory tables.
        assert lfm.field_count == 0
        assert lfm.allocated_bytes == 0
        assert lfm.export_state() == {"next_id": 1, "fields": {}}


class TestCheckpointEpochs:
    """reset_journal() must not let stale epochs masquerade as fresh ones."""

    def test_txn_ids_continue_across_checkpoint_and_restart(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        for page in range(3):
            with wal.transaction():
                wal.write(page * 4096, bytes([page + 1]) * 4096)
        assert wal.next_txn_id == 4
        wal.reset_journal()
        # "Restart": a fresh process over the same devices knows nothing
        # in memory; the checkpoint record must carry the epoch across.
        wal2 = WriteAheadLog(data, journal, recover=True)
        assert wal2.recovery.replayed == 0
        assert wal2.next_txn_id == 4  # continues — does not restart at 1

    def test_stale_epoch_records_never_replayed_after_restart(self):
        # The dangerous shape: same-length commits, so a post-restart
        # epoch's records can end exactly on a stale record boundary.  A
        # scan walking onto the intact stale record must reject it by the
        # txn-id floor, not replay pre-checkpoint pages over newer data.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        with wal.transaction():
            wal.write(0, b"A" * 4096)          # txn 1
        with wal.transaction():
            wal.write(4096, b"B" * 4096)       # txn 2
        with wal.transaction():
            wal.write(8192, b"X" * 4096)       # txn 3
        with wal.transaction():
            wal.write(8192, b"Y" * 4096)       # txn 4: page 2 now holds "Y"
        wal.reset_journal()
        wal2 = WriteAheadLog(data, journal, recover=True)
        with wal2.transaction():
            wal2.write(0, b"C" * 4096)         # same byte shape as stale txn 1
        with wal2.transaction():
            wal2.write(4096, b"D" * 4096)      # same byte shape as stale txn 2
        # Crash + reboot: recovery must replay only the new epoch; the
        # intact stale txn-3 record ("X" onto page 2) must stay dead.
        wal3 = WriteAheadLog(data, journal, recover=True)
        assert wal3.recovery.replayed_txn_ids == [5, 6]
        assert wal3.read(0, 4096) == b"C" * 4096
        assert wal3.read(4096, 4096) == b"D" * 4096
        assert wal3.read(8192, 4096) == b"Y" * 4096  # not clobbered by "X"


class TestOuterScopeRollback:
    """Aborting an enclosing Database.transaction() must unwind the LFM."""

    def test_outer_abort_rolls_back_create(self):
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        keep = lfm.create(PAYLOAD_A)
        db = Database(lfm=lfm)
        before = state_key(lfm)
        alloc_before = lfm.allocated_bytes

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                lfm.create(PAYLOAD_B)
                lfm.create(PAYLOAD_C)
                raise Boom("abort after the creates returned")
        # Field table, id counter, and allocator all back to the old state:
        # a save_database here must not persist phantom extents.
        assert state_key(lfm) == before
        assert lfm.allocated_bytes == alloc_before
        assert lfm.export_state()["next_id"] == keep.field_id + 1
        # The store keeps working after the rollback.
        extra = lfm.create(PAYLOAD_C)
        assert lfm.read(extra) == PAYLOAD_C

    def test_outer_abort_rolls_back_delete(self):
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        keep = lfm.create(PAYLOAD_A)
        db = Database(lfm=lfm)
        before = state_key(lfm)

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                lfm.delete(keep)
                raise Boom("abort after the delete returned")
        assert state_key(lfm) == before
        assert lfm.read(keep) == PAYLOAD_A

    def test_outer_abort_rolls_back_interleaved_create_delete(self):
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        a = lfm.create(PAYLOAD_A)
        db = Database(lfm=lfm)
        before = state_key(lfm)

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                # Delete frees A's extent; the create may reuse it.  Undo
                # actions run in reverse order, so the free precedes the
                # re-carve and the allocator never sees an overlap.
                lfm.delete(a)
                lfm.create(PAYLOAD_B)
                raise Boom("abort")
        assert state_key(lfm) == before
        assert lfm.read(a) == PAYLOAD_A


    def test_outer_abort_rolls_back_inserted_rows(self):
        # Rows holding handles of rolled-back long fields must not survive
        # them: the rollback reinstates the published version.
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        db = Database(lfm=lfm)
        db.execute("create table blobs (id integer, payload longfield)")
        db.execute("create index ix_id on blobs (id)")
        db.execute("insert into blobs values (?, ?)", [0, lfm.create(PAYLOAD_A)])
        before, seq = state_key(lfm), db.version_seq

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                for key, payload in ((1, PAYLOAD_B), (2, PAYLOAD_C)):
                    db.execute("insert into blobs values (?, ?)",
                               [key, lfm.create(payload)])
                assert db.execute("select count(*) from blobs").scalar() == 3
                raise Boom("abort after the inserts returned")
        assert state_key(lfm) == before
        table = db.catalog.table("blobs")
        assert [row[0] for row in table.scan()] == [0]
        assert table.probe("id", 1) == [] and len(table.probe("id", 0)) == 1
        assert table.stats.fresh(table) and table.stats.row_total == 1
        assert db.version_seq == seq
        assert db.execute("select count(*) from blobs").scalar() == 1

    def test_outer_abort_on_raw_device_keeps_rows_and_fields(self):
        lfm = LongFieldManager(BlockDevice(CAPACITY))
        db = Database(lfm=lfm)
        db.execute("create table blobs (id integer, payload longfield)")
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                handle = lfm.create(PAYLOAD_A)
                db.execute("insert into blobs values (?, ?)", [1, handle])
                raise ZeroDivisionError
        # The row goes, as on every device; a raw device cannot roll back,
        # so its field stays allocated, referenced by nothing.
        assert db.execute("select count(*) from blobs").scalar() == 0
        assert db.catalog.table("blobs").row_count == 0
        assert lfm.read(handle) == PAYLOAD_A


class TestUndoRegistration:
    """``on_rollback`` joins the open transaction — from any thread."""

    def test_requires_an_open_transaction(self):
        wal, _, _ = build_stack(recover=False)
        with pytest.raises(WalError, match="open transaction"):
            wal.on_rollback(lambda: None)

    def test_callbacks_run_in_reverse_order_on_abort(self):
        wal, _, _ = build_stack(recover=False)
        ran: list[str] = []

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with wal.transaction():
                wal.on_rollback(lambda: ran.append("first"))
                wal.on_rollback(lambda: ran.append("second"))
                raise Boom("abort")
        assert ran == ["second", "first"]

    def test_dropped_on_commit(self):
        wal, _, _ = build_stack(recover=False)
        ran: list[str] = []
        with wal.transaction():
            wal.write(0, PAYLOAD_A)
            wal.on_rollback(lambda: ran.append("undone"))
        assert ran == []

    def test_non_owner_registration_serializes_against_commit(self):
        """Regression: a stray ``on_rollback`` from a thread that does not
        own the transaction used to append to the undo list unlocked,
        racing the owner's commit.  It now blocks on the transaction lock
        until the owner commits — and is then correctly refused, because
        the transaction it tried to join no longer exists."""
        import threading

        wal, _, _ = build_stack(recover=False)
        opened = threading.Event()
        proceed = threading.Event()
        ran: list[str] = []
        outcome: list[BaseException | None] = []

        def owner() -> None:
            with wal.transaction():
                wal.write(0, PAYLOAD_A)
                opened.set()
                proceed.wait(10)

        def stray() -> None:
            try:
                wal.on_rollback(lambda: ran.append("stray"))
            except WalError as exc:
                outcome.append(exc)
            else:
                outcome.append(None)

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert opened.wait(10)
        stray_thread = threading.Thread(target=stray)
        stray_thread.start()
        # The stray registration is parked on the txn lock the owner
        # holds for the whole scope; let the owner commit underneath it.
        proceed.set()
        owner_thread.join(10)
        stray_thread.join(10)
        assert not stray_thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], WalError)
        # The committed transaction's pages survived, and the stray undo
        # neither ran nor leaked into a later transaction's undo list.
        assert wal.read(0, len(PAYLOAD_A)) == PAYLOAD_A

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with wal.transaction():
                raise Boom("abort")
        assert ran == []


class TestPersistence:
    def _database_with_wal(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        return Database(lfm=LongFieldManager(wal)), wal

    def test_save_is_atomic_and_resets_journal(self, tmp_path):
        db, wal = self._database_with_wal()
        db.lfm.create(PAYLOAD_A)
        save_database(db, tmp_path)
        assert (tmp_path / "device.img").exists()
        assert (tmp_path / "catalog.json").exists()
        assert not (tmp_path / "device.img.tmp").exists()
        assert not (tmp_path / "catalog.json.tmp").exists()
        # The catalog checkpointed the journal: the head rewound to just
        # past a checkpoint record, and a fresh scan replays nothing but
        # still learns the txn-id epoch.
        report = recover_journal(BlockDevice(CAPACITY), wal.journal)
        assert report.replayed == 0
        assert report.last_txn_id == wal.next_txn_id - 1
        assert wal._journal_head == report.end_offset

    def test_save_refused_inside_transaction(self, tmp_path):
        db, wal = self._database_with_wal()
        db.lfm.create(PAYLOAD_A)
        with wal.transaction():
            with pytest.raises(DatabaseError):
                save_database(db, tmp_path)

    def test_journal_meta_wins_over_stale_catalog(self, tmp_path):
        # Simulate a crash in save_database's window: the image was
        # replaced but the catalog was not.  The journal's committed
        # metadata matches the image and must override the catalog.
        db, wal = self._database_with_wal()
        db.lfm.create(PAYLOAD_A)
        save_database(db, tmp_path)            # catalog @ state 1
        field_b = db.lfm.create(PAYLOAD_B)     # journaled txn -> state 2
        wal.dump(tmp_path / "device.img")      # image @ state 2
        wal.journal.dump(tmp_path / "wal.log")  # journal survives the crash
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.field_count == 2
        assert reopened.lfm.read(reopened.lfm.handle(field_b.field_id)) == PAYLOAD_B

    def test_in_memory_load_does_not_truncate_journal_tail(self, tmp_path):
        # A wal.log larger than the requested journal_capacity must be
        # loaded whole: committed transactions in the tail are part of the
        # durable state, not overflow to drop.
        db, wal = self._database_with_wal()
        save_database(db, tmp_path)
        fields = [db.lfm.create(bytes([i]) * 5000) for i in range(1, 9)]
        small = 16 * 4096
        assert wal._journal_head > small, "workload must outgrow the capacity"
        wal.dump(tmp_path / "device.img")
        wal.journal.dump(tmp_path / "wal.log")
        reopened = load_database(
            tmp_path, in_memory=True, wal=True, journal_capacity=small
        )
        assert reopened.lfm.field_count == len(fields)
        for i, f in enumerate(fields, start=1):
            assert reopened.lfm.read(
                reopened.lfm.handle(f.field_id)
            ) == bytes([i]) * 5000

    def test_catalog_persists_txn_id_floor(self, tmp_path):
        # The saved catalog carries next_txn_id, and a reload — even one
        # that finds no journal file — seeds the WAL from it so ids never
        # restart inside an old epoch.
        db, wal = self._database_with_wal()
        db.lfm.create(PAYLOAD_A)
        db.lfm.create(PAYLOAD_B)
        next_id = wal.next_txn_id
        save_database(db, tmp_path)
        meta = json.loads((tmp_path / "catalog.json").read_text())
        assert meta["wal"]["next_txn_id"] == next_id
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.device.next_txn_id >= next_id

    def test_plain_catalog_load_without_journal(self, tmp_path):
        db, _ = self._database_with_wal()
        field_a = db.lfm.create(PAYLOAD_A)
        save_database(db, tmp_path)
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.field_count == 1
        assert reopened.lfm.read(reopened.lfm.handle(field_a.field_id)) == PAYLOAD_A
        # And the reopened store accepts new crash-safe transactions.
        extra = reopened.lfm.create(PAYLOAD_C)
        assert reopened.lfm.read(extra) == PAYLOAD_C


class TestBitIdentity:
    """The WAL must not move a single Table 3/4 LFM page count."""

    def test_table3_counts_pinned_wal_disabled(self, demo_system):
        outcomes = run_table3(demo_system)
        counts = {key: o.timing.lfm_page_ios for key, o in outcomes.items()}
        assert counts == {"Q1": 9, "Q2": 9, "Q3": 10, "Q4": 6, "Q5": 6, "Q6": 5}

    def test_wal_system_matches_plain_system(self, demo_system):
        wal_system = QbismSystem.build_demo(
            seed=1994, grid_side=32, n_pet=3, n_mri=1,
            band_encodings=("hilbert-naive", "z-naive", "octant"),
            wal=True,
        )
        assert isinstance(wal_system.lfm.device, WriteAheadLog)
        plain3 = {k: o.timing.lfm_page_ios for k, o in run_table3(demo_system).items()}
        wal3 = {k: o.timing.lfm_page_ios for k, o in run_table3(wal_system).items()}
        assert wal3 == plain3
        plain4 = {e: row.lfm_page_ios for e, (_, row) in run_table4(demo_system).items()}
        wal4 = {e: row.lfm_page_ios for e, (_, row) in run_table4(wal_system).items()}
        assert wal4 == plain4
        # Journal traffic exists but is accounted on its own device.
        assert wal_system.lfm.device.journal_stats.write_calls > 0

    def test_table4_counts_pinned_bench_config(self):
        system = QbismSystem.build_demo(
            seed=1994, grid_side=32, n_pet=5, n_mri=3,
            band_encodings=("hilbert-naive", "z-naive", "octant"),
            wal=True,
        )
        counts = {e: row.lfm_page_ios for e, (_, row) in run_table4(system).items()}
        assert counts == {"hilbert-naive": 5, "z-naive": 5, "octant": 5}


class _FlakyJournal:
    """Counts write calls; fails chosen indices (1-based) or while offline.

    Unlike a :class:`FaultSchedule` crash — which takes the device down
    for good — the failure is transient, modelling a device error the
    store must survive and keep running after.
    """

    def __init__(self, inner, fail_at=()):
        self._inner = inner
        self.fail_at = set(fail_at)
        self.offline = False
        self.writes = 0

    def write(self, offset, data):
        self.writes += 1
        if self.offline or self.writes in self.fail_at:
            raise WalError("injected journal failure")
        return self._inner.write(offset, data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def reboot(data: BlockDevice, journal: BlockDevice) -> WriteAheadLog:
    """Crash + reopen over the surviving images; runs recovery."""
    wal, _, _ = build_stack(
        data_image=data.read(0, data.capacity),
        journal_image=journal.read(0, journal.capacity),
    )
    return wal


class TestGroupFlushFailure:
    """A failed commit rolls back alone; a journaled one stays committed.

    (Named for the group flush whose failure modes these were; the same
    guarantees now hold of the one-step commit.)
    """

    def _commit(self, wal, offset: int, payload: bytes, undone: list, tag):
        with wal.transaction():
            wal.write(offset, payload)
            wal.on_rollback(lambda: undone.append(tag))

    def test_durable_batch_survives_later_batch_failure(self):
        # txn 1 journals cleanly (writes 1-3: header, page, commit), txn
        # 2's header (write 4) fails.  Only txn 2 rolls back, txn 3 lands
        # on the append point txn 2 never moved, and recovery reaches it.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, _FlakyJournal(journal, fail_at={4}),
                            recover=False)
        undone: list[int] = []
        self._commit(wal, 0, b"one", undone, 1)
        with pytest.raises(WalError, match="injected"):
            self._commit(wal, 8192, b"two", undone, 2)
        assert undone == [2]
        self._commit(wal, 16384, b"three", undone, 3)
        assert undone == [2]

        # txn 1 and 3 are committed in memory; txn 2 left no trace.
        assert wal.read(0, 3) == b"one"
        assert wal.read(8192, 3) == b"\x00" * 3
        assert wal.read(16384, 5) == b"three"

        wal2 = reboot(data, journal)
        assert wal2.recovery.replayed_txn_ids == [1, 3]
        assert wal2.recovery.discarded == 0
        assert wal2.read(0, 3) == b"one"
        assert wal2.read(8192, 3) == b"\x00" * 3
        assert wal2.read(16384, 5) == b"three"

    def test_commit_record_failure_never_replays(self):
        # Header and page are on the journal when the commit record
        # (write 3) fails; the header is voided, so a crash right after —
        # before any later commit overwrites it — replays nothing and
        # counts nothing as torn.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, _FlakyJournal(journal, fail_at={3}),
                            recover=False)
        with pytest.raises(WalError, match="injected"):
            wal.write(0, b"lost")
        assert wal.read(0, 4) == b"\x00" * 4
        wal2 = reboot(data, journal)
        assert wal2.recovery.replayed_txn_ids == []
        assert wal2.recovery.discarded == 0

    def test_offline_journal_fails_commits_until_it_heals(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        flaky = _FlakyJournal(journal)
        wal = WriteAheadLog(data, flaky, recover=False)

        flaky.offline = True
        for offset, payload in ((0, b"first"), (4096, b"second")):
            with pytest.raises(WalError, match="injected"):
                wal.write(offset, payload)
            assert wal.read(offset, len(payload)) == b"\x00" * len(payload)

        flaky.offline = False
        wal.write(8192, b"third")
        assert wal.read(8192, 5) == b"third"

        wal2 = reboot(data, journal)
        assert len(wal2.recovery.replayed_txn_ids) == 1
        assert wal2.read(0, 5) == b"\x00" * 5
        assert wal2.read(4096, 6) == b"\x00" * 6
        assert wal2.read(8192, 5) == b"third"

    def test_apply_failure_after_commit_record_stays_committed(self):
        # The data device fails during the apply — after the commit
        # record hit the journal.  Recovery would replay the transaction,
        # so the in-memory state must keep it: no rollback, reads serve
        # the committed bytes from the held page images.
        data = BlockDevice(CAPACITY)
        flaky = _FlakyJournal(data, fail_at={1})  # first apply write
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(flaky, journal, recover=False)
        ran: list[str] = []
        with pytest.raises(WalError, match="injected"):
            with wal.transaction():
                wal.write(0, b"durable")
                wal.on_rollback(lambda: ran.append("undone"))
        assert ran == []                        # committed: undo must NOT run
        assert wal.read(0, 7) == b"durable"     # held image serves the commit
        assert wal.read_ranges([2], [7]) == b"rable"

        # The store continues: a later transaction applies cleanly, the
        # un-applied page keeps serving, and a read-modify-write of it
        # starts from the committed image, not the stale device bytes.
        wal.write(4096, b"later")
        assert wal.read(0, 7) == b"durable"
        assert wal.read(4096, 5) == b"later"
        wal.write(7, b"!")
        assert wal.read(0, 8) == b"durable!"
        assert data.read(0, 8) == b"durable!"   # applied: nothing held now

        wal2 = reboot(data, journal)
        assert wal2.recovery.replayed_txn_ids == [1, 2, 3]
        assert wal2.read(0, 8) == b"durable!"
        assert wal2.read(4096, 5) == b"later"


class TestApplyFailureIsPublished:
    """A commit whose apply failed is committed, so it is published."""

    def test_served_write_is_published_and_invalidates_the_cache(self):
        from repro.server.server import QueryServer
        from tests.test_mvcc import rwlock_acquisitions

        flaky = _FlakyJournal(BlockDevice(CAPACITY))
        lfm = LongFieldManager(WriteAheadLog(
            flaky, BlockDevice(JOURNAL_CAPACITY), recover=False))
        db = Database(lfm=lfm)

        def stash(k):
            # a long field in the served statement's own transaction, so
            # its commit has a page to apply
            lfm.create(PAYLOAD_A)
            return k

        db.register_function("stash", stash)
        db.execute("create table t (k integer)")
        count = "select count(*) from t"
        with QueryServer(db, workers=1) as server, server.connect() as session:
            assert session.execute(count).scalar() == 0
            assert len(server.cache) == 1
            flaky.fail_at = {flaky.writes + 1}  # the first apply write
            with pytest.raises(WalError, match="injected"):
                session.execute("insert into t values (stash(1))")
            assert len(server.cache) == 0  # invalidated on publish
            with rwlock_acquisitions() as acquired:
                with db.read_view() as view:
                    assert view.seq == db.version_seq
                    assert db.execute(count, view=view).scalar() == 1
                assert session.execute(count).scalar() == 1
                assert acquired() == 0


class TestCheckpointAfterApplyFailure:
    """A checkpoint never drops the only durable copy of a commit."""

    def _database_with_held_commit(self, tmp_path):
        data = BlockDevice(CAPACITY)
        flaky = _FlakyJournal(data)
        journal = BlockDevice(JOURNAL_CAPACITY)
        db = Database(lfm=LongFieldManager(
            WriteAheadLog(flaky, journal, recover=False)))
        save_database(db, tmp_path)  # the old image: no fields
        flaky.fail_at = {flaky.writes + 1}  # the first apply write
        with pytest.raises(WalError, match="injected"):
            db.lfm.create(PAYLOAD_A)
        assert db.lfm.read(db.lfm.handle(1)) == PAYLOAD_A  # committed
        return db, flaky, journal

    def test_healed_device_checkpoints_the_commit(self, tmp_path):
        db, _, _ = self._database_with_held_commit(tmp_path)
        save_database(db, tmp_path)  # retries the apply, then dumps
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.device.recovery.replayed_txn_ids == []
        assert reopened.lfm.read(reopened.lfm.handle(1)) == PAYLOAD_A

    def test_failing_device_keeps_the_journal(self, tmp_path):
        db, flaky, journal = self._database_with_held_commit(tmp_path)
        flaky.offline = True
        with pytest.raises(WalError, match="cannot reach the data device"):
            save_database(db, tmp_path)
        with pytest.raises(WalError, match="cannot reach the data device"):
            db.lfm.device.reset_journal()
        # Crash: the old image is untouched and the journal survives.
        journal.dump(tmp_path / "wal.log")
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.device.recovery.replayed_txn_ids == [1]
        assert reopened.lfm.read(reopened.lfm.handle(1)) == PAYLOAD_A
