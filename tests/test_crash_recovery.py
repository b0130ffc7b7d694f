"""Crash-consistency suite: enumerate every crash point, recover, verify.

The headline harness runs a fixed LFM workload of eight transactions —
create A, create B, delete A, create C, store D and E in one, delete B
and create a B-sized F in one, delete C and D in one, store G, H and I in
one — over a data device and a WAL journal that share one
:class:`FaultSchedule`.  A fault-free dry run counts the workload's total
write calls; the suite then replays the workload once per write index,
crashing there, harvesting the surviving device images, rebooting into
recovery, and asserting the recovered store equals one of the canonical
between-transaction states — *old or new, never in between* — with every
surviving field's bytes exact.

Also covered: a transaction that deletes a field and stores a same-size
one never writes over the deleted one before its commit, checksum
detection of silent bit flips, recovery that writes nothing, journal
exhaustion failing cleanly, a failing data device rolling a served write
back, atomic save/load with the journal-meta-wins rule, and the Table 3/4
bit-identity guarantee with the WAL disabled and enabled.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.workloads import run_table3, run_table4
from repro.core import QbismSystem
from repro.db.database import Database
from repro.db.persist import load_database, save_database
from repro.errors import DatabaseError, SimulatedCrash, StorageError, WalError
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
PAYLOAD_D = b"D" * 700
PAYLOAD_E = b"long field E" * 900
PAYLOAD_F = b"\x0f" * 9000                  # B's size: B's extent would fit


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


def _two_fields(lfm, h):
    with lfm.device.transaction():
        h["D"] = lfm.create(PAYLOAD_D)
        h["E"] = lfm.create(PAYLOAD_E)


def _replace_b(lfm, h):
    with lfm.device.transaction():
        lfm.delete(h["B"])
        h["F"] = lfm.create(PAYLOAD_F)


def _delete_c_and_d(lfm, h):
    with lfm.device.transaction():
        lfm.delete(h["C"])
        lfm.delete(h["D"])


def _three_fields(lfm, h):
    with lfm.device.transaction():
        for name, payload in (("G", PAYLOAD_A), ("H", PAYLOAD_C), ("I", PAYLOAD_B)):
            h[name] = lfm.create(payload)


#: the canonical workload, one transaction per step; each step takes the
#: LFM and the handles stored so far
STEPS = (
    lambda lfm, h: h.update(A=lfm.create(PAYLOAD_A)),
    lambda lfm, h: h.update(B=lfm.create(PAYLOAD_B)),
    lambda lfm, h: lfm.delete(h["A"]),
    lambda lfm, h: h.update(C=lfm.create(PAYLOAD_C)),
    _two_fields,
    _replace_b,
    _delete_c_and_d,
    _three_fields,
)


def run_workload(lfm: LongFieldManager) -> int:
    """The canonical workload; returns steps completed."""
    handles: dict = {}
    for step in STEPS:
        step(lfm, handles)
    return len(STEPS)


def state_key(lfm: LongFieldManager) -> str:
    """A canonical fingerprint of the LFM: field table + every field's bytes."""
    state = lfm.export_state()
    contents = {
        field_id: lfm.read(lfm.handle(int(field_id))).hex()
        for field_id in state["fields"]
    }
    return json.dumps({"state": state, "contents": contents}, sort_keys=True)


def canonical_states() -> list[str]:
    """Fingerprints S0..S8 of the store between the workload's transactions."""
    wal, _, _ = build_stack(recover=False)
    lfm = LongFieldManager(wal)
    handles: dict = {}
    states = [state_key(lfm)]
    for step in STEPS:
        step(lfm, handles)
        states.append(state_key(lfm))
    assert len(set(states)) == len(states), "workload states must be distinguishable"
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
        handles: dict = {}
        completed = 0
        try:
            for step in STEPS:
                step(lfm, handles)
                completed += 1
        except SimulatedCrash:
            pass
        assert completed < len(STEPS), "the schedule must actually crash the workload"
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
        assert run_workload(lfm) == len(STEPS)
        assert state_key(lfm) == STATES[-1]

    def test_crash_point_enumeration_is_exhaustive(self):
        # The dry run's write count covers journal AND data writes: the
        # parametrized sweep above therefore hits every extent write and
        # every commit record of all eight transactions.
        assert TOTAL_WRITES >= 16, (
            f"expected a rich crash surface, got {TOTAL_WRITES} writes"
        )


class TestCommitBytesPinned:
    """The enumeration workload's journal and data images, write count and
    write-call order: a commit issues the same ``write`` calls with the
    same bytes.  Re-recorded for format v3, whose commit writes each new
    extent once to the data device and then one metadata-only record to
    the journal (v2 journaled every page image, then applied it), over
    the eight-transaction workload.  Re-recorded again when an extent
    started keeping only its pages: later fields land in freed buddy
    tails (D lands on page 7, the page of B's four-page block that B's
    three pages leave free), so offsets in the field table and the data
    image move; the write count is unchanged."""

    WRITES_SEEN = 17
    JOURNAL_SHA256 = \
        "2e5c8936cf72be4191a205a8a76488355f1dcdd594281fd6138e8d191b482999"
    DATA_SHA256 = \
        "580922018de079ee99b125d9fdf1ed433291eee35467e848d67f71ce6e1460e7"
    WRITE_CALLS_SHA256 = \
        "68efaba0f58238811256cba880782c7f426e4095c17a4cfa23c84eb534103ca8"

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


class TestFreeAtCommit:
    """One transaction deletes A and stores a same-size C: C must not land
    on A's extent, whose bytes the old state references until the commit
    record is durable.  Once it is, the extent is free again, and the next
    same-size field (D) takes it."""

    SAME = bytes(reversed(PAYLOAD_A))  # A's size, other bytes

    def _workload(self, lfm, handles: dict, states: list | None = None) -> None:
        """Store A and B; then, a step each, the transaction and D."""

        def done(steps: int) -> None:
            handles["done"] = steps
            if states is not None:
                states.append(state_key(lfm))

        handles["A"] = lfm.create(PAYLOAD_A)
        handles["B"] = lfm.create(PAYLOAD_B)
        handles["at"] = lfm._entry(handles["A"])[0]
        done(0)
        with lfm.device.transaction():
            lfm.delete(handles["A"])
            handles["C"] = lfm.create(self.SAME)
        done(1)
        handles["D"] = lfm.create(self.SAME)
        done(2)

    def _reference(self) -> tuple[int, list[str], dict, LongFieldManager]:
        """The fault-free run: its write count, states, handles and LFM."""
        schedule = FaultSchedule(seed=0, crash_after_writes=None)
        wal, _, _ = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        handles: dict = {}
        states: list[str] = []
        self._workload(lfm, handles, states)
        return schedule.writes_seen, states, handles, lfm

    def test_c_lands_beside_a_and_d_on_a_after_the_commit(self):
        # Freed at once, as on a raw device, A's extent is exactly where
        # the same-size C would go: the deferred free is what saves A.
        raw = LongFieldManager(BlockDevice(CAPACITY))
        a = raw.create(PAYLOAD_A)
        raw.create(PAYLOAD_B)
        at = raw._entry(a)[0]
        raw.delete(a)
        assert raw._entry(raw.create(self.SAME))[0] == at
        writes, states, handles, lfm = self._reference()
        # A and B, the transaction, D: an extent write and a record each
        assert len(set(states)) == 3 and writes == 8
        assert lfm._entry(handles["C"])[0] != handles["at"]
        assert lfm._entry(handles["D"])[0] == handles["at"]

    @pytest.mark.parametrize("torn", ["prefix", "pages", "none"])
    @pytest.mark.parametrize("crash_at", range(5, 9))  # past A and B
    def test_crash_point_recovers_to_old_or_new_state(self, crash_at, torn,
                                                      test_seed):
        _, states, _, _ = self._reference()
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=crash_at,
                                 torn=torn)
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        handles: dict = {"done": 0}
        with pytest.raises(SimulatedCrash):
            self._workload(LongFieldManager(wal), handles)
        done = handles["done"]
        _, recovered = recover_from_wreck(fdata, fjournal)
        # The fingerprints hold every field's bytes: recovered to the old
        # state, A reads back exact.
        assert state_key(recovered) in states[done:done + 2], (
            f"crash at write {crash_at} (torn={torn}) left neither state; "
            f"replay with {schedule.describe()}")


class TestWriteAheadRule:
    def test_extents_synced_then_record_written_and_synced(self):
        """A commit syncs the extents its transaction wrote — one sync
        over their span — then writes its one record and syncs that;
        ``FaultyDevice`` forwards each ``sync`` without counting it as a
        write."""
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
        lfm = LongFieldManager(wal)
        first = lfm.create(b"first")
        one = 24 + len(json.dumps(lfm.export_state()))  # header, CRC, meta
        with wal.transaction():
            second = lfm.create(b"second")
            third = lfm.create(b"third!")
        two = 24 + len(json.dumps(lfm.export_state()))
        at = [lfm._entry(field)[0] for field in (first, second, third)]
        assert events == [
            ("data", "write", at[0], 5), ("data", "sync", at[0], 5),
            ("journal", "write", 0, one), ("journal", "sync", 0, one),
            ("data", "write", at[1], 6), ("data", "write", at[2], 6),
            ("data", "sync", at[1], at[2] + 6 - at[1]),
            ("journal", "write", one, two), ("journal", "sync", one, two),
        ]
        assert schedule.writes_seen == 5


class TestChecksums:
    def test_bit_flip_in_journal_is_detected_on_recovery(self, test_seed):
        # Corrupt the first commit record (write #2) silently, then crash
        # in the next transaction's extent write (write #3).  Recovery must
        # reject the corrupt record and fall back to the old state, not
        # hand back garbled metadata.
        schedule = FaultSchedule(
            seed=test_seed, crash_after_writes=3, torn="none",
            bitflip_writes=(2,),
        )
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        lfm.create(PAYLOAD_A)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_B)
        recovered_wal, recovered = recover_from_wreck(fdata, fjournal)
        assert recovered_wal.last_committed_meta is None
        assert recovered_wal.recovery.replayed == 0
        assert state_key(recovered) == STATES[0]

    def test_record_failing_only_its_crc_is_counted_discarded(self):
        # Flip one bit in the middle of the first record's metadata: its
        # magic, version and length still parse, so only the CRC can
        # reject it — and the scan counts it as one discarded record.
        wal, _, _ = build_stack(recover=False)
        lfm = LongFieldManager(wal)
        lfm.create(PAYLOAD_A)
        meta_len = len(json.dumps(lfm.export_state()))
        journal = bytearray(wal.journal.read(0, JOURNAL_CAPACITY))
        journal[24 + meta_len // 2] ^= 0x10     # past the 24-byte head
        recovered_wal, _, _ = build_stack(
            data_image=wal.device.read(0, CAPACITY), journal_image=bytes(journal))
        assert recovered_wal.recovery.discarded == 1
        assert recovered_wal.recovery.replayed == 0
        assert recovered_wal.last_committed_meta is None

    def test_clean_journal_replays_after_commit_record(self, test_seed):
        # Same crash point, no bit flip: the commit record is durable, so
        # recovery must come back in the NEW state (durability).
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=3, torn="none")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        lfm.create(PAYLOAD_A)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_B)
        _, recovered = recover_from_wreck(fdata, fjournal)
        assert state_key(recovered) == STATES[1]


class TestRecoveryIdempotence:
    def test_crash_during_recovery_heals_on_retry(self, test_seed):
        # Commit txn 1, crash in txn 2's extent write.
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=3, torn="pages")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        lfm = LongFieldManager(wal)
        lfm.create(PAYLOAD_A)
        with pytest.raises(SimulatedCrash):
            lfm.create(PAYLOAD_B)
        data_image, journal_image = fdata.snapshot(), fjournal.snapshot()

        # The first recovery attempt loses power as it reads the journal.
        journal = BlockDevice(JOURNAL_CAPACITY)
        journal.write(0, journal_image)
        dead = FaultSchedule(seed=test_seed + 1)
        dead.crashed = True
        with pytest.raises(SimulatedCrash):
            WriteAheadLog(BlockDevice(CAPACITY),
                          FaultyDevice(journal, dead, name="journal"))

        # Recovery writes nothing, so the retry sees the same images and
        # must land on S1.
        watch = FaultSchedule(seed=0)
        wal2, _, _ = build_stack(
            watch, data_image=data_image, journal_image=journal_image
        )
        assert watch.writes_seen == 0
        recovered = LongFieldManager.restore(wal2, wal2.last_committed_meta)
        assert state_key(recovered) == STATES[1]
        assert wal2.recovery.replayed == 1

    def test_recovering_the_recovered_store_changes_nothing(self, test_seed):
        schedule = FaultSchedule(seed=test_seed, crash_after_writes=7, torn="prefix")
        wal, fdata, fjournal = build_stack(schedule, recover=False)
        with pytest.raises(SimulatedCrash):
            run_workload(LongFieldManager(wal))
        wreck = (fdata.snapshot(), fjournal.snapshot())

        # First recovery — run behind a benign FaultyDevice so the images
        # can be harvested for the second pass.
        benign = FaultSchedule(seed=0)
        wal1, fd1, fj1 = build_stack(
            benign, data_image=wreck[0], journal_image=wreck[1]
        )
        meta1 = wal1.last_committed_meta or {"next_id": 1, "fields": {}}
        first = state_key(LongFieldManager.restore(wal1, meta1))
        # Recovery wrote no data page and no journal byte.
        assert benign.writes_seen == 0
        assert (fd1.snapshot(), fj1.snapshot()) == wreck

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
        journal = BlockDevice(4096)
        wal = WriteAheadLog(data, journal, recover=False)
        lfm = LongFieldManager(wal)
        before = state_key(lfm)
        with pytest.raises(WalError, match="journal bytes"):
            # metadata of 5 KB never fits a 4 KiB journal
            with wal.transaction(meta_provider=lambda: {
                    "pad": "x" * 5000, **lfm.export_state()}):
                lfm.create(b"\x01" * 40000)
        assert state_key(lfm) == before
        assert lfm.allocated_bytes == 0           # its extent is free again
        assert wal.journal_stats.write_calls == 0  # nothing was journaled
        assert wal.next_txn_id == 1
        # The store keeps working: a transaction that fits still commits.
        small = lfm.create(b"tiny payload")
        assert lfm.read(small) == b"tiny payload"
        assert recover_journal(journal).metas == [lfm.export_state()]

    def test_page_size_mismatch_rejected(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(1 << 16, page_size=1 << 16)
        with pytest.raises(WalError):
            WriteAheadLog(data, journal)


class TestTransactions:
    def test_read_your_writes_inside_transaction(self):
        wal, _, _ = build_stack(recover=False)
        with wal.transaction(meta_provider=lambda: {"k": 1}):
            wal.write(100, b"uncommitted")
            assert wal.read(100, 11) == b"uncommitted"
            assert wal.data_stats.pages_written == 1   # straight to the device
            assert wal.journal_stats.write_calls == 0  # nothing journaled yet
        assert wal.read(100, 11) == b"uncommitted"
        assert wal.journal_stats.write_calls == 1

    def test_rollback_journals_nothing(self):
        wal, _, _ = build_stack(recover=False)

        class Boom(WalError):
            pass

        with pytest.raises(Boom):
            with wal.transaction(meta_provider=lambda: {"k": 1}):
                wal.write(0, b"doomed")
                raise Boom("abort")
        assert wal.journal_stats.write_calls == 0
        assert wal.next_txn_id == 1
        assert recover_journal(wal.journal).replayed == 0

    def test_nested_transactions_commit_once(self):
        wal, _, _ = build_stack(recover=False)
        with wal.transaction(meta_provider=lambda: {"k": 1}):
            wal.write(0, b"outer")
            with wal.transaction():
                wal.write(4096, b"inner")
            # Inner exit must not commit: still one open transaction.
            assert wal.in_transaction
            assert wal.journal_stats.write_calls == 0
        assert recover_journal(wal.journal).replayed_txn_ids == [1]
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


def commit_meta(wal, tag: str) -> None:
    """One metadata-only transaction whose record carries ``tag``."""
    with wal.transaction(meta_provider=lambda: {"tag": tag}):
        pass


class TestCheckpointEpochs:
    """reset_journal() must not let stale epochs masquerade as fresh ones."""

    def test_txn_ids_continue_across_checkpoint_and_restart(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        for tag in "abc":
            commit_meta(wal, tag)
        assert wal.next_txn_id == 4
        wal.reset_journal()
        # "Restart": a fresh process over the same devices knows nothing
        # in memory; the checkpoint record must carry the epoch across.
        wal2 = WriteAheadLog(data, journal, recover=True)
        assert wal2.recovery.replayed == 0
        assert wal2.next_txn_id == 4  # continues — does not restart at 1

    def test_stale_epoch_records_never_replayed_after_restart(self):
        # The dangerous shape: the new epoch's records are 8 bytes shorter
        # than the stale ones, so after the 16-byte checkpoint record the
        # second of them ends exactly where stale txn 3 begins.  A scan
        # walking onto that intact stale record must reject it by the
        # txn-id floor, not hand back pre-checkpoint metadata.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        for tag in ("A" * 12, "B" * 12, "X" * 12, "Y" * 12):  # txns 1-4
            commit_meta(wal, tag)
        stale = wal._journal_head // 4
        wal.reset_journal()
        wal2 = WriteAheadLog(data, journal, recover=True)
        commit_meta(wal2, "C" * 4)
        commit_meta(wal2, "D" * 4)
        assert wal2._journal_head == 2 * stale  # on stale txn 3's boundary
        # Crash + reboot: recovery must hand back only the new epoch.
        wal3 = WriteAheadLog(data, journal, recover=True)
        assert wal3.recovery.replayed_txn_ids == [5, 6]
        assert wal3.recovery.metas == [{"tag": "C" * 4}, {"tag": "D" * 4}]


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
                # A's free waits for the commit, so the create cannot
                # land on its bytes; the rollback cancels the free.
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
        buckets = table.equal_buckets((table.schema.position("id"),))
        assert (1,) not in buckets and len(buckets[(0,)]) == 1
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

    def test_commit_actions_run_after_the_record_never_on_abort(self):
        wal, _, _ = build_stack(recover=False)
        ran: list = []
        with wal.transaction(meta_provider=lambda: {"k": 1}):
            wal.on_commit(lambda: ran.append(wal.journal_stats.write_calls))
            assert ran == []
        assert ran == [1]  # the record was on the journal first

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with wal.transaction(meta_provider=lambda: {"k": 2}):
                wal.on_commit(lambda: ran.append("aborted"))
                raise Boom("abort")
        assert ran == [1]

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
        report = recover_journal(wal.journal)
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
        fields = [db.lfm.create(bytes([i]) * 5000) for i in range(1, 41)]
        small = 4096
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


class _FlakyDevice:
    """Counts write calls; fails chosen indices (1-based), every ``sync``
    while ``fail_sync``, or everything while offline.

    Unlike a :class:`FaultSchedule` crash — which takes the device down
    for good — the failure is transient, modelling a device error the
    store must survive and keep running after.
    """

    def __init__(self, inner, fail_at=()):
        self._inner = inner
        self.fail_at = set(fail_at)
        self.fail_sync = False
        self.offline = False
        self.writes = 0

    def write(self, offset, data):
        self.writes += 1
        if self.offline or self.writes in self.fail_at:
            raise StorageError("injected device failure")
        return self._inner.write(offset, data)

    def sync(self, offset, length):
        if self.offline or self.fail_sync:
            raise StorageError("injected device failure")
        return self._inner.sync(offset, length)

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
        with wal.transaction(meta_provider=lambda: {"tag": tag}):
            wal.write(offset, payload)
            wal.on_rollback(lambda: undone.append(tag))

    def test_durable_batch_survives_later_batch_failure(self):
        # txn 1's record (journal write 1) lands, txn 2's (write 2) fails.
        # Only txn 2 rolls back, txn 3 lands on the append point txn 2
        # never moved, and recovery reaches it.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        wal = WriteAheadLog(data, _FlakyDevice(journal, fail_at={2}),
                            recover=False)
        undone: list[int] = []
        self._commit(wal, 0, b"one", undone, 1)
        with pytest.raises(StorageError, match="injected"):
            self._commit(wal, 8192, b"two", undone, 2)
        assert undone == [2]
        self._commit(wal, 16384, b"three", undone, 3)
        assert undone == [2]

        wal2 = reboot(data, journal)
        assert wal2.recovery.replayed_txn_ids == [1, 3]
        assert wal2.recovery.metas == [{"tag": 1}, {"tag": 3}]
        assert wal2.recovery.discarded == 0
        assert wal2.read(0, 3) == b"one"
        assert wal2.read(16384, 5) == b"three"

    def test_commit_record_failure_never_replays(self):
        # The record is on the journal when its sync fails; the header is
        # voided, so a crash right after — before any later commit
        # overwrites it — replays nothing and counts nothing as torn.
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        flaky = _FlakyDevice(journal)
        wal = WriteAheadLog(data, flaky, recover=False)
        flaky.fail_sync = True
        with pytest.raises(StorageError, match="injected"):
            commit_meta(wal, "lost")
        assert journal.read(0, 24) == bytes(24)
        wal2 = reboot(data, journal)
        assert wal2.recovery.replayed_txn_ids == []
        assert wal2.recovery.discarded == 0

    def test_offline_journal_fails_commits_until_it_heals(self):
        data = BlockDevice(CAPACITY)
        journal = BlockDevice(JOURNAL_CAPACITY)
        flaky = _FlakyDevice(journal)
        wal = WriteAheadLog(data, flaky, recover=False)

        flaky.offline = True
        for tag in ("first", "second"):
            with pytest.raises(StorageError, match="injected"):
                commit_meta(wal, tag)

        flaky.offline = False
        commit_meta(wal, "third")

        wal2 = reboot(data, journal)
        assert wal2.recovery.metas == [{"tag": "third"}]


class TestDataDeviceFailureIsARollback:
    """An extent write or sync that fails comes before the commit record,
    so the write rolls back like any other failed statement."""

    @pytest.mark.parametrize("fails", ["write", "sync"])
    def test_served_insert_raises_and_publishes_nothing(self, fails, tmp_path):
        from repro.errors import ReproError
        from repro.server.server import QueryServer

        flaky = _FlakyDevice(BlockDevice(CAPACITY))
        journal = BlockDevice(JOURNAL_CAPACITY)
        lfm = LongFieldManager(WriteAheadLog(flaky, journal, recover=False))
        db = Database(lfm=lfm)

        def stash(k):
            # a long field in the served statement's own transaction
            lfm.create(PAYLOAD_A)
            return k

        def reopened():
            lfm.device.dump(tmp_path / "device.img")
            journal.dump(tmp_path / "wal.log")
            return load_database(tmp_path, in_memory=True, wal=True)

        db.register_function("stash", stash)
        db.execute("create table t (k integer)")
        save_database(db, tmp_path)
        count = "select count(*) from t"
        with QueryServer(db, workers=1) as server, server.connect() as session:
            assert session.execute(count).scalar() == 0
            seq, fields = db.version_seq, lfm.export_state()
            if fails == "write":
                flaky.fail_at = {flaky.writes + 1}
            flaky.fail_sync = fails == "sync"
            with pytest.raises(ReproError, match="injected"):
                session.execute("insert into t values (stash(1))")
            assert db.version_seq == seq
            assert len(server.cache) == 1  # nothing published to invalidate it
            assert session.execute(count).scalar() == 0
            assert lfm.export_state() == fields and lfm.allocated_bytes == 0
            old = reopened()
            assert old.execute(count).scalar() == 0 and old.lfm.field_count == 0

            flaky.fail_sync = False
            session.execute("insert into t values (stash(2))")
            assert db.version_seq == seq + 1
            assert session.execute(count).scalar() == 1
        new = reopened()
        assert new.execute("select k from t").rows == [(2,)]
        assert new.lfm.read(new.lfm.handle(1)) == PAYLOAD_A
