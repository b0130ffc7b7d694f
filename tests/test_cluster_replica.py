"""WAL-shipped read replicas: convergence, crash resync, failover.

The replication contract under test:

* every committed WAL transaction ships as one :class:`ShipEnvelope`,
  in txn-id order even under concurrent writers;
  applying the stream leaves the replica's rows equal to the primary's;
* a replica that crashes mid-apply (seeded FaultSchedule) is detached
  without failing the primary's commit, and a fresh replica attached to
  the same link converges byte-for-byte (``state_fingerprint``);
* ``cluster.replica.lag`` measures staleness in transactions;
* the router fails reads over to the replica when a shard is down or
  times out, and refuses to fail writes over.
"""

from __future__ import annotations

import concurrent.futures
import threading

import pytest

from repro.cluster import build_demo_cluster
from repro.cluster.replica import Replica, ShipEnvelope
from repro.concurrency import lockdep
from repro.errors import ShardUnavailableError, SimulatedCrash
from repro.medical.server import MedicalServer, QuerySpec
from repro.obs import metrics
from repro.storage.device import BlockDevice
from repro.storage.faults import FaultSchedule, FaultyDevice

REPL_KW = dict(seed=1994, grid_side=16, wal=True, replicate=True)


@pytest.fixture(scope="module")
def repl_cluster():
    """Two replicated shards, one study each (module-wide, read-only)."""
    with build_demo_cluster(n_shards=2, n_pet=2, n_mri=0,
                            **REPL_KW) as cluster:
        yield cluster


@pytest.fixture
def small_cluster():
    """A one-shard replicated cluster tests may mutate or break."""
    with build_demo_cluster(n_shards=1, n_pet=1, n_mri=0,
                            **REPL_KW) as cluster:
        yield cluster


class TestShipEnvelope:
    def test_roundtrip(self):
        envelope = ShipEnvelope(
            txn_id=7,
            pages=((3, b"\x00" * 16), (9, b"page-nine")),
            lfm_state={"next_id": 4, "fields": {"1": [0, 16, [[0, 16]]]}},
            tables={"patient": {"columns": [["patientId", "integer"]],
                                "rows": [[1]]}},
            spatial_indexes=(("sxBandRegion", "intensityBand", "region"),),
            analyzed=True,
        )
        restored = ShipEnvelope.from_bytes(envelope.to_bytes())
        assert restored == envelope

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            ShipEnvelope.from_bytes(b"not an envelope")


class TestConvergence:
    def test_replica_not_stale_after_build(self, repl_cluster):
        for shard in repl_cluster.shards:
            shipped = shard.link.wal.next_txn_id - 1
            assert shard.replica.last_applied_txn == shipped
            assert shard.link.last_shipped_txn == shipped

    def test_replica_rows_equal_primary(self, repl_cluster):
        statements = (
            "select patientId, name, birthDate, sex, age from patient "
            "order by patientId",
            "select studyId, modality, width, height, depth from rawVolume "
            "order by studyId",
            "select studyId, low, high, encoding from intensityBand "
            "order by studyId, low",
            "select structureId, structureName from neuralStructure "
            "order by structureId",
        )
        for shard in repl_cluster.shards:
            for sql in statements:
                assert shard.replica.execute(sql).rows == \
                    shard.db.execute(sql).rows, (shard.shard_id, sql)

    def test_replica_serves_spatial_queries(self, repl_cluster):
        """The replica view has working LFM fields + spatial functions."""
        for shard in repl_cluster.shards:
            for study_id in shard.study_ids:
                sql = (f"select voxelCount(region) from intensityBand "
                       f"where studyId = {study_id}")
                assert shard.replica.execute(sql).rows == \
                    shard.db.execute(sql).rows

    def test_apply_is_idempotent(self, repl_cluster):
        shard = repl_cluster.shards[0]
        replayed = shard.link.envelopes_since(0)
        assert replayed, "the build shipped nothing"
        assert [e.txn_id for e in replayed] == \
            sorted(e.txn_id for e in replayed)
        # Every retained envelope was already applied: all skips.
        assert not any(shard.replica.apply(e) for e in replayed)

    def test_sql_write_ships_immediately(self, small_cluster):
        """A routed insert commits a (meta-only) WAL txn, which ships."""
        shard = small_cluster.shards[0]
        shipped_before = shard.link.last_shipped_txn
        small_cluster.execute(
            "insert into patient values (700, 'repl-subj', "
            "'1975-01-01', 'M', 50)"
        )
        assert shard.link.last_shipped_txn == shipped_before + 1
        assert shard.replica.execute(
            "select name from patient where patientId = 700"
        ).rows == [("repl-subj",)]


class TestConcurrentWriters:
    def test_envelopes_arrive_in_txn_order_and_replica_converges(
            self, small_cluster):
        """Four writers commit through ``Database.transaction``; every
        commit ships exactly once, in strictly increasing txn-id order,
        with no lock of the commit path held (lockdep: ``cluster.link``
        is never acquired under ``db.rwlock`` or ``wal.txn``)."""
        shard = small_cluster.shards[0]
        link, db = shard.link, shard.db
        shipped_before = link.last_shipped_txn
        delivered: list[int] = []
        real_apply = shard.replica.apply

        def recording_apply(envelope):
            delivered.append(envelope.txn_id)
            return real_apply(envelope)

        shard.replica.apply = recording_apply
        violations_before = len(lockdep.violations())
        errors: list[BaseException] = []

        def writer(index: int):
            try:
                for step in range(5):
                    with db.transaction():
                        db.lfm.create(bytes([index, step]) * 300)
                        db.execute(
                            "insert into patient values (?, ?, "
                            "'1970-01-01', 'F', 40)",
                            [900 + index * 10 + step, f"w{index}-{step}"])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            del shard.replica.apply
        assert errors == []
        assert len(lockdep.violations()) == violations_before
        assert delivered == list(range(shipped_before + 1,
                                       shipped_before + 21))
        assert link.last_shipped_txn == link.wal.next_txn_id - 1
        assert shard.replica.last_applied_txn == link.last_shipped_txn
        query = "select patientId, name from patient order by patientId"
        assert shard.replica.execute(query).rows == db.execute(query).rows
        assert shard.replica.execute(
            "select count(*) from patient where patientId >= 900"
        ).scalar() == 20
        fresh = Replica(shard.replica.device.capacity, name="fresh")
        link.attach(fresh)
        assert fresh.state_fingerprint() == shard.replica.state_fingerprint()
        link.attach(shard.replica)
        fresh.close()


class TestCrashMidShip:
    def test_crashed_replica_detaches_then_fresh_one_converges(
            self, small_cluster, test_seed):
        shard = small_cluster.shards[0]
        link = shard.link
        good = link.detach()
        assert good is shard.replica
        capacity = good.device.capacity

        # Crash on the first page write *after* resync completes: the
        # attach() replay costs exactly one device write per shipped page.
        resync_writes = sum(len(e.pages) for e in link.envelopes_since(0))
        schedule = FaultSchedule(seed=test_seed,
                                 crash_after_writes=resync_writes + 1)
        crashy = Replica(
            capacity, device=FaultyDevice(BlockDevice(capacity), schedule),
            name="crashy",
        )
        link.attach(crashy)
        assert link.replica is crashy

        detached_before = metrics.counter("cluster.replica.detached").value
        small_cluster.execute(
            "insert into patient values (801, 'crash-subj', "
            "'1960-01-01', 'F', 64)"
        )
        shard.lfm.create(b"crash-trigger" * 200)  # ships; replica crashes

        # The primary committed both changes and dropped the dead replica.
        assert schedule.crashed
        assert link.replica is None
        assert metrics.counter("cluster.replica.detached").value == \
            detached_before + 1
        assert shard.db.execute(
            "select name from patient where patientId = 801"
        ).rows == [("crash-subj",)]
        # The patient insert (a page-free envelope) applied cleanly; the
        # half-applied page batch never counted as applied.
        assert crashy.last_applied_txn == link.last_shipped_txn - 1
        with pytest.raises(SimulatedCrash):
            crashy.device.read(0, 1)

        # A fresh replica resyncs from the retained history and lands
        # byte-for-byte where the original (caught-up) replica does.
        fresh = Replica(capacity, name="fresh")
        link.attach(fresh)
        assert fresh.last_applied_txn == link.last_shipped_txn
        link.attach(good)  # the original replica catches up the same way
        assert fresh.state_fingerprint() == good.state_fingerprint()
        assert fresh.execute(
            "select name from patient where patientId = 801"
        ).rows == [("crash-subj",)]
        fresh.close()
        good.close()


class TestStaleness:
    def test_lag_gauge_tracks_unapplied_transactions(self, small_cluster):
        shard = small_cluster.shards[0]
        replica = shard.replica
        assert metrics.gauge("cluster.replica.lag").value == 0

        # Wedge the replica: deliveries arrive but nothing applies.
        replica.apply = lambda envelope: False  # type: ignore[method-assign]
        try:
            shard.lfm.create(b"stale-one" * 50)
            assert metrics.gauge("cluster.replica.lag").value == 1
            shard.lfm.create(b"stale-two" * 50)
            assert metrics.gauge("cluster.replica.lag").value == 2
        finally:
            del replica.apply  # restore the real method

        # Re-attaching resyncs the backlog and the gauge returns to 0.
        shard.link.attach(replica)
        assert replica.last_applied_txn == shard.link.last_shipped_txn
        assert metrics.gauge("cluster.replica.lag").value == 0


class TestFailover:
    def test_read_fails_over_to_replica(self, repl_cluster):
        shard = repl_cluster.shards[1]
        study_id = shard.study_ids[0]
        sql = f"select modality, width from rawVolume where studyId = {study_id}"
        expected = shard.db.execute(sql).rows
        failovers_before = metrics.counter("cluster.failovers").value
        shard.server.close()
        try:
            result = repl_cluster.execute(sql)
            assert result.rows == expected
            assert metrics.counter("cluster.failovers").value == \
                failovers_before + 1
        finally:
            self._revive(shard)

    def test_write_does_not_fail_over(self, repl_cluster):
        shard = repl_cluster.shards[1]
        shard.server.close()
        try:
            with pytest.raises(ShardUnavailableError):
                repl_cluster.execute(
                    "insert into patient values (802, 'down-subj', "
                    "'1950-01-01', 'M', 74)"
                )
        finally:
            self._revive(shard)

    def test_execute_spec_fails_over(self, repl_cluster):
        shard = repl_cluster.shards[1]
        study_id = shard.study_ids[0]
        spec = QuerySpec(study_id=study_id)
        expected = MedicalServer(shard.db).execute(spec).payload
        shard.server.close()
        try:
            routed = repl_cluster.router.execute_spec(spec)
            assert routed.payload == expected
        finally:
            self._revive(shard)

    def test_timeout_fails_over_to_replica(self, repl_cluster, monkeypatch):
        shard = repl_cluster.shards[0]
        study_id = shard.study_ids[0]
        sql = f"select modality from rawVolume where studyId = {study_id}"
        expected = shard.db.execute(sql).rows

        hung = concurrent.futures.Future()  # never completes
        monkeypatch.setattr(shard, "submit", lambda s, p: hung)
        monkeypatch.setattr(repl_cluster.router, "timeout", 0.05)
        errors_before = metrics.counter("cluster.shard_errors").value
        assert repl_cluster.execute(sql).rows == expected
        assert metrics.counter("cluster.shard_errors").value == \
            errors_before + 1

    def _revive(self, shard) -> None:
        """Give the broken shard a live server + router session again."""
        from repro.server.server import QueryServer

        shard.server = QueryServer(shard.db, workers=4)
        shard._session = shard.server.connect(
            name=f"router-shard-{shard.shard_id}"
        )
