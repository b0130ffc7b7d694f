"""MVCC snapshot-isolation and concurrent-commit suite.

Five layers of checks:

* **snapshot isolation** — a reader pinned to version N never sees
  version N+1's rows, across plain DML, DDL, and even a full
  save-database checkpoint; read-your-own-writes still holds inside an
  open transaction (where snapshot reads are bypassed by design);
* **lock-freedom** — a pinned SELECT acquires the ``db.rwlock``
  write lock exactly zero times (counted by the lockdep
  witness's acquisition counters, not inferred from timing);
* **version GC** — the version chain and the deferred-free backlog stay
  bounded under a multi-threaded write hammer, and retired versions are
  collected as soon as their pins drop;
* **published state is never written** — a write to a published table
  is refused, a write scope copies each table it writes once, and
  publish and reinstate copy none;
* **concurrent commits** — after 8 hammering writers the journal still
  recovers the committed state from a simulated crash, one flush per
  commit.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager, nullcontext

import pytest

from repro.concurrency import lockdep
from repro.db.database import Database
from repro.db.persist import load_database, save_database
from repro.db.table import Table
from repro.errors import DatabaseError, ReproError
from repro.storage import BlockDevice, LongFieldManager, WriteAheadLog
from tests.conftest import executemany, explain

CAPACITY = 1 << 20
JOURNAL_CAPACITY = 1 << 20


def wal_database():
    data = BlockDevice(CAPACITY)
    journal = BlockDevice(JOURNAL_CAPACITY)
    wal = WriteAheadLog(data, journal, recover=False)
    return Database(lfm=LongFieldManager(wal)), wal


def plain_database() -> Database:
    db = Database()
    db.execute("create table t (k integer, v integer)")
    executemany(db, "insert into t values (?, ?)", [[k, k * k] for k in range(10)])
    return db


# --------------------------------------------------------------------- #
# snapshot isolation
# --------------------------------------------------------------------- #


class TestSnapshotIsolation:
    def test_pinned_reader_never_sees_later_commit(self):
        db = plain_database()
        with db.read_view() as view:
            assert view.seq == db.version_seq
            db.execute("insert into t values (99, 9801)")
            stale = db.execute("select count(*) from t", view=view)
            fresh = db.execute("select count(*) from t")
            assert stale.scalar() == 10
            assert fresh.scalar() == 11

    def test_pinned_catalog_isolated_from_ddl(self):
        db = plain_database()
        pinned = db.pin_version()
        try:
            db.execute("create table extra (x integer)")
            assert "extra" not in pinned.catalog
        finally:
            db.unpin_version(pinned)
        later = db.pin_version()
        try:
            assert "extra" in later.catalog
        finally:
            db.unpin_version(later)

    def test_long_select_spans_dml_and_checkpoint(self, tmp_path):
        # A reader pinned before a write keeps its view through the write
        # AND through save_database's journal checkpoint.
        db, _wal = wal_database()
        db.execute("create table t (k integer, v integer)")
        db.execute("insert into t values (1, 10)")
        with db.read_view() as view:
            db.execute("insert into t values (2, 20)")
            save_database(db, tmp_path)  # checkpoint: resets the journal
            stale = db.execute("select v from t", view=view)
            assert stale.column("v") == [10]
        assert db.execute("select count(*) from t").scalar() == 2

    def test_read_your_own_writes_inside_open_transaction(self):
        db = plain_database()
        before = db.version_seq
        with db.transaction():
            # Snapshot reads are bypassed while this thread holds the
            # exclusive side — a pin here would hide the open writes.
            assert db.pin_version() is None
            db.execute("insert into t values (50, 2500)")
            seen = db.execute("select v from t where k = 50")
            assert seen.column("v") == [2500]
            # The uncommitted row is not published yet.
            assert db.version_seq == before
        assert db.version_seq > before
        with db.read_view() as view:
            committed = db.execute("select v from t where k = 50", view=view)
            assert committed.column("v") == [2500]


# --------------------------------------------------------------------- #
# lock-freedom of the snapshot read path
# --------------------------------------------------------------------- #


@contextmanager
def rwlock_acquisitions():
    """Yields a zero-arg callable: ``db.rwlock`` acquisitions so far in
    the block, counted by the lockdep witness."""
    before = lockdep.acquire_count("db.rwlock")
    yield lambda: lockdep.acquire_count("db.rwlock") - before


@contextmanager
def parked_writer(db, sql):
    """Another thread holds an open transaction that has run ``sql``."""
    inside, leave = threading.Event(), threading.Event()

    def writer():
        with db.transaction():
            db.execute(sql)
            inside.set()
            leave.wait(timeout=30)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        assert inside.wait(timeout=10)
        yield
    finally:
        leave.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def run_with_timeout(fn, timeout=5.0):
    """``fn()`` on a daemon thread; fails instead of hanging the suite."""
    box = {}
    thread = threading.Thread(target=lambda: box.update(value=fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "read blocked behind the open writer"
    return box["value"]


class TestLockFreeReads:
    def test_pinned_select_acquires_no_rwlock(self):
        db = plain_database()
        with rwlock_acquisitions() as acquired:
            for k in range(20):
                result = db.execute(f"select v from t where k = {k % 10}")
                assert result.column("v") == [(k % 10) ** 2]
            # ... and neither does any other read-only entry point
            assert db.execute("explain select v from t").rows
            assert db.execute("explain analyze select v from t").rows
            assert db.analyze("select v from t") == []
            assert acquired() == 0

    def test_unpublished_direct_insert_is_invisible_until_published(self):
        # A loader that pokes the live table has committed nothing until
        # it publishes: readers keep the published version, lock-free.
        db = plain_database()
        db.catalog.writable("t").insert([99, 9801])
        with rwlock_acquisitions() as acquired:
            assert db.execute("select count(*) from t").scalar() == 10
            assert acquired() == 0
        db.publish_snapshot()
        with rwlock_acquisitions() as acquired:
            assert db.execute("select count(*) from t").scalar() == 11
            assert acquired() == 0

    def test_reads_do_not_stall_behind_an_open_writer(self):
        # A transaction open on another thread moves the live stamps of
        # `t`; the published version is still the newest committed state,
        # so reads of `t` and of the untouched `u` stay on the snapshot.
        db = plain_database()
        db.execute("create table u (k integer)")
        db.execute("insert into u values (1)")
        with parked_writer(db, "insert into t values (99, 9801)"):
            with rwlock_acquisitions() as acquired:
                counts = run_with_timeout(lambda: [
                    db.execute("select count(*) from t").scalar(),
                    db.execute("select count(*) from u").scalar(),
                ])
                assert counts == [10, 1]
                assert acquired() == 0
        assert db.execute("select count(*) from t").scalar() == 11

    def test_explain_analyze_executemany_ignore_an_idle_writer(self):
        # An open transaction that has changed nothing must not block
        # the read-only entry points either.
        db = plain_database()
        with parked_writer(db, "select count(*) from t"):
            plan, diagnostics, analyzed = run_with_timeout(lambda: (
                explain(db, "select v from t"),
                db.analyze("select v from t"),
                db.execute("explain analyze select v from t where k = ?", [1]),
            ))
        assert plan.startswith("scan t")
        assert diagnostics == [] and analyzed.rows[-1][0].startswith(
            "total: 1 row(s)")


# --------------------------------------------------------------------- #
# version chain GC
# --------------------------------------------------------------------- #


class TestVersionGC:
    def test_chain_bounded_under_write_hammer(self):
        db = plain_database()
        threads = [
            threading.Thread(
                target=lambda base: [
                    db.execute(f"insert into t values ({base + j}, 0)")
                    for j in range(50)
                ],
                args=(1000 * (i + 1),),
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 400 publishes happened; with no pinned readers every superseded
        # version was collected at the next publish.
        assert db.execute("select count(*) from t").scalar() == 10 + 8 * 50
        assert db.versions.chain_length == 1
        assert db.versions.pending_frees == 0

    def test_pinned_version_retires_after_unpin(self):
        db = plain_database()
        pinned = db.pin_version()
        db.execute("insert into t values (77, 0)")
        # The pinned version keeps the chain at two entries.
        assert db.versions.chain_length == 2
        db.unpin_version(pinned)
        # GC runs at publish time: the next write sweeps the unpinned one.
        db.execute("insert into t values (78, 0)")
        assert db.versions.chain_length == 1


# --------------------------------------------------------------------- #
# published state is never written
# --------------------------------------------------------------------- #


def table_image(table) -> tuple:
    """Everything a reader of ``table`` can see, and which box columns
    its spatial indexes probe."""
    return ([tuple(row) for row in table.scan()],
            {position: {key: [tuple(row) for row in rows]
                        for key, rows in table.equal_buckets((position,)).items()}
             for position, column in enumerate(table.schema.columns)
             if table.has_index(column.name)},
            table.stamp, table.stats.stamp, table.stats.row_total,
            {column: id(index._boxes()) for column, index in table.spatial.items()})


class TestPublishedIsNeverWritten:
    def test_a_write_to_a_published_table_is_refused(self):
        db = plain_database()
        db.execute("create index ix on t (k)")
        table = db.catalog.table("t")
        before = table_image(table)
        for write in (lambda: table.insert([99, 0]),
                      lambda: table.insert_named(k=99),
                      lambda: table.update_where(lambda row: True,
                                                 lambda row: [row[0], 0]),
                      lambda: table.delete_where(lambda row: True),
                      table.truncate,
                      lambda: table.create_index("v"),
                      lambda: table.drop_index("k")):
            with pytest.raises(DatabaseError, match="published"):
                write()
        assert table_image(table) == before
        assert db.execute("select count(*) from t").scalar() == 10

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_scope_copies_each_table_it_writes_once(self, monkeypatch,
                                                      fails):
        db = plain_database()
        for name in ("u", "w"):
            db.execute(f"create table {name} (k integer)")
        copies, real = [], Table.copy
        monkeypatch.setattr(Table, "copy",
                            lambda self: copies.append(self.name) or real(self))
        with pytest.raises(RuntimeError) if fails else nullcontext():
            with db.transaction():
                db.execute("insert into t values (99, 0)")
                db.execute("update t set v = 1 where k = 99")
                db.execute("delete from t where k = 1")
                db.execute("create index ix on u (k)")
                db.execute("insert into u values (1), (2)")
                assert copies == ["t", "u"]
                if fails:
                    raise RuntimeError("abort")
        db.publish_snapshot()
        assert copies == ["t", "u"]  # neither publish nor reinstate copied
        assert db.execute("select count(*) from t").scalar() == 10
        assert db.execute("select count(*) from u").scalar() == (
            0 if fails else 2)

    @pytest.mark.parametrize("seed", [3, 17, 1994])
    def test_a_pinned_version_outlives_committed_and_failed_scopes(self,
                                                                   seed):
        # imported here: tests.test_reinstate imports this module
        from tests.test_reinstate import Abort, database, run, sequence

        rng = random.Random(seed)
        db = database("wal")
        db.execute("create table t (k integer, v integer, region longfield)")
        for statement in sequence(rng, 6) + [
                ("execute", "create index ix on t (k)", []),
                ("execute", "create spatial index sx on t (region)", [])]:
            try:
                run(db, statement, rng)
            except ReproError:
                pass
        pinned = db.pin_version()
        try:
            before = {name: table_image(pinned.catalog.table(name))
                      for name in pinned.catalog.table_names()}
            assert before["t"][5]["region"] is not None
            for statement in sequence(rng, 30):
                try:
                    if rng.random() < 0.3:
                        with db.transaction():
                            run(db, statement, rng)
                            raise Abort
                    run(db, statement, rng)
                except (ReproError, Abort):
                    pass
            assert db.version_seq > pinned.seq
            assert {name: table_image(pinned.catalog.table(name))
                    for name in pinned.catalog.table_names()} == before
        finally:
            db.unpin_version(pinned)


# --------------------------------------------------------------------- #
# concurrent commits
# --------------------------------------------------------------------- #


class TestGroupCommit:
    PAYLOAD = b"qbism1994" * 100  # 900 bytes, one page

    def _hammer(self, db, writers: int, commits_each: int):
        def writer():
            for _ in range(commits_each):
                with db.transaction():
                    db.lfm.create(self.PAYLOAD)

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_recovery_intact_after_group_commit(self, tmp_path):
        from repro.obs import metrics

        db, wal = wal_database()
        db.execute("create table anchor (k integer)")
        save_database(db, tmp_path)  # baseline catalog checkpoint
        commits_before = metrics.counter("wal.commits").value
        flushes_before = metrics.counter("wal.flushes").value
        self._hammer(db, writers=8, commits_each=4)
        assert metrics.counter("wal.commits").value - commits_before == 32
        assert metrics.counter("wal.flushes").value - flushes_before == 32
        # Crash: the image and journal survive, the process does not.
        wal.dump(tmp_path / "device.img")
        wal.journal.dump(tmp_path / "wal.log")
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert reopened.lfm.field_count == 32
        for field_id in range(1, 33):
            handle = reopened.lfm.handle(field_id)
            assert reopened.lfm.read(handle) == self.PAYLOAD
