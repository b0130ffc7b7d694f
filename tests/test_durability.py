"""Durability: a database reopened from its journal is the last committed one.

``catalog.json`` is the checkpoint and the write-ahead journal is its redo
log.  Every write scope journals one commit record — its edits to the
catalog image and, only when it changed it, the field table — and opening
with ``wal=True`` folds the records since the checkpoint onto the catalog.
Checked here: reopened from the journal alone, with no save, a database
equals its live published version in rows, DDL, hash and spatial index
definitions and the field table, across three reopens in a row and across
a crash between the image dump and the catalog rename; a served-shape
INSERT journals its row, not the field table; hash indexes survive a
save; and a journal written in format v1 or v2 is refused with the way
out.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import pytest

from repro.curves import GridSpec
from repro.db.database import Database
from repro.db.persist import export_catalog, load_database, save_database
from repro.errors import ReproError, SimulatedCrash, WalError
from repro.regions.region import Region
from repro.server import QueryServer
from repro.storage import BlockDevice, LongFieldManager, WriteAheadLog, recover_journal
from tests.conftest import executemany, explain

GRID = GridSpec((8, 8, 8))
CAPACITY = 1 << 20


def wal_database() -> Database:
    return Database(lfm=LongFieldManager(WriteAheadLog(
        BlockDevice(CAPACITY), BlockDevice(CAPACITY), recover=False)))


def saved_empty(path) -> Database:
    """A WAL database saved empty, then reopened over its files."""
    save_database(wal_database(), path)
    return load_database(path, wal=True)


def region(db, lower, upper):
    return db.lfm.create(Region.from_box(GRID, lower, upper).to_bytes("naive"))


def published(db) -> dict:
    """What a reopen must give back: the published version's catalog
    image and index definitions, and its long fields with their bytes."""
    version = db.versions.latest
    return {
        "catalog": export_catalog(version.catalog),
        "indexes": (version.catalog.index_defs(),
                    version.catalog.spatial_index_defs()),
        "fields": version.fields,
        "bytes": {i: db.lfm.read(db.lfm.handle(i)) for i in version.fields},
    }


def first_writes(db) -> None:
    """The reproduction: a transactional insert with a long field, an
    auto-commit insert, UPDATE, DELETE, DROP then CREATE, and indexes."""
    db.execute("create table t (a integer, b text, f longfield)")
    with db.transaction():
        handle = db.lfm.create(b"payload" * 700)
        db.execute("insert into t values (?, ?, ?)", [1, "one", handle])
    db.execute("insert into t values (2, 'two', null)")
    db.execute("insert into t values (3, 'three', null)")
    db.execute("update t set b = 'uno' where a = 1")
    db.execute("delete from t where a = 2")
    db.execute("create table u (x integer)")
    db.execute("insert into u values (7)")
    db.execute("drop table u")
    db.execute("create table u (x integer, y text)")
    db.execute("insert into u values (8, 'eight')")
    db.execute("create index ta on t (a)")
    db.execute("create table r (k integer, region longfield)")
    executemany(db, "insert into r values (?, ?)",
                   [[k, region(db, (k, 0, 0), (k + 2, 4, 4))] for k in range(3)])
    db.execute("create spatial index sx on r (region)")
    db.execute("analyze")


def later_writes(db, round_: int) -> None:
    """More of every kind, on the tables and indexes the first round made."""
    db.execute("insert into t values (?, ?, null)", [10 + round_, "later"])
    executemany(db, "insert into u values (?, ?)",
                   [[round_, "a"], [round_ + 1, "b"]])
    db.execute("update u set y = 'z' where x = ?", [round_])
    db.execute("insert into r values (?, ?)",
               [round_ + 5, region(db, (1, 1, 1), (3 + round_, 5, 5))])
    db.execute("delete from r where k = ?", [round_])
    if round_ == 1:
        db.execute("drop index ta")
        db.execute("create index ux on u (x)")
    with pytest.raises(ReproError, match="division by zero"):  # leaves no trace
        db.execute("insert into t values (99, 'no', null), (1 / 0, 'no', null)")


class TestReopenFromTheJournal:
    def test_rows_ddl_indexes_and_fields_come_back(self, tmp_path):
        db = saved_empty(tmp_path)
        first_writes(db)
        reopened = load_database(tmp_path, wal=True)
        assert reopened.table_names() == ["r", "t", "u"]
        assert sorted(reopened.execute("select a, b from t").rows) == [
            (1, "uno"), (3, "three")]
        assert reopened.catalog.index_names() == ["ta"]
        assert published(reopened) == published(db)

    def test_three_reopens_without_a_save(self, tmp_path):
        db = saved_empty(tmp_path)
        first_writes(db)
        for round_ in range(3):
            state = published(db)
            db = load_database(tmp_path, wal=True)
            assert published(db) == state, f"reopen {round_ + 1}"
            later_writes(db, round_)
        assert published(load_database(tmp_path, wal=True)) == published(db)

    def test_fields_stored_after_a_save_onto_the_mapped_image_come_back(
            self, tmp_path):
        # The device maps device.img, and the save checkpoints onto that
        # same file; the fields stored after it are on the image alone
        # (the journal holds only their metadata), so a reopen without a
        # second save must find their bytes there.
        db = saved_empty(tmp_path)
        first_writes(db)
        save_database(db, tmp_path)
        later_writes(db, 0)
        state = published(db)
        db.lfm.device.close()
        assert published(load_database(tmp_path, wal=True)) == state

    def test_crash_between_image_dump_and_catalog_rename(self, tmp_path,
                                                         monkeypatch):
        db = wal_database()
        first_writes(db)
        save_database(db, tmp_path)
        later_writes(db, 0)
        replace = os.replace

        def crashing(src, dst):
            if Path(dst).name == "catalog.json":
                raise SimulatedCrash("after device.img, before catalog.json")
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crashing)
            with pytest.raises(SimulatedCrash):
                save_database(db, tmp_path)
        assert (tmp_path / "catalog.json.tmp").exists()
        db.lfm.device.journal.dump(tmp_path / "wal.log")  # it survives
        reopened = load_database(tmp_path, in_memory=True, wal=True)
        assert published(reopened) == published(db)


class TestOneCommitRecord:
    def test_a_served_insert_journals_its_row_not_the_field_table(self):
        db = wal_database()
        db.execute("create table t (k integer, f longfield)")
        for k in range(20):
            db.execute("insert into t values (?, ?)", [k, db.lfm.create(b"x" * 100)])
        journal = db.lfm.device.journal
        before = journal.stats.bytes_written
        with QueryServer(db, workers=1) as server, server.connect() as session:
            session.execute("insert into t values (20, null)")
        metas = recover_journal(journal).metas
        assert metas[-1] == {"catalog": {"rows": {"t": [[20, None]]}}}
        assert journal.stats.bytes_written - before < 200

    def test_a_scope_that_stores_a_field_journals_the_field_table(self):
        db = wal_database()
        db.execute("create table t (k integer, f longfield)")
        with db.transaction():
            handle = db.lfm.create(b"y" * 100)
            db.execute("insert into t values (1, ?)", [handle])
        record = recover_journal(db.lfm.device.journal).metas[-1]
        assert record == {"catalog": {"rows": {"t": [[1, {"$lf": [1, 100]}]]}},
                          **db.lfm.export_state()}


class TestHashIndexesSurviveASave:
    def test_index_and_its_plan_come_back(self, tmp_path):
        db = Database(lfm=LongFieldManager(BlockDevice(CAPACITY)))
        db.execute("create table t (a integer, b integer)")
        db.execute("insert into t values (1, 2), (3, 4)")
        db.execute("create index ta on t (a)")
        save_database(db, tmp_path)
        reopened = load_database(tmp_path)
        assert reopened.catalog.index_names() == ["ta"]
        assert explain(reopened, "select b from t where a = 1").startswith(
            "probe t via index(a)")


def _as_legacy(journal, pos: int, version: int) -> None:
    """Rewrite the v3 record at ``pos`` as a format-``version`` one, CRCs
    intact: the v1/v2 header (a page count before the meta length) and, for
    v2, one page record and the commit record after the meta."""
    magic, _, reserved, txn_id, meta_len = struct.unpack(
        "<4sHHQI", journal.read(pos, 20))
    assert magic == b"QWAL"
    meta = journal.read(pos + 24, meta_len)
    n_pages = 1 if version == 2 else 0
    header = struct.pack("<4sHHQII", magic, version, reserved, txn_id,
                         n_pages, meta_len)
    record = header + struct.pack("<I", zlib.crc32(header + meta)) + meta
    if version == 2:
        page = bytes(range(256)) * 16
        record += struct.pack("<QI", 0, zlib.crc32(page)) + page
        record += struct.pack("<4sQI", b"QCMT", txn_id, zlib.crc32(record))
    journal.write(pos, record)


class TestFormatV1IsRefused:
    def _refused(self, path, version: int) -> None:
        db = saved_empty(path)
        db.execute("create table t (a integer)")
        image = (path / "wal.log").read_bytes()
        journal = BlockDevice(len(image))
        journal.write(0, image)
        _as_legacy(journal, 0, version)  # the first record since the save
        with pytest.raises(WalError, match=f"v{version}.*build that wrote it"):
            WriteAheadLog(BlockDevice(CAPACITY), journal, recover=True)
        journal.dump(path / "wal.log")
        with pytest.raises(WalError, match="save it"):
            load_database(path, wal=True)

    def test_intact_v1_header_above_the_floor_raises(self, tmp_path):
        self._refused(tmp_path, 1)

    def test_intact_v2_record_above_the_floor_raises(self, tmp_path):
        self._refused(tmp_path, 2)

    def test_a_checkpointed_v1_record_is_not_an_error(self):
        journal = BlockDevice(CAPACITY)
        wal = WriteAheadLog(BlockDevice(CAPACITY), journal, recover=False)
        with wal.transaction(meta_provider=lambda: {"old": True}):
            wal.write(0, b"old")
        _as_legacy(journal, 0, 1)
        report = recover_journal(journal, next_txn_id=wal.next_txn_id)
        assert report.replayed == 0 and report.discarded == 0
