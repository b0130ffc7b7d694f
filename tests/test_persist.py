"""Tests for database persistence (save_database / load_database)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import (
    Database,
    load_database,
    register_spatial_functions,
    save_database,
)
from repro.errors import DatabaseError
from repro.medical import MedicalServer, QuerySpec
from repro.storage import BlockDevice, BuddyAllocator, LongFieldManager


def _find_extent_offset(db, field) -> int:
    """The device offset of a long field (test-only peek into the LFM)."""
    return db.lfm._fields[field.field_id][0]


@pytest.fixture
def small_db(rng):
    device = BlockDevice(1 << 20)
    lfm = LongFieldManager(device)
    db = Database(lfm=lfm)
    db.execute("create table notes (id integer, label text, score real, payload longfield)")
    for i in range(3):
        handle = lfm.create(bytes(rng.integers(0, 256, 100 + i).astype(np.uint8)))
        db.execute(
            "insert into notes values (?, ?, ?, ?)",
            [i, f"note-{i}", i * 1.5, handle],
        )
    db.execute("insert into notes values (9, null, null, ?)", [lfm.create(b"tail")])
    return db


class TestRoundTrip:
    def test_rows_survive(self, small_db, tmp_path):
        save_database(small_db, tmp_path / "db")
        reopened = load_database(tmp_path / "db")
        rows = reopened.execute("select id, label, score from notes order by id").rows
        assert rows == [(0, "note-0", 0.0), (1, "note-1", 1.5), (2, "note-2", 3.0),
                        (9, None, None)]

    def test_long_fields_survive(self, small_db, tmp_path):
        original = {
            row[0]: small_db.lfm.read(row[1])
            for row in small_db.execute("select id, payload from notes").rows
        }
        save_database(small_db, tmp_path / "db")
        reopened = load_database(tmp_path / "db")
        for id_, payload in reopened.execute("select id, payload from notes").rows:
            assert reopened.lfm.read(payload) == original[id_]

    def test_in_memory_load_leaves_files_untouched(self, small_db, tmp_path):
        saved = save_database(small_db, tmp_path / "db")
        before = (saved / "device.img").read_bytes()
        reopened = load_database(saved, in_memory=True)
        handle = reopened.execute("select payload from notes where id = 0").scalar()
        reopened.lfm.delete(handle)
        assert (saved / "device.img").read_bytes() == before

    def test_reopened_db_can_allocate(self, small_db, tmp_path):
        save_database(small_db, tmp_path / "db")
        reopened = load_database(tmp_path / "db", in_memory=True)
        new_field = reopened.lfm.create(b"fresh data after reload")
        assert reopened.lfm.read(new_field) == b"fresh data after reload"
        # The new extent must not overlap any restored field.
        for (payload,) in reopened.execute("select payload from notes").rows:
            assert reopened.lfm.read(payload)  # still intact

    def test_file_backed_reopen_persists_writes(self, small_db, tmp_path):
        saved = save_database(small_db, tmp_path / "db")
        reopened = load_database(saved)  # maps device.img directly
        new_field = reopened.lfm.create(b"written after reopen")
        reopened.lfm.device.close()
        # A second reopen sees the bytes (the catalog row wasn't saved, but
        # the extent contents live in the image).
        again = load_database(saved, in_memory=True)
        from repro.storage import LongField

        raw = again.lfm.device.read(
            _find_extent_offset(reopened, new_field), new_field.length
        )
        assert raw == b"written after reopen"

    def test_version_check(self, small_db, tmp_path):
        import json

        saved = save_database(small_db, tmp_path / "db")
        meta = json.loads((saved / "catalog.json").read_text())
        meta["version"] = 99
        (saved / "catalog.json").write_text(json.dumps(meta))
        with pytest.raises(DatabaseError, match="unsupported"):
            load_database(saved)

    def test_save_requires_lfm(self, tmp_path):
        with pytest.raises(DatabaseError):
            save_database(Database(), tmp_path / "nolfm")

    def test_load_missing_path(self, tmp_path):
        with pytest.raises(DatabaseError, match="saved database"):
            load_database(tmp_path / "nothing")


class TestAllocatorCarve:
    def test_carve_reconstructs_allocations(self):
        source = BuddyAllocator(1 << 16, min_block=4096)
        offsets = [source.alloc(size) for size in (5000, 4096, 12000, 4096)]
        rebuilt = BuddyAllocator(1 << 16, min_block=4096)
        for offset in offsets:
            rebuilt.carve(offset, source.block_size(offset))
        assert rebuilt.allocations() == source.allocations()
        # And allocation still works in the gaps.
        extra = rebuilt.alloc(4096)
        assert extra not in offsets

    def test_a_parent_layout_field_table_restores_with_its_tail_free(self):
        """A field saved when it held its whole 8-page buddy block (5 pages
        used, at an 8-page-aligned offset) comes back holding 5 pages."""
        page = 4096
        payload = bytes(range(256)) * (5 * page // 256 - 1)  # 5 pages, last partial
        device = BlockDevice(1 << 20)
        device.write(8 * page, payload)
        state = {"next_id": 2, "fields": {"1": [8 * page, len(payload)]}}
        lfm = LongFieldManager.restore(device, state)
        assert lfm.allocated_bytes == 5 * page
        lfm._allocator.validate()
        assert lfm.read(lfm.handle(1)) == payload
        tail = lfm.create(b"t" * (2 * page))
        assert lfm._fields[tail.field_id][0] == 14 * page
        assert lfm.read(lfm.handle(1)) == payload

    def test_carve_rejects_conflicts(self):
        buddy = BuddyAllocator(1 << 14, min_block=4096)
        buddy.carve(0, 4096)
        with pytest.raises(Exception):
            buddy.carve(0, 4096)

    def test_carve_rejects_misaligned(self):
        buddy = BuddyAllocator(1 << 14, min_block=4096)
        with pytest.raises(Exception):
            buddy.carve(100, 4096)


class TestFullSystemPersistence:
    def test_medical_database_roundtrip(self, tmp_path, demo_system):
        saved = save_database(demo_system.db, tmp_path / "qbism")
        reopened = load_database(saved, in_memory=True)
        register_spatial_functions(reopened)
        server = MedicalServer(reopened)
        study = demo_system.pet_study_ids[0]
        fresh = server.execute(QuerySpec(study_id=study, structures=("ntal",)))
        original = demo_system.server.execute(
            QuerySpec(study_id=study, structures=("ntal",))
        )
        assert np.array_equal(fresh.data.values, original.data.values)
        assert fresh.data.region == original.data.region
