"""Unit tests for the storage engine: device, buddy allocator, LFM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AllocationError, LongFieldError, StorageError
from repro.storage import PAGE_SIZE, BlockDevice, BuddyAllocator, LongFieldManager


class TestBlockDevice:
    def test_write_read_roundtrip(self):
        dev = BlockDevice(64 * 1024)
        dev.write(100, b"hello world")
        assert dev.read(100, 11) == b"hello world"

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BlockDevice(1000)  # not a page multiple
        with pytest.raises(StorageError):
            BlockDevice(0)

    def test_out_of_bounds_rejected(self):
        dev = BlockDevice(PAGE_SIZE)
        with pytest.raises(StorageError):
            dev.read(PAGE_SIZE - 1, 2)
        with pytest.raises(StorageError):
            dev.write(-1, b"x")

    def test_page_accounting_single_page(self):
        dev = BlockDevice(64 * 1024)
        dev.read(0, 100)
        assert dev.stats.pages_read == 1
        assert dev.stats.read_extents == 1

    def test_page_accounting_spans_pages(self):
        dev = BlockDevice(64 * 1024)
        dev.read(PAGE_SIZE - 10, 20)  # straddles a boundary
        assert dev.stats.pages_read == 2

    def test_page_accounting_aligned_bulk(self):
        dev = BlockDevice(64 * 1024)
        dev.read(0, 8 * PAGE_SIZE)
        assert dev.stats.pages_read == 8
        assert dev.stats.read_extents == 1

    def test_sync_is_not_a_write(self, tmp_path):
        """``sync`` takes any byte range (it aligns to pages itself), on a
        file-backed and an in-memory device alike, and accounts nothing."""
        for dev in (BlockDevice(64 * 1024, path=tmp_path / "dev.img"),
                    BlockDevice(64 * 1024)):
            dev.write(PAGE_SIZE + 70, b"journal record")
            before = dev.stats.copy()
            dev.sync(PAGE_SIZE + 70, 14)
            dev.sync(0, 0)
            assert (dev.stats - before).total_pages == 0
            assert dev.read(PAGE_SIZE + 70, 14) == b"journal record"
            dev.close()
        assert (tmp_path / "dev.img").read_bytes()[PAGE_SIZE + 70:][:14] == \
            b"journal record"

    def test_read_ranges_dedupes_pages(self):
        """Many small runs on one page cost one I/O — the Hilbert payoff."""
        dev = BlockDevice(64 * 1024)
        starts = np.array([0, 100, 200, 300])
        stops = starts + 10
        dev.read_ranges(starts, stops)
        assert dev.stats.pages_read == 1
        assert dev.stats.read_extents == 1

    def test_read_ranges_counts_scattered_pages(self):
        dev = BlockDevice(64 * 1024)
        starts = np.array([0, 2 * PAGE_SIZE, 5 * PAGE_SIZE])
        stops = starts + 10
        dev.read_ranges(starts, stops)
        assert dev.stats.pages_read == 3
        assert dev.stats.read_extents == 3

    def test_read_ranges_returns_concatenation(self):
        dev = BlockDevice(64 * 1024)
        dev.write(0, bytes(range(100)))
        out = dev.read_ranges(np.array([10, 50]), np.array([13, 52]))
        assert out == bytes([10, 11, 12, 50, 51])

    def test_write_accounting(self):
        dev = BlockDevice(64 * 1024)
        dev.write(0, b"\0" * (3 * PAGE_SIZE))
        assert dev.stats.pages_written == 3

    def test_stats_delta(self):
        dev = BlockDevice(64 * 1024)
        dev.read(0, 10)
        before = dev.stats.copy()
        dev.read(0, 10)
        delta = dev.stats - before
        assert delta.pages_read == 1 and delta.read_calls == 1

    def test_stats_reset(self):
        dev = BlockDevice(64 * 1024)
        dev.read(0, 10)
        dev.stats.reset()
        assert dev.stats.pages_read == 0

    def test_file_backed(self, tmp_path):
        path = tmp_path / "device.img"
        with BlockDevice(64 * 1024, path=path) as dev:
            dev.write(1234, b"persist me")
            assert dev.read(1234, 10) == b"persist me"
        assert path.stat().st_size == 64 * 1024

    def test_dump_onto_its_own_image_keeps_the_map_on_the_file(self, tmp_path):
        """Dumping a file-backed device onto the file it maps flushes in
        place: the file is not replaced, so later writes still reach it."""
        path = tmp_path / "device.img"
        with BlockDevice(64 * 1024, path=path) as dev:
            dev.write(0, b"before")
            inode = path.stat().st_ino
            assert dev.dump(path) == path
            assert path.stat().st_ino == inode
            dev.write(4096, b"after")
        image = path.read_bytes()
        assert image[:6] == b"before" and image[4096:4101] == b"after"

    def test_memory_backed_reads_zeros_and_survives_close(self, tmp_path):
        """An in-memory device is an anonymous map: unwritten pages read
        as zeros, ``close`` is a no-op, and ``dump`` images all of it."""
        with BlockDevice(16 * PAGE_SIZE) as dev:
            assert dev.read(5 * PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
            dev.write(3 * PAGE_SIZE + 7, b"kept")
        assert "memory-backed" in repr(dev)
        assert dev.read(3 * PAGE_SIZE + 7, 4) == b"kept"
        starts = np.array([3 * PAGE_SIZE + 7, 0])
        assert dev.read_ranges(starts, starts + 4) == b"kept" + bytes(4)
        image = dev.dump(tmp_path / "image").read_bytes()
        assert len(image) == 16 * PAGE_SIZE and image[3 * PAGE_SIZE + 7:][:4] == b"kept"


class TestBuddyAllocator:
    def test_basic_alloc_free(self):
        buddy = BuddyAllocator(1 << 16)
        offset = buddy.alloc(5000)
        assert buddy.block_size(offset) == 8192
        buddy.free(offset)
        assert buddy.allocated_bytes == 0

    def test_distinct_blocks(self):
        buddy = BuddyAllocator(1 << 16)
        offsets = [buddy.alloc(4096) for _ in range(8)]
        assert len(set(offsets)) == 8

    def test_min_block_rounding(self):
        buddy = BuddyAllocator(1 << 16, min_block=4096)
        offset = buddy.alloc(1)
        assert buddy.block_size(offset) == 4096

    def test_exhaustion(self):
        buddy = BuddyAllocator(1 << 14, min_block=4096)
        for _ in range(4):
            buddy.alloc(4096)
        with pytest.raises(AllocationError):
            buddy.alloc(1)

    def test_oversized_request(self):
        buddy = BuddyAllocator(1 << 14)
        with pytest.raises(AllocationError):
            buddy.alloc(1 << 15)

    def test_merge_on_free(self):
        buddy = BuddyAllocator(1 << 14, min_block=4096)
        offsets = [buddy.alloc(4096) for _ in range(4)]
        for offset in offsets:
            buddy.free(offset)
        # After all frees the arena must coalesce into one max block.
        big = buddy.alloc(1 << 14)
        assert big == 0

    def test_double_free_rejected(self):
        buddy = BuddyAllocator(1 << 14)
        offset = buddy.alloc(4096)
        buddy.free(offset)
        with pytest.raises(AllocationError):
            buddy.free(offset)

    def test_free_unknown_offset(self):
        buddy = BuddyAllocator(1 << 14)
        with pytest.raises(AllocationError):
            buddy.free(12345)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BuddyAllocator(1000)
        with pytest.raises(ValueError):
            BuddyAllocator(1 << 14, min_block=1000)
        with pytest.raises(AllocationError):
            BuddyAllocator(1 << 14).alloc(0)

    def test_reuse_after_free(self):
        buddy = BuddyAllocator(1 << 14, min_block=4096)
        a = buddy.alloc(8192)
        buddy.free(a)
        b = buddy.alloc(8192)
        assert b == a


class TestLongFieldManager:
    @pytest.fixture
    def lfm(self):
        return LongFieldManager(BlockDevice(1 << 20))

    def test_create_read(self, lfm):
        field = lfm.create(b"payload bytes")
        assert field.length == 13
        assert lfm.read(field) == b"payload bytes"

    def test_partial_read(self, lfm):
        field = lfm.create(bytes(range(100)))
        assert lfm.read(field, offset=10, length=5) == bytes([10, 11, 12, 13, 14])

    def test_read_out_of_bounds(self, lfm):
        field = lfm.create(b"abc")
        with pytest.raises(LongFieldError):
            lfm.read(field, offset=2, length=5)

    def test_empty_field_rejected(self, lfm):
        with pytest.raises(LongFieldError):
            lfm.create(b"")

    def test_delete_frees_space(self, lfm):
        field = lfm.create(b"x" * 10000)
        allocated = lfm.allocated_bytes
        lfm.delete(field)
        assert lfm.allocated_bytes < allocated
        with pytest.raises(LongFieldError):
            lfm.read(field)

    def test_read_ranges(self, lfm):
        field = lfm.create(bytes(range(256)) * 4)
        out = lfm.read_ranges(field, np.array([0, 300]), np.array([3, 302]))
        assert out == bytes([0, 1, 2, 44, 45])

    def test_read_ranges_bounds_checked(self, lfm):
        field = lfm.create(b"abc")
        with pytest.raises(LongFieldError):
            lfm.read_ranges(field, np.array([0]), np.array([10]))

    def test_fields_are_contiguous_extents(self, lfm):
        """One field = one extent: a full read is one seek."""
        field = lfm.create(b"z" * (6 * PAGE_SIZE))
        lfm.stats.reset()
        lfm.read(field)
        assert lfm.stats.read_extents == 1
        assert lfm.stats.pages_read == 6

    def test_counters(self, lfm):
        lfm.create(b"a" * 100)
        lfm.create(b"b" * 100)
        assert lfm.field_count == 2
        assert lfm.stored_bytes == 200
        assert lfm.allocated_bytes == 2 * PAGE_SIZE

    def test_later_fields_land_in_a_freed_tail(self, lfm):
        """A field keeps only its pages: the rest of its buddy block is free.

        A 5-page field holds 5 pages of its 8-page block; a 2-page and a
        1-page field then fill pages 6-7 and 5 of that block.  A 3-page
        field needs a 4-page-aligned start, which a 5-page field's tail
        lacks, so it lands in a 9-page field's tail (pages 12-14 of 16).
        """
        payloads = [bytes([n]) * (pages * PAGE_SIZE)
                    for n, pages in enumerate((5, 2, 1, 9, 3), start=1)]
        fields = [lfm.create(payload) for payload in payloads]
        pages = [lfm._entry(field)[0] // PAGE_SIZE for field in fields]
        assert pages == [0, 6, 5, 16, 16 + 12]
        assert lfm.allocated_bytes == (5 + 2 + 1 + 9 + 3) * PAGE_SIZE
        assert [lfm.read(field) for field in fields] == payloads
        lfm._allocator.validate()
