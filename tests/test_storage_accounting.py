"""I/O accounting edge cases of the block device and the Long Field Manager.

The counters every benchmark number rests on must count what a workload
touched: zero-length reads touch no page, an offset-misaligned write
touches every page it straddles, overlapping scattered ranges on one page
cost one page, and a rejected read leaves the counters untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LongFieldError, StorageError
from repro.storage.device import PAGE_SIZE, BlockDevice
from repro.storage.lfm import LongFieldManager

CAPACITY = 64 * PAGE_SIZE


class TestDifferentialAccounting:
    def test_misaligned_write_counts_both_touched_pages(self):
        device = BlockDevice(CAPACITY)
        # 200 bytes at offset 4000 straddle pages 0 and 1
        device.write(4000, b"x" * 200)
        assert device.stats.pages_written == 2

    def test_zero_length_reads_are_page_free(self):
        device = BlockDevice(CAPACITY)
        device.read(0, 0)
        device.read(1234, 0)
        device.read(CAPACITY, 0)  # at capacity: legal
        assert device.stats.pages_read == 0
        assert device.stats.read_calls == 3

    def test_overlapping_ranges_dedup_identically(self):
        device = BlockDevice(CAPACITY)
        starts = np.array([0, 100, PAGE_SIZE // 2])
        stops = np.array([200, 300, PAGE_SIZE // 2 + 100])
        device.read_ranges(starts, stops)
        assert device.stats.pages_read == 1  # all runs on page 0


class TestRejectedReadsLeaveStatsUntouched:
    def test_device_inverted_range(self):
        device = BlockDevice(CAPACITY)
        device.read(0, 10)
        before = vars(device.stats.copy())
        with pytest.raises(StorageError):
            device.read_ranges(np.array([100, 500]), np.array([200, 400]))
        assert vars(device.stats) == before

    def test_device_out_of_bounds_range(self):
        device = BlockDevice(CAPACITY)
        before = vars(device.stats.copy())
        with pytest.raises(StorageError):
            device.read_ranges(np.array([0]), np.array([CAPACITY + 1]))
        assert vars(device.stats) == before

    def test_lfm_inverted_range(self):
        lfm = LongFieldManager(BlockDevice(CAPACITY))
        handle = lfm.create(b"z" * 1000)
        before = vars(lfm.stats.copy())
        with pytest.raises(LongFieldError):
            lfm.read_ranges(handle, np.array([10, 800]), np.array([20, 700]))
        assert vars(lfm.stats) == before

    def test_lfm_error_type_is_longfielderror(self):
        # The API boundary promises LongFieldError, not the ValidationError
        # that used to leak out of the interval machinery.
        lfm = LongFieldManager(BlockDevice(CAPACITY))
        handle = lfm.create(b"z" * 1000)
        with pytest.raises(LongFieldError):
            lfm.read_ranges(handle, np.array([500]), np.array([100]))
