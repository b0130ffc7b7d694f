"""Storage engine: block device, buddy allocator, Long Field Manager,
write-ahead log, and deterministic fault injection."""

from __future__ import annotations

from repro.storage.buddy import BuddyAllocator
from repro.storage.device import PAGE_SIZE, BlockDevice, IOStats
from repro.storage.faults import FaultSchedule, FaultyDevice
from repro.storage.lfm import LongField, LongFieldManager
from repro.storage.wal import RecoveryReport, WriteAheadLog, recover_journal

__all__ = [
    "PAGE_SIZE",
    "BlockDevice",
    "IOStats",
    "BuddyAllocator",
    "LongField",
    "LongFieldManager",
    "FaultSchedule",
    "FaultyDevice",
    "WriteAheadLog",
    "RecoveryReport",
    "recover_journal",
]
