"""Block device with 4 KiB-page I/O accounting.

The paper's evaluation reports "LFM Disk I/Os (4KB)" for every query
(Tables 3 and 4): the number of 4 KiB pages touched while reading long
fields.  :class:`BlockDevice` is a byte store (memory- or file-backed) that
counts exactly that — a scattered read of many small runs that land on the
same page costs one I/O, which is precisely the effect Hilbert clustering
is designed to exploit.

The device performs no buffering, matching the paper's setup ("Starburst's
Long Field Manager performs no buffering").
"""

from __future__ import annotations

import mmap
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.regions.intervals import IntervalSet

__all__ = ["BlockDevice", "IOStats", "PAGE_SIZE", "attribute_io"]

PAGE_SIZE = 4096

#: per-thread (source, sink) attribution pairs — see :func:`attribute_io`
_IO_SINKS = threading.local()


@contextmanager
def attribute_io(source: "IOStats"):
    """Collect this thread's I/O on ``source`` into a private delta.

    Yields a fresh :class:`IOStats`; every counter update ``source``
    receives *from this thread* inside the block is mirrored into it.
    Under concurrency this is the exact per-statement attribution that a
    global before/after snapshot cannot give (another session's pages land
    inside the window) — it is how EXPLAIN ANALYZE and the flight recorder
    stay honest with many sessions in flight.  Nesting is allowed; every
    enclosing sink sees the I/O.

    The sink is only ever touched by the registering thread, so it needs
    no lock; the mechanism adds two attribute reads to the accounting fast
    path when unused.
    """
    sink = IOStats()
    pairs = getattr(_IO_SINKS, "pairs", None)
    if pairs is None:
        pairs = _IO_SINKS.pairs = []
    pairs.append((source, sink))
    try:
        yield sink
    finally:
        pairs.remove((source, sink))


def _sinks_for(source: "IOStats"):
    pairs = getattr(_IO_SINKS, "pairs", None)
    if not pairs:
        return ()
    return [sink for src, sink in pairs if src is source]


@dataclass
class IOStats:
    """Cumulative I/O counters; subtract snapshots to measure one operation."""

    pages_read: int = 0
    pages_written: int = 0
    read_extents: int = 0  #: contiguous page ranges read (a proxy for seeks)
    write_extents: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_calls: int = 0
    write_calls: int = 0

    def copy(self) -> "IOStats":
        """An independent snapshot, for before/after deltas."""
        return IOStats(**vars(self))

    def add_read(self, pages: int, extents: int, nbytes: int) -> None:
        """Account one logical read; tees into this thread's sinks.

        The storage layer's single mutation point for read counters: the
        calling thread performed the I/O, so any :func:`attribute_io`
        collectors it registered on this object receive the same delta.
        """
        self.pages_read += pages
        self.read_extents += extents
        self.bytes_read += nbytes
        self.read_calls += 1
        for sink in _sinks_for(self):
            sink.pages_read += pages
            sink.read_extents += extents
            sink.bytes_read += nbytes
            sink.read_calls += 1

    def add_write(self, pages: int, extents: int, nbytes: int) -> None:
        """Account one logical write; tees into this thread's sinks."""
        self.pages_written += pages
        self.write_extents += extents
        self.bytes_written += nbytes
        self.write_calls += 1
        for sink in _sinks_for(self):
            sink.pages_written += pages
            sink.write_extents += extents
            sink.bytes_written += nbytes
            sink.write_calls += 1

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(**{k: v - getattr(other, k) for k, v in vars(self).items()})

    def __add__(self, other: "IOStats") -> "IOStats":
        return IOStats(**{k: v + getattr(other, k) for k, v in vars(self).items()})

    @property
    def total_pages(self) -> int:
        """Pages read plus pages written."""
        return self.pages_read + self.pages_written

    def reset(self) -> None:
        """Zero every counter."""
        for key in vars(self):
            setattr(self, key, 0)

    def __repr__(self) -> str:
        return (
            f"IOStats(pages_read={self.pages_read}, pages_written={self.pages_written}, "
            f"read_extents={self.read_extents}, bytes_read={self.bytes_read})"
        )


def _page_span(offset: int, length: int) -> tuple[int, int]:
    """``(pages, extents)`` one contiguous access ``[offset, offset +
    length)`` touches: its pages are one run, or none at all."""
    if length <= 0:
        return 0, 0
    return (offset + length - 1) // PAGE_SIZE - offset // PAGE_SIZE + 1, 1


def _scatter_span(starts: np.ndarray, stops: np.ndarray) -> tuple[int, int, int]:
    """``(pages, extents, nbytes)`` of the int64 byte ranges ``[start,
    stop)``: distinct pages (several ranges on one page cost one I/O) and
    the contiguous page runs they form."""
    nonempty = stops > starts
    starts, stops = starts[nonempty], stops[nonempty]
    pages = IntervalSet(starts // PAGE_SIZE, (stops - 1) // PAGE_SIZE + 1)
    return pages.count, pages.run_count, int((stops - starts).sum())


@dataclass
class _Backing:
    buf: mmap.mmap
    file: object = None


class BlockDevice:
    """A fixed-capacity raw byte device, the paper's "AIX logical volume"."""

    def __init__(self, capacity: int, path: str | Path | None = None,
                 page_size: int = PAGE_SIZE, preserve_contents: bool = False):
        if capacity <= 0 or capacity % page_size:
            raise StorageError(
                f"device capacity must be a positive multiple of {page_size}"
            )
        self.capacity = int(capacity)
        self.page_size = int(page_size)
        self.stats = IOStats()
        # Guards the I/O counters (and, for writes, the buffer mutation):
        # concurrent readers may gather bytes in parallel, but every
        # counter update is atomic so `stats` stays exact under threads.
        self._lock = threading.Lock()
        if path is None:
            # anonymous map, not bytearray(capacity): that zero-fills —
            # commits — every page up front, and may carve them out of
            # recycled heap; a map costs only the pages ever written
            self._backing = _Backing(mmap.mmap(-1, self.capacity))
        else:
            path = Path(path)
            if preserve_contents:
                if not path.exists():
                    raise StorageError(f"device image {path} does not exist")
                if path.stat().st_size != self.capacity:
                    raise StorageError(
                        f"device image {path} is {path.stat().st_size} bytes, "
                        f"expected {self.capacity}"
                    )
                f = open(path, "r+b")
            else:
                f = open(path, "w+b")
                f.truncate(self.capacity)
            self._backing = _Backing(mmap.mmap(f.fileno(), self.capacity), f)

    def dump(self, path: str | Path) -> Path:
        """Write the raw device contents to a file (no I/O accounting).

        The image lands atomically — written to a sibling temp file and
        renamed into place — so a crash mid-dump never leaves a truncated
        image where a good one used to be.  A device that maps ``path``
        itself flushes its map in place instead: a rename would leave the
        map, and every later write, on the replaced file.
        """
        path = Path(path)
        f = self._backing.file
        if f is not None and path.exists() and os.path.samestat(
                os.fstat(f.fileno()), os.stat(path)):
            self._backing.buf.flush()
            return path
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(bytes(self._backing.buf))
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------ #
    # transactions (no-op at this layer)
    # ------------------------------------------------------------------ #

    @contextmanager
    def transaction(self, meta_provider=None):
        """A zero-cost transaction scope: the raw device has no atomicity.

        This exists so clients (:class:`~repro.storage.lfm.LongFieldManager`)
        can scope mutations unconditionally; wrapping the device in a
        :class:`~repro.storage.wal.WriteAheadLog` upgrades the same scopes
        to real crash-safe transactions.  Performs no I/O, so Table 3/4
        accounting is untouched when the WAL is disabled.
        """
        yield self

    @property
    def in_transaction(self) -> bool:
        """Raw devices never hold an open transaction."""
        return False

    # ------------------------------------------------------------------ #
    # raw byte access
    # ------------------------------------------------------------------ #

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise StorageError(
                f"access [{offset}, {offset + length}) outside device of "
                f"capacity {self.capacity}"
            )

    def read(self, offset: int, length: int) -> bytes:
        """Read one contiguous byte range."""
        self._check_range(offset, length)
        with self._lock:
            self.stats.add_read(*_page_span(offset, length), length)
        return bytes(self._backing.buf[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        """Write one contiguous byte range."""
        self._check_range(offset, len(data))
        with self._lock:
            self._backing.buf[offset:offset + len(data)] = data
            self.stats.add_write(*_page_span(offset, len(data)), len(data))

    def sync(self, offset: int, length: int) -> None:
        """Force one byte range to stable storage (``msync`` of its pages).

        Nothing to do for an anonymous map; not a write, so no accounting.
        """
        if self._backing.file is not None and length:
            first = offset - offset % mmap.ALLOCATIONGRANULARITY
            self._backing.buf.flush(first, offset + length - first)

    def read_ranges(self, starts: np.ndarray, stops: np.ndarray) -> bytes:
        """Gather many byte ranges in one logical operation.

        Page accounting is deduplicated across the ranges: several runs on
        the same 4 KiB page cost a single I/O.  This models the LFM reading
        the pages that hold a REGION's voxels.
        """
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if starts.size:
            # Validate everything before accounting: a rejected call must
            # leave the Table 3/4 counters untouched.
            if np.any(stops < starts):
                bad = int(np.argmax(stops < starts))
                raise StorageError(
                    f"inverted range [{int(starts[bad])}, {int(stops[bad])}) "
                    "in scattered read"
                )
            self._check_range(int(starts.min()), 0)
            self._check_range(0, int(stops.max()))
        with self._lock:
            self.stats.add_read(*_scatter_span(starts, stops))
        from repro.regions.intervals import concat_ranges

        view = np.frombuffer(memoryview(self._backing.buf), dtype=np.uint8)
        idx = concat_ranges(starts, stops)
        return view[idx].tobytes()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and release the backing store (no-op for memory)."""
        if self._backing.file is not None:
            self._backing.buf.flush()
            self._backing.buf.close()
            self._backing.file.close()

    def __enter__(self) -> "BlockDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = "file" if self._backing.file is not None else "memory"
        return f"BlockDevice({self.capacity} bytes, {kind}-backed)"
