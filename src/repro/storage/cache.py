"""An optional page-granular LRU buffer cache over a block device.

The paper's configuration is deliberately unbuffered: "the major
components did not buffer data ... Starburst's Long Field Manager performs
no buffering anyway" (§6.1), with result caching pushed up into DX
instead.  :class:`PageCache` lets us *evaluate* that choice: it serves
repeated page reads from memory and separates logical from physical I/O,
so the buffering ablation can measure what a DBMS-side buffer pool would
have bought for each query mix.

Writes are write-through (the cache never holds dirty pages), so crash
semantics match the raw device.

The cache is thread-safe.  A short internal mutex guards the LRU map and
the hit/miss counters (so ``hits + misses`` always equals the number of
logical page touches, even under concurrent readers), while a per-page
latch serializes *fills* of the same page only: two threads missing on
different pages read from the device in parallel instead of serializing
on the whole LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.concurrency import lockdep
from repro.errors import StorageError
from repro.obs import metrics, trace
from repro.storage.device import BlockDevice, IOStats, _page_span, _scatter_span

__all__ = ["PageCache"]


class PageCache:
    """LRU cache of device pages; duck-compatible with :class:`BlockDevice`.

    ``stats`` counts *logical* I/O (what the workload asked for);
    ``physical`` counts what actually reached the device after cache hits
    are removed.
    """

    def __init__(self, device: BlockDevice, capacity_pages: int):
        if capacity_pages < 1:
            raise StorageError("page cache needs capacity for at least one page")
        self.device = device
        self.page_size = device.page_size
        self.capacity = device.capacity
        self.capacity_pages = capacity_pages
        self.stats = IOStats()  # logical accounting; guarded_by: _lock
        self._pages: OrderedDict[int, bytes] = OrderedDict()  # guarded_by: _lock
        self.hits = 0  # guarded_by: _lock
        self.misses = 0  # guarded_by: _lock
        #: guards ``_pages``, ``stats`` and the hit/miss counters
        self._lock = lockdep.instrument(threading.Lock(), "cache.lock")
        #: per-page fill latches: concurrent misses on *different* pages
        #: read from the device in parallel
        self._latches: dict[int, threading.Lock] = {}  # guarded_by: _lock

    @property
    def physical(self) -> IOStats:
        """The wrapped device's counters: I/O that missed the cache."""
        return self.device.stats

    # ------------------------------------------------------------------ #

    def _record_hit(self, number: int, page: bytes) -> bytes:
        """Count a hit and refresh the LRU position (lock held by caller)."""
        self.hits += 1
        metrics.counter("cache.hits").inc()
        metrics.gauge("cache.hit_rate").set(self._hit_rate_locked())
        self._pages.move_to_end(number)
        return page

    def _page(self, number: int) -> bytes:
        """One page through the cache; fills latch per page number."""
        with self._lock:
            page = self._pages.get(number)
            if page is not None:
                return self._record_hit(number, page)
            latch = self._latches.setdefault(
                number, lockdep.instrument(threading.Lock(), "cache.latch")
            )
        with latch:
            # Re-check under the mutex: another thread may have completed
            # the fill while this one waited on the latch.
            with self._lock:
                page = self._pages.get(number)
                if page is not None:
                    return self._record_hit(number, page)
            # Miss confirmed; this thread owns the fill for this page, and
            # the device read happens outside the LRU mutex so misses on
            # other pages proceed in parallel.
            page = self.device.read(number * self.page_size, self.page_size)
            with self._lock:
                self.misses += 1
                metrics.counter("cache.misses").inc()
                metrics.gauge("cache.hit_rate").set(self._hit_rate_locked())
                self._pages[number] = page
                if len(self._pages) > self.capacity_pages:
                    self._pages.popitem(last=False)
                self._latches.pop(number, None)
            return page

    def read(self, offset: int, length: int) -> bytes:
        """Read a byte range through the cache (page-granular fills)."""
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise StorageError("read outside device bounds")
        with self._lock:
            self.stats.add_read(*_page_span(offset, length), length)
        if not length:
            # Zero-length reads touch no pages (matches BlockDevice.read,
            # including at offset == capacity).
            return b""
        with trace.span("cache.read", io=self.device.stats, bytes=length):
            first = offset // self.page_size
            last = (offset + length - 1) // self.page_size
            chunks = [self._page(n) for n in range(first, last + 1)]
        blob = b"".join(chunks)
        start = offset - first * self.page_size
        return blob[start:start + length]

    def read_ranges(self, starts: np.ndarray, stops: np.ndarray) -> bytes:
        """Scattered read through the cache; logical pages are deduplicated."""
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if starts.size:
            # Validate before accounting, mirroring BlockDevice.read_ranges:
            # a rejected call must leave the logical counters untouched.
            if np.any(stops < starts):
                bad = int(np.argmax(stops < starts))
                raise StorageError(
                    f"inverted range [{int(starts[bad])}, {int(stops[bad])}) "
                    "in scattered read"
                )
            if int(starts.min()) < 0 or int(stops.max()) > self.capacity:
                raise StorageError("scattered read outside device bounds")
        with self._lock:
            self.stats.add_read(*_scatter_span(starts, stops))
        out = bytearray()
        with trace.span("cache.read_ranges", io=self.device.stats,
                        ranges=int(starts.size)):
            for start, stop in zip(starts.tolist(), stops.tolist()):
                if stop <= start:
                    continue
                first = start // self.page_size
                last = (stop - 1) // self.page_size
                blob = b"".join(self._page(n) for n in range(first, last + 1))
                shift = start - first * self.page_size
                out += blob[shift:shift + (stop - start)]
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        """Write-through: update the device; overlapping cached pages are
        invalidated (re-read on next access) so no stale data survives."""
        with trace.span("cache.write", io=self.device.stats, bytes=len(data)):
            self.device.write(offset, data)
        with self._lock:
            self.stats.add_write(*_page_span(offset, len(data)), len(data))
            if not data:
                return
            first = offset // self.page_size
            last = (offset + len(data) - 1) // self.page_size
            for number in range(first, last + 1):
                self._pages.pop(number, None)

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def transaction(self, meta_provider=None):
        """Delegate transaction scoping to the wrapped device.  Nothing to
        drop on a rollback: every cached page is the device's bytes."""
        return self.device.transaction(meta_provider=meta_provider)

    @property
    def in_transaction(self) -> bool:
        """Is the underlying device inside a transaction scope?"""
        return getattr(self.device, "in_transaction", False)

    @property
    def supports_rollback(self) -> bool:
        """Can the underlying device roll back a transaction?"""
        return getattr(self.device, "supports_rollback", False)

    def on_rollback(self, undo) -> None:
        """Forward an undo action to the transactional device below."""
        self.device.on_rollback(undo)

    def on_commit(self, action) -> None:
        """Forward a commit action to the transactional device below."""
        self.device.on_commit(action)

    # ------------------------------------------------------------------ #

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of logical page touches served from memory."""
        with self._lock:
            return self._hit_rate_locked()

    def clear(self) -> None:
        """Drop every cached page (the cold-start state)."""
        with self._lock:
            self._pages.clear()

    def dump(self, path) -> object:
        """Write the raw device contents to a file (write-through cache holds
        no dirty pages, so the device image is always current)."""
        return self.device.dump(path)

    def close(self) -> None:
        """Close the underlying device."""
        self.device.close()

    def __enter__(self) -> "PageCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PageCache({len(self._pages)}/{self.capacity_pages} pages, "
            f"hit rate {self.hit_rate:.0%})"
        )
