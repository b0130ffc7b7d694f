"""The Long Field Manager (Lehman & Lindsay, VLDB'89; §5.1 of the paper).

Stores each large object (REGION, VOLUME, mesh, raw study) as a *long
field*: one buddy-allocated extent on the block device.  Supports "fast
random I/O to arbitrary pieces of long fields directly to and from client
memory without internal buffering" — the scattered-range read is the
primitive QBISM's early spatial filtering rests on: EXTRACT_DATA reads only
the byte ranges of the requested runs, and the device's page accounting
reports how many 4 KiB I/Os that took.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LongFieldError
from repro.obs import metrics, recorder
from repro.storage.buddy import BuddyAllocator
from repro.storage.device import BlockDevice, IOStats

__all__ = ["LongFieldManager", "LongField", "FieldTableView"]

_WRITES = metrics.counter("lfm.writes")
_PAGES_WRITTEN = metrics.counter("lfm.pages_written")
_BYTES_WRITTEN = metrics.counter("lfm.bytes_written")
_READS = metrics.counter("lfm.reads")
_PAGES_READ = metrics.counter("lfm.pages_read")
_BYTES_READ = metrics.counter("lfm.bytes_read")


@dataclass(frozen=True)
class LongField:
    """Handle to a stored long field.  Opaque outside the storage layer."""

    field_id: int
    length: int

    def __repr__(self) -> str:
        return f"LongField(id={self.field_id}, {self.length} bytes)"


class LongFieldManager:
    """Creates, reads, and deletes long fields on a :class:`BlockDevice`."""

    def __init__(self, device: BlockDevice):
        self.device = device
        self._allocator = BuddyAllocator(device.capacity, device.page_size)
        # The field table and id counter commit atomically with the data
        # pages (journaled as transaction metadata), so mutations must
        # stay inside the transaction scope that journals them.
        self._fields: dict[int, tuple[int, int]] = {}  # id -> (offset, length); guarded_by: txn
        self._next_id = 1  # guarded_by: txn
        # MVCC hook: when set (by Database), delete() hands the extent
        # free to ``retire_extent(free_fn)`` instead of freeing eagerly,
        # so pinned snapshot readers can keep reading the old bytes; the
        # hook returns a token with ``cancel()`` for rollback.
        self.retire_extent = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def on_rollback(self, undo) -> bool:
        """Run ``undo`` if the open storage transaction rolls back.

        Under a write-ahead log the device runs it when the *outermost*
        transaction rolls back — which may be an enclosing
        ``Database.transaction()`` scope that aborts long after the
        registering call returned — so in-memory state (the field table,
        a loader's id counters, the database's reinstatement of its
        published version) unwinds with the long fields.  Returns False,
        registering nothing, on a raw device (it cannot roll back) and
        outside any transaction.
        """
        device = self.device
        if getattr(device, "supports_rollback", False) and device.in_transaction:
            device.on_rollback(undo)
            return True
        return False

    def create(self, data: bytes) -> LongField:
        """Store ``data`` as a new long field in one contiguous extent.

        The extent is written once, straight to the device, into space no
        committed field table claims; the field-table update is the
        transaction's metadata.  Under a write-ahead log the commit syncs
        the extent before it journals the table, so either both are
        durable or the table never names the extent, and a rollback (of
        this scope or an enclosing one) unwinds the in-memory field table
        and allocation.  On a raw device the scope is a no-op and
        behaviour (including Table 3/4 I/O accounting) is unchanged.
        """
        if not data:
            raise LongFieldError("long fields must be non-empty")
        offset = self._allocator.alloc(len(data))
        field_id = self._next_id

        def undo() -> None:
            self._fields.pop(field_id, None)
            self._next_id = field_id
            self._allocator.free(offset)

        deferred = False
        try:
            with self.device.transaction(meta_provider=self.export_state):
                deferred = self.on_rollback(undo)
                # Register the field before commit so the metadata snapshot
                # journaled with the commit record already includes it.
                self._next_id = field_id + 1
                self._fields[field_id] = (offset, len(data))
                before = self.device.stats.pages_written
                self.device.write(offset, data)
        # Cleanup-and-reraise: even SimulatedCrash must unwind the
        # in-memory state.
        except BaseException:  # qblint: disable=no-broad-except
            if not deferred:
                undo()
            raise
        _WRITES.inc()
        _PAGES_WRITTEN.inc(self.device.stats.pages_written - before)
        _BYTES_WRITTEN.inc(len(data))
        return LongField(field_id, len(data))

    def delete(self, field: LongField) -> None:
        """Drop a long field; the handle becomes invalid.

        A metadata-only transaction: under a WAL the new field table is
        journaled with the commit record so the deletion is durable, and a
        rollback of the enclosing scope restores the field.

        The extent is freed only once the deletion is committed — before
        that, the old state still references its bytes, and a create in
        the same transaction must not write over them.  With an MVCC
        ``retire_extent`` hook installed the free waits further, until
        every version published before this delete has been released;
        otherwise it runs at the storage transaction's commit (at once on
        a raw device, which has no commit to wait for).  Rollback cancels
        the pending free and restores the field entry.
        """
        offset, length = self._entry(field)
        retire = self.retire_extent
        token = None

        def free() -> None:
            self._allocator.free(offset)

        def undo() -> None:
            if token is not None:
                token.cancel()
            self._fields[field.field_id] = (offset, length)

        deferred = False
        try:
            with self.device.transaction(meta_provider=self.export_state):
                deferred = self.on_rollback(undo)
                del self._fields[field.field_id]
                if retire is not None:
                    token = retire(free)
                elif deferred:
                    self.device.on_commit(free)
        # Cleanup-and-reraise: even SimulatedCrash must unwind the
        # in-memory state.
        except BaseException:  # qblint: disable=no-broad-except
            if not deferred:
                undo()
            raise
        if retire is None and not deferred:
            free()

    def _entry(self, field: LongField) -> tuple[int, int]:
        try:
            return self._fields[field.field_id]
        except KeyError:
            raise LongFieldError(f"unknown long field id {field.field_id}") from None

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def read(self, field: LongField, offset: int = 0, length: int | None = None) -> bytes:
        """Read a contiguous piece of a long field (whole field by default)."""
        return self._read_entry(self._entry(field), offset, length)

    def _read_entry(
        self, entry: tuple[int, int], offset: int, length: int | None
    ) -> bytes:
        """The contiguous-read body, parameterized over the field entry.

        Split out so :class:`FieldTableView` can run the identical I/O and
        accounting path against a snapshot's field table.
        """
        base, total = entry
        if length is None:
            length = total - offset
        if offset < 0 or length < 0 or offset + length > total:
            raise LongFieldError(
                f"read [{offset}, {offset + length}) outside long field of "
                f"{total} bytes"
            )
        was = recorder.enter("storage.lfm")
        try:
            before = self.device.stats.pages_read
            data = self.device.read(base + offset, length)
        finally:
            recorder.leave(was)
        _READS.inc()
        _PAGES_READ.inc(self.device.stats.pages_read - before)
        _BYTES_READ.inc(len(data))
        return data

    def read_ranges(self, field: LongField, starts: np.ndarray, stops: np.ndarray) -> bytes:
        """Scattered read of byte ranges within a long field, page-deduplicated.

        ``starts``/``stops`` are half-open byte offsets relative to the
        field.  This is the EXTRACT_DATA access path: the run list of a
        REGION maps directly to these ranges.
        """
        return self._read_ranges_entry(self._entry(field), starts, stops)

    def _read_ranges_entry(
        self, entry: tuple[int, int], starts: np.ndarray, stops: np.ndarray
    ) -> bytes:
        """The scattered-read body, parameterized over the field entry."""
        base, total = entry
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        if starts.size:
            if np.any(stops < starts):
                bad = int(np.argmax(stops < starts))
                raise LongFieldError(
                    f"inverted range [{int(starts[bad])}, {int(stops[bad])}) "
                    "in scattered read"
                )
            if starts.min() < 0 or stops.max() > total:
                raise LongFieldError("scattered read outside long field bounds")
        was = recorder.enter("storage.lfm")
        try:
            before = self.device.stats.pages_read
            data = self.device.read_ranges(base + starts, base + stops)
        finally:
            recorder.leave(was)
        _READS.inc()
        _PAGES_READ.inc(self.device.stats.pages_read - before)
        _BYTES_READ.inc(len(data))
        return data

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # persistence support
    # ------------------------------------------------------------------ #

    def export_state(self) -> dict:
        """Field table + id counter, JSON-serializable (for save/load)."""
        return {
            "next_id": self._next_id,
            "fields": {
                str(field_id): [offset, length]
                for field_id, (offset, length) in self._fields.items()
            },
        }

    @classmethod
    def restore(cls, device: BlockDevice, state: dict) -> "LongFieldManager":
        """Rebuild an LFM over an existing device from :meth:`export_state`.

        The allocator is reconstructed by carving every recorded extent
        back out of the arena; the byte contents are whatever the device
        already holds.
        """
        lfm = cls(device)
        lfm._next_id = int(state["next_id"])
        for field_id, (offset, length) in state["fields"].items():
            lfm._allocator.carve(int(offset), int(length))
            lfm._fields[int(field_id)] = (int(offset), int(length))
        return lfm

    def handle(self, field_id: int) -> LongField:
        """Re-materialize a handle from a persisted field id."""
        try:
            _, length = self._fields[field_id]
        except KeyError:
            raise LongFieldError(f"unknown long field id {field_id}") from None
        return LongField(field_id, length)

    @property
    def stats(self) -> IOStats:
        """The device's cumulative I/O counters."""
        return self.device.stats

    @property
    def field_count(self) -> int:
        """Number of long fields currently stored."""
        return len(self._fields)

    @property
    def stored_bytes(self) -> int:
        """Sum of logical long-field lengths (not allocation sizes)."""
        return sum(length for _, length in self._fields.values())

    @property
    def allocated_bytes(self) -> int:
        """Bytes reserved on the device: each extent rounded up to whole pages."""
        return self._allocator.allocated_bytes

    def space(self) -> dict[int, tuple[int, int]]:
        """Per field id, ``(stored, allocated)``: its length and its extent's size."""
        block = self._allocator.block_size
        return {field_id: (length, block(offset))
                for field_id, (offset, length) in self._fields.items()}

    def __repr__(self) -> str:
        return (
            f"LongFieldManager({self.field_count} fields, "
            f"{self.stored_bytes} logical / {self.allocated_bytes} allocated bytes)"
        )


class FieldTableView:
    """A read-only LFM facade bound to one MVCC version's field table.

    Snapshot SELECTs get one of these as their ``ctx.lfm``: reads resolve
    field ids against the frozen table (so a field deleted *after* the
    version was published still resolves, its extent kept alive by the
    deferred-free protocol) and then run the manager's own I/O and
    accounting path.  Mutations are rejected — a writing UDF inside a
    pinned-snapshot SELECT would bypass the write lock entirely.
    """

    __slots__ = ("_lfm", "_fields")

    def __init__(self, lfm: LongFieldManager, fields: dict[int, tuple[int, int]]):
        self._lfm = lfm
        self._fields = fields

    def _entry(self, field: LongField) -> tuple[int, int]:
        try:
            return self._fields[field.field_id]
        except KeyError:
            raise LongFieldError(f"unknown long field id {field.field_id}") from None

    def read(self, field: LongField, offset: int = 0, length: int | None = None) -> bytes:
        """Read a contiguous piece of a long field from the snapshot."""
        return self._lfm._read_entry(self._entry(field), offset, length)

    def read_ranges(self, field: LongField, starts: np.ndarray, stops: np.ndarray) -> bytes:
        """Scattered read of byte ranges, resolved against the snapshot."""
        return self._lfm._read_ranges_entry(self._entry(field), starts, stops)

    def handle(self, field_id: int) -> LongField:
        """Re-materialize a handle from a field id known to the snapshot."""
        try:
            _, length = self._fields[field_id]
        except KeyError:
            raise LongFieldError(f"unknown long field id {field_id}") from None
        return LongField(field_id, length)

    def create(self, data: bytes) -> LongField:
        """Refused: the snapshot view is read-only."""
        raise LongFieldError(
            "cannot create long fields through a read-only snapshot view"
        )

    def delete(self, field: LongField) -> None:
        """Refused: the snapshot view is read-only."""
        raise LongFieldError(
            "cannot delete long fields through a read-only snapshot view"
        )

    @property
    def device(self) -> BlockDevice:
        """The underlying device (shared with the live manager)."""
        return self._lfm.device

    @property
    def stats(self) -> IOStats:
        """The device's cumulative I/O counters (shared, live)."""
        return self._lfm.device.stats

    @property
    def field_count(self) -> int:
        """Number of long fields visible in this snapshot."""
        return len(self._fields)

    @property
    def stored_bytes(self) -> int:
        """Sum of logical long-field lengths visible in this snapshot."""
        return sum(length for _, length in self._fields.values())

    def __repr__(self) -> str:
        return f"FieldTableView({self.field_count} fields)"
