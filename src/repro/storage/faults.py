"""Deterministic fault injection for the storage stack.

A :class:`FaultyDevice` wraps any block-device-like object and injects
failures from a seeded :class:`FaultSchedule`:

* **crash points** — after a chosen number of write calls the device
  raises :class:`~repro.errors.SimulatedCrash` and goes offline, exactly
  like a power failure mid-operation;
* **torn writes** — the crashing write lands only a seeded byte prefix
  (``torn="prefix"``), a seeded whole-page prefix — a partial extent —
  (``torn="pages"``), or nothing at all (``torn="none"``);
* **bit flips** — chosen write calls have one seeded bit silently
  corrupted, modelling media corruption that only checksums catch.

The schedule's write counter is shared by every device registered on it,
so one ``crash_after_writes`` index addresses a global crash point across
a data device *and* a WAL journal device — the crash-consistency suite
enumerates those points exhaustively.  All randomness derives from
``seed`` and the write index, so a failing schedule is replayed by
constructing the same :class:`FaultSchedule` again (``describe()`` prints
the recipe).
"""

from __future__ import annotations

import random

from repro.errors import SimulatedCrash, StorageError

__all__ = ["FaultSchedule", "FaultyDevice"]

_TORN_MODES = ("prefix", "pages", "none")


class FaultSchedule:
    """A deterministic plan of storage faults, shared across devices.

    ``crash_after_writes=N`` makes the *N-th* write call (1-based, counted
    across every device on this schedule) the crash point.  ``None`` never
    crashes — useful for dry runs that count a workload's writes via
    :attr:`writes_seen` before enumerating each point.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_after_writes: int | None = None,
        torn: str = "prefix",
        bitflip_writes: tuple[int, ...] = (),
    ):
        if torn not in _TORN_MODES:
            raise StorageError(f"unknown torn-write mode {torn!r}; use one of {_TORN_MODES}")
        if crash_after_writes is not None and crash_after_writes < 1:
            raise StorageError("crash_after_writes is a 1-based write index")
        self.seed = int(seed)
        self.crash_after_writes = crash_after_writes
        self.torn = torn
        self.bitflip_writes = frozenset(int(i) for i in bitflip_writes)
        self.writes_seen = 0
        self.crashed = False

    # ------------------------------------------------------------------ #

    def _rng(self, write_index: int) -> random.Random:
        """A fresh deterministic stream for one write call."""
        return random.Random(self.seed * 1_000_003 + write_index)

    def _torn_prefix(self, write_index: int, length: int, page_size: int) -> int:
        """How many bytes of the crashing write actually reach the platter."""
        if self.torn == "none" or length == 0:
            return 0
        rng = self._rng(write_index)
        if self.torn == "pages":
            pages = length // page_size + 1
            return min(length, rng.randrange(pages) * page_size)
        return rng.randrange(length + 1)  # may be 0 (nothing) or length (all)

    def describe(self) -> str:
        """The replay recipe for this schedule."""
        return (
            f"FaultSchedule(seed={self.seed}, "
            f"crash_after_writes={self.crash_after_writes}, torn={self.torn!r}, "
            f"bitflip_writes={tuple(sorted(self.bitflip_writes))})"
        )

    def __repr__(self) -> str:
        return self.describe()


class FaultyDevice:
    """A block-device wrapper that injects faults from a :class:`FaultSchedule`.

    Duck-compatible with :class:`~repro.storage.device.BlockDevice` as the
    WAL uses one; after the schedule crashes, every operation raises
    :class:`~repro.errors.SimulatedCrash` — the machine is off.  The
    surviving on-disk bytes are harvested with :meth:`snapshot`, which
    models pulling the platter out of the wreck.
    """

    def __init__(self, inner, schedule: FaultSchedule, name: str = "device"):
        self.inner = inner
        self.schedule = schedule
        self.name = name

    # ------------------------------------------------------------------ #
    # pass-through geometry and accounting
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """The wrapped device's capacity in bytes."""
        return self.inner.capacity

    @property
    def page_size(self) -> int:
        """The wrapped device's page size."""
        return self.inner.page_size

    @property
    def stats(self):
        """The wrapped device's I/O statistics."""
        return self.inner.stats

    def _check_up(self) -> None:
        if self.schedule.crashed:
            raise SimulatedCrash(
                f"{self.name} is offline after a simulated crash "
                f"({self.schedule.describe()})"
            )

    # ------------------------------------------------------------------ #
    # I/O with injected faults
    # ------------------------------------------------------------------ #

    def read(self, offset: int, length: int) -> bytes:
        """Read through to the wrapped device."""
        self._check_up()
        return self.inner.read(offset, length)

    def read_ranges_accounted(self, starts, stops) -> tuple:
        """Batched read through, with the span the wrapped device accounted."""
        self._check_up()
        return self.inner.read_ranges_accounted(starts, stops)

    def write(self, offset: int, data: bytes) -> None:
        """Write through the fault schedule; may crash, tear, or corrupt."""
        self._check_up()
        schedule = self.schedule
        schedule.writes_seen += 1
        index = schedule.writes_seen
        if index in schedule.bitflip_writes and data:
            rng = schedule._rng(index)
            pos = rng.randrange(len(data))
            data = bytes(data[:pos]) + bytes([data[pos] ^ (1 << rng.randrange(8))]) \
                + bytes(data[pos + 1:])
        crash_at = schedule.crash_after_writes
        if crash_at is not None and index >= crash_at:
            prefix = schedule._torn_prefix(index, len(data), self.page_size)
            if prefix:
                self.inner.write(offset, bytes(data[:prefix]))
            schedule.crashed = True
            raise SimulatedCrash(
                f"simulated power failure on {self.name} at write #{index} "
                f"({prefix}/{len(data)} bytes landed; {schedule.describe()})"
            )
        self.inner.write(offset, data)

    def sync(self, offset: int, length: int) -> None:
        """Forward to the wrapped device; not a write, so not counted."""
        self._check_up()
        self.inner.sync(offset, length)

    # ------------------------------------------------------------------ #
    # lifecycle / duck interface
    # ------------------------------------------------------------------ #

    def transaction(self, meta_provider=None):
        """Delegate transaction scoping to the wrapped device (no-op on raw)."""
        return self.inner.transaction(meta_provider=meta_provider)

    @property
    def in_transaction(self) -> bool:
        """Whether the wrapped device is inside a transaction scope."""
        return getattr(self.inner, "in_transaction", False)

    @property
    def supports_rollback(self) -> bool:
        """Whether the wrapped device can roll back a transaction."""
        return getattr(self.inner, "supports_rollback", False)

    def on_rollback(self, undo) -> None:
        """Forward an undo action to the transactional device below."""
        self.inner.on_rollback(undo)

    def on_commit(self, action) -> None:
        """Forward a commit action to the transactional device below."""
        self.inner.on_commit(action)

    def dump(self, path):
        """Write the device image to a file — refused once crashed."""
        self._check_up()
        return self.inner.dump(path)

    def snapshot(self) -> bytes:
        """The raw surviving bytes, readable even after the crash.

        This is the post-mortem harvest the recovery tests reload into a
        fresh device; it performs no I/O accounting.
        """
        return bytes(self.inner._backing.buf)

    def close(self) -> None:
        """Close the wrapped device."""
        self.inner.close()

    def __enter__(self) -> "FaultyDevice":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "crashed" if self.schedule.crashed else "healthy"
        return f"FaultyDevice({self.name}, {state}, {self.inner!r})"
