"""Property-based tests for the storage layer and DATA_REGION operations."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import GridSpec
from repro.errors import AllocationError, SimulatedCrash
from repro.regions import Region
from repro.storage import (
    BlockDevice,
    BuddyAllocator,
    FaultSchedule,
    FaultyDevice,
    LongFieldManager,
    WriteAheadLog,
)
from repro.volumes import Volume

# ---------------------------------------------------------------------- #
# buddy allocator: random alloc/free traces never hand out overlapping
# or misaligned extents, and a fully freed arena coalesces completely
# ---------------------------------------------------------------------- #

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 40_000)),
        st.tuples(st.just("free"), st.integers(0, 30)),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_buddy_allocator_invariants(ops):
    capacity = 1 << 18
    buddy = BuddyAllocator(capacity, min_block=4096)
    live: list[int] = []
    for op, value in ops:
        if op == "alloc":
            try:
                offset = buddy.alloc(value)
            except AllocationError:
                continue  # arena exhausted; valid outcome
            size = buddy.block_size(offset)
            # page-rounded, not a power of two ...
            assert size == -(-value // 4096) * 4096
            # ... at an offset aligned to its power-of-two ceiling
            assert offset % (1 << (size - 1).bit_length()) == 0
            assert 0 <= offset and offset + size <= capacity
            # No overlap with any live extent.
            for other in live:
                other_size = buddy.block_size(other)
                assert offset + size <= other or other + other_size <= offset
            live.append(offset)
        elif live:
            buddy.free(live.pop(value % len(live)))
    for offset in live:
        buddy.free(offset)
    # Everything freed: the arena must coalesce back into one max block.
    assert buddy.allocated_bytes == 0
    assert buddy.alloc(capacity) == 0


# ---------------------------------------------------------------------- #
# buddy allocator torture: random alloc/free traces, with the structural
# validator (alignment, no overlap, conservation, coalescing) run after
# every single operation, and a second allocator rebuilt by carving every
# live extent agreeing with the first
# ---------------------------------------------------------------------- #

_torture_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 60_000)),
        st.tuples(st.just("free"), st.integers(0, 40)),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=_torture_ops)
@settings(max_examples=60, deadline=None)
def test_buddy_allocator_rebuilt_by_carving_the_live_extents(ops):
    capacity = 1 << 18
    buddy = BuddyAllocator(capacity, min_block=4096)
    live: dict[int, int] = {}  # offset -> requested size
    for op, value in ops:
        if op == "alloc":
            try:
                offset = buddy.alloc(value)
            except AllocationError:
                buddy.validate()  # a refused alloc must not corrupt state
                continue
            live[offset] = value
        elif live:
            offset = sorted(live)[value % len(live)]
            del live[offset]
            buddy.free(offset)
        buddy.validate()
        assert set(buddy.allocations()) == set(live)
    rebuilt = BuddyAllocator(capacity, min_block=4096)
    for offset, size in live.items():
        rebuilt.carve(offset, size)
    assert rebuilt.allocations() == buddy.allocations()
    rebuilt.validate()
    for offset in sorted(live):
        buddy.free(offset)
        buddy.validate()
    assert buddy.allocated_bytes == 0
    assert buddy.alloc(capacity) == 0


@given(
    crash_at=st.integers(1, 12),
    sizes=st.lists(st.integers(1, 30_000), min_size=1, max_size=6),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_allocator_rebuilt_after_allocation_time_crash(crash_at, sizes, seed):
    """A crash during any allocation leaves a rebuildable, valid allocator.

    The allocator itself is in-memory state rebuilt from the journaled
    field table; the property is that after a crash at an arbitrary write
    index mid-workload, the table recovery hands back carves cleanly, the
    rebuilt allocator satisfies every invariant, and each surviving
    field's bytes are intact.
    """
    capacity = 1 << 20
    schedule = FaultSchedule(seed=seed, crash_after_writes=crash_at, torn="prefix")
    data = BlockDevice(capacity)
    journal = BlockDevice(capacity)
    wal = WriteAheadLog(
        FaultyDevice(data, schedule, name="data"),
        FaultyDevice(journal, schedule, name="journal"),
        recover=False,
    )
    lfm = LongFieldManager(wal)
    payloads = {}
    try:
        for i, size in enumerate(sizes):
            payload = bytes([(i * 37 + j) % 256 for j in range(size)])
            # Key by the id the field WILL get: a create that crashes
            # after its commit record still surfaces after recovery.
            payloads[i + 1] = payload
            lfm.create(payload)
    except SimulatedCrash:
        pass
    # In-memory rollback: the live LFM's allocator must stay coherent even
    # though the last transaction died.
    lfm._allocator.validate()
    assert set(lfm._allocator.allocations()) == {
        offset for offset, _ in lfm._fields.values()
    }

    # Reboot: recover the journal, rebuild the allocator from the
    # committed field table, and check every invariant again.
    data2 = BlockDevice(capacity)
    data2.write(0, bytes(data._backing.buf))
    journal2 = BlockDevice(capacity)
    journal2.write(0, bytes(journal._backing.buf))
    wal2 = WriteAheadLog(data2, journal2, recover=True)
    meta = wal2.last_committed_meta or {"next_id": 1, "fields": {}}
    rebuilt = LongFieldManager.restore(wal2, meta)
    rebuilt._allocator.validate()
    for field_id in meta["fields"]:
        assert rebuilt.read(rebuilt.handle(int(field_id))) == payloads[int(field_id)]
    # The rebuilt store still allocates.
    extra = rebuilt.create(b"post-recovery")
    assert rebuilt.read(extra) == b"post-recovery"
    rebuilt._allocator.validate()


# ---------------------------------------------------------------------- #
# volume extraction / data-region operations agree with dense numpy
# ---------------------------------------------------------------------- #

_small_volume = st.builds(
    lambda seed: np.random.default_rng(seed).integers(0, 256, (8, 8, 8)).astype(np.uint8),
    st.integers(0, 2**31),
)

_mask8 = st.lists(st.booleans(), min_size=512, max_size=512).map(
    lambda bits: np.asarray(bits, dtype=bool).reshape(8, 8, 8)
)


@given(arr=_small_volume, mask=_mask8)
@settings(max_examples=40, deadline=None)
def test_extract_matches_dense_indexing(arr, mask):
    grid = GridSpec((8, 8, 8))
    volume = Volume.from_array(arr)
    region = Region.from_mask(mask, grid)
    data = volume.extract(region)
    coords = region.coords()
    expected = arr[coords[:, 0], coords[:, 1], coords[:, 2]]
    assert np.array_equal(data.values, expected)
    assert np.array_equal(data.to_array(fill=0)[mask], arr[mask])


@given(arr=_small_volume, mask=_mask8, lo=st.integers(0, 255), hi=st.integers(0, 255))
@settings(max_examples=40, deadline=None)
def test_band_then_restrict_consistency(arr, mask, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    grid = GridSpec((8, 8, 8))
    volume = Volume.from_array(arr)
    region = Region.from_mask(mask, grid)
    data = volume.extract(region)
    banded = data.band(lo, hi)
    # The banded region is exactly the voxels of `region` with in-range values.
    expected = mask & (arr >= lo) & (arr <= hi)
    assert np.array_equal(banded.region.to_mask(), expected)
    # Restricting the full extraction to the banded region returns its values.
    again = data.restrict(banded.region)
    assert again == banded


@given(arr=_small_volume, mask=_mask8)
@settings(max_examples=30, deadline=None)
def test_data_region_payload_roundtrip(arr, mask):
    volume = Volume.from_array(arr)
    region = Region.from_mask(mask, GridSpec((8, 8, 8)))
    data = volume.extract(region)
    from repro.volumes import DataRegion

    assert DataRegion.from_bytes(data.to_bytes()) == data
