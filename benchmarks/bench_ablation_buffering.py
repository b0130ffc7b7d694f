"""Ablation A8: would a DBMS-side buffer pool have changed the story?

The paper runs everything unbuffered (§6.1) and caches *results* in DX
instead.  This ablation replays a realistic query mix against the same
long fields and feeds the pages each read touches through an LRU page
buffer, reporting the physical-I/O savings per query pattern:

* cold single-study queries (the Table 3 mix) — each touches fresh pages,
  so a buffer pool buys little;
* a repeated-query session (user re-renders the same structure) — the
  buffer pool absorbs everything, which is exactly the behaviour the DX
  result cache already provides one layer up, without holding DBMS memory.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
from conftest import bench_grid_side, emit

from repro.regions import Region
from repro.storage import BlockDevice, LongFieldManager, PAGE_SIZE
from repro.volumes import Volume


class _TouchLog(BlockDevice):
    """A device that logs the page numbers its reads touch, in the order a
    page-granular buffer would be asked for them: each byte range of a
    scattered read page by page, so ranges sharing a page touch it again."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self.touches: list[int] = []

    def _touch(self, start: int, stop: int) -> None:
        if stop > start:
            self.touches.extend(range(start // PAGE_SIZE, (stop - 1) // PAGE_SIZE + 1))

    def read(self, offset: int, length: int) -> bytes:
        data = super().read(offset, length)
        self._touch(offset, offset + length)
        return data

    def read_ranges(self, starts: np.ndarray, stops: np.ndarray) -> bytes:
        data = super().read_ranges(starts, stops)
        for start, stop in zip(np.asarray(starts).tolist(), np.asarray(stops).tolist()):
            self._touch(start, stop)
        return data


def _replay(lru: OrderedDict, capacity_pages: int, touches: list[int]) -> tuple[int, int]:
    """``(hits, misses)`` of the page touches through the LRU, which keeps
    its contents for the next replay; each miss is one physical page read."""
    hits = misses = 0
    for page in touches:
        if page in lru:
            hits += 1
            lru.move_to_end(page)
        else:
            misses += 1
            lru[page] = None
            if len(lru) > capacity_pages:
                lru.popitem(last=False)
    return hits, misses


def _rebuild(paper_system):
    """Copy one study's volume + structure regions onto a logging device."""
    handle = paper_system.db.execute(
        "select data from warpedVolume where studyId = ?",
        [paper_system.pet_study_ids[0]],
    ).scalar()
    volume_bytes = paper_system.lfm.read(handle)
    device = _TouchLog(1 << 28)
    lfm = LongFieldManager(device)
    volume_lf = lfm.create(volume_bytes)
    region_lfs = {
        name: lfm.create(region.to_bytes("naive"))
        for name, region in paper_system.phantom.structures.items()
    }
    return device, lfm, volume_lf, region_lfs


def _extract(lfm, volume_lf, region_lf):
    header = Volume.parse_header(lfm.read(volume_lf, 0, Volume.header_size()))
    region = Region.from_bytes(lfm.read(region_lf))
    starts, stops = header.value_byte_ranges(region.intervals)
    lfm.read_ranges(volume_lf, starts, stops)


def test_buffer_pool_ablation(paper_system, results_dir, benchmark):
    capacity_pages = 1024  # a 4 MiB buffer pool
    device, lfm, volume_lf, region_lfs = _rebuild(paper_system)
    names = sorted(region_lfs)
    benchmark(_extract, lfm, volume_lf, region_lfs[names[0]])
    lru: OrderedDict = OrderedDict()  # the buffer pool, cold

    def phase(region_names) -> tuple[int, int, float]:
        """(logical, physical, hit rate) of extracting each named region."""
        device.stats.reset()
        device.touches.clear()
        for name in region_names:
            _extract(lfm, volume_lf, region_lfs[name])
        hits, misses = _replay(lru, capacity_pages, device.touches)
        return device.stats.pages_read, misses, hits / (hits + misses)

    # Phase 1: a cold sweep over every structure (distinct pages).
    cold_logical, cold_physical, cold_hit_rate = phase(names)
    # Phase 2: the same query repeated (a user iterating on one view).
    hot_logical, hot_physical, hot_hit_rate = phase(["ntal"] * 5)

    text = "\n".join(
        [
            f"grid side: {bench_grid_side()}; buffer pool: {capacity_pages} pages "
            f"({capacity_pages * PAGE_SIZE >> 20} MiB)",
            f"{'workload':>24}  {'logical I/O':>11}  {'physical I/O':>12}  {'hit rate':>8}",
            f"{'cold structure sweep':>24}  {cold_logical:>11}  {cold_physical:>12}  "
            f"{cold_hit_rate:>8.0%}",
            f"{'same query x5':>24}  {hot_logical:>11}  {hot_physical:>12}  "
            f"{hot_hit_rate:>8.0%}",
            "notes: repeats are absorbed almost entirely — behaviour the DX",
            "result cache already provides one layer up (the paper's choice).",
            "Cold sweeps benefit only to the extent structures share pages",
            "(they cluster inside the brain envelope).",
        ]
    )
    emit(results_dir, "ablation_buffering", text)

    # Repeated queries are absorbed almost entirely...
    assert hot_physical < 0.35 * hot_logical
    assert hot_hit_rate > 0.9
    # ...and at least as well as a cold exploratory sweep.
    assert hot_hit_rate >= cold_hit_rate
    # A buffer pool never increases physical I/O.
    assert cold_physical <= cold_logical
