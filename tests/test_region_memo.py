"""The query-time REGION decode memo (``repro.db.functions.decode_region``).

A REGION payload a query reads is decoded once per distinct payload: the
long-field read itself still happens, and is counted, on every call; only
the decode of bytes already seen is skipped.  The payload is its own key,
so answers never depend on what the memo holds.
"""

from __future__ import annotations

import threading

import pytest

from repro import GridSpec
from repro.db import Database, functions, register_spatial_functions
from repro.errors import CodecError, ExecutionError
from repro.obs import metrics
from repro.regions import Region
from repro.regions.region import REGION_MAGIC
from repro.storage import BlockDevice, LongFieldManager
from tests.conftest import ball

GRID = GridSpec((16, 16, 16))


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from an empty memo (it is process-wide)."""
    monkeypatch.setattr(functions, "_DECODED", {})
    monkeypatch.setattr(functions, "_decoded_bytes", 0)


@pytest.fixture
def decodes(monkeypatch):
    """Every payload ``Region.from_bytes`` decodes, in call order."""
    seen: list[bytes] = []
    original = Region.from_bytes.__func__

    def counting(cls, data):
        seen.append(bytes(data))
        return original(cls, data)

    monkeypatch.setattr(Region, "from_bytes", classmethod(counting))
    return seen


@pytest.fixture
def env():
    lfm = LongFieldManager(BlockDevice(16 << 20))
    db = Database(lfm=lfm)
    register_spatial_functions(db)
    db.execute("create table shapes (shapeId integer, region longfield)")
    shapes = {
        1: ball(GRID, (8, 8, 8), 5.0),
        2: Region.from_box(GRID, (6, 6, 6), (16, 16, 16)),
        3: ball(GRID, (4, 4, 4), 3.0),
    }
    for shape_id, region in shapes.items():
        db.execute("insert into shapes values (?, ?)",
                   [shape_id, lfm.create(region.to_bytes("naive"))])
    return db, lfm, shapes


def _memo_bytes() -> int:
    """What the memo's entries cost, recomputed from the entries."""
    return sum(len(payload) + 16 * region.run_count
               for payload, region in functions._DECODED.items())


class TestStoredRegions:
    def test_a_stored_region_read_by_many_statements_is_decoded_once(
            self, env, decodes):
        db, lfm, shapes = env
        sql = "select voxelCount(region) from shapes where shapeId = 1"
        before = lfm.stats.copy()
        results = [db.execute(sql) for _ in range(5)]
        assert [r.scalar() for r in results] == [shapes[1].voxel_count] * 5
        assert len(decodes) == 1
        # every statement still reads (and is charged for) the field
        pages = [r.io.pages_read for r in results]
        assert pages[0] > 0 and pages == [pages[0]] * 5
        assert (lfm.stats - before).read_calls == 5

    def test_pages_read_match_an_undecoded_read(self, env, monkeypatch):
        db, _, _ = env
        sql = ("select a.shapeId, voxelCount(intersection(a.region, b.region))"
               " from shapes a, shapes b order by a.shapeId, b.shapeId")
        warm = [db.execute(sql) for _ in range(2)]
        monkeypatch.setattr(functions, "_DECODED_MAX", 0)  # nothing enters
        cold = db.execute(sql)
        assert warm[0].rows == warm[1].rows == cold.rows
        assert warm[0].io.pages_read == warm[1].io.pages_read == cold.io.pages_read
        assert warm[1].work.runs_processed == cold.work.runs_processed

    def test_counters_split_hits_from_misses(self, env):
        db, _, _ = env
        hits = metrics.counter("regions.decode_memo.hits")
        misses = metrics.counter("regions.decode_memo.misses")
        hits_before, misses_before = hits.value, misses.value
        for _ in range(3):
            db.execute("select runCount(region) from shapes where shapeId = 2")
        assert misses.value - misses_before == 1
        assert hits.value - hits_before == 2


class TestCorruptPayloads:
    def test_a_corrupt_payload_raises_the_same_error_every_time(self, env):
        db, lfm, _ = env
        bad = REGION_MAGIC + b"\xff" * 40
        db.execute("insert into shapes values (?, ?)", [9, lfm.create(bad)])
        errors = []
        for _ in range(3):
            with pytest.raises(ExecutionError) as caught:
                db.execute("select voxelCount(region) from shapes where shapeId = 9")
            assert isinstance(caught.value.__cause__, CodecError)
            errors.append(str(caught.value))
        assert errors == [errors[0]] * 3
        for _ in range(2):
            with pytest.raises(CodecError):
                functions.decode_region(bad)
        assert bad not in functions._DECODED
        assert functions._decoded_bytes == _memo_bytes() == 0


class TestCap:
    def test_past_the_cap_the_memo_starts_over_and_answers_hold(
            self, env, monkeypatch):
        db, _, shapes = env
        sql = "select shapeId, voxelCount(region) from shapes order by shapeId"
        expected = [(k, shapes[k].voxel_count) for k in sorted(shapes)]
        largest = max(len(r.to_bytes("naive")) + 16 * r.run_count
                      for r in shapes.values())
        monkeypatch.setattr(functions, "_DECODED_MAX", largest + 1)
        misses = metrics.counter("regions.decode_memo.misses")
        for _ in range(4):
            before = misses.value
            assert db.execute(sql).rows == expected
            assert functions._decoded_bytes == _memo_bytes() <= largest + 1
            assert len(functions._DECODED) < len(shapes)
            assert misses.value > before  # what a full memo dropped is decoded again

    def test_a_payload_larger_than_the_cap_never_enters(self, monkeypatch):
        payload = ball(GRID, (8, 8, 8), 6.0).to_bytes("naive")
        monkeypatch.setattr(functions, "_DECODED_MAX", len(payload))
        first = functions.decode_region(payload)
        assert functions.decode_region(payload) == first
        assert not functions._DECODED and functions._decoded_bytes == 0


class TestSpatialIndexProbe:
    def test_a_probe_statement_decodes_its_probe_payload_once(
            self, env, decodes):
        db, _, shapes = env
        db.execute("create spatial index sx on shapes (region)")
        box = Region.from_box(GRID, (0, 0, 0), (8, 8, 8))
        probe = box.to_bytes("naive")
        sql = ("select shapeId from shapes"
               " where voxelCount(intersection(region, ?)) > 0 order by shapeId")
        plan = "\n".join(str(row[0]) for row in db.execute("explain " + sql, [probe]).rows)
        assert "via spatial(region)" in plan
        result = db.execute(sql, [probe])
        assert result.column("shapeId") == [
            k for k in sorted(shapes) if shapes[k].intersection(box).voxel_count]
        assert decodes.count(probe) == 1


class TestConcurrentFirstDecodes:
    def test_threads_decoding_one_new_payload_agree(self):
        payload = ball(GRID, (7, 9, 8), 4.0).to_bytes("elias")
        expected = Region.from_bytes(payload)
        threads = 8
        barrier = threading.Barrier(threads)
        regions: list[Region] = []
        errors: list[BaseException] = []

        def decode():
            try:
                barrier.wait()
                regions.append(functions.decode_region(payload))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        workers = [threading.Thread(target=decode) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert len(regions) == threads and all(r == expected for r in regions)
        assert list(functions._DECODED) == [payload]
        assert functions._decoded_bytes == _memo_bytes() == \
            len(payload) + 16 * expected.run_count
