"""Tests for serving-grade monitoring: trace ids, per-statement I/O
attribution, the flight recorder and its incident triggers, the structured
query log, histogram percentiles, Prometheus exposition, and the admin
HTTP endpoint."""

from __future__ import annotations

import importlib.util
import json
import re
import threading
import tracemalloc
import urllib.error
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.bench.workloads import run_table3, run_table4
from repro.core.system import QbismSystem
from repro.errors import ReproError, SqlSyntaxError, ValidationError
from repro.obs import digest, metrics, promtext, qlog, recorder
from repro.server import QueryServer
from repro.storage.device import PAGE_SIZE, BlockDevice, IOStats, attribute_io
from repro.storage.lfm import LongFieldManager
from repro.storage.wal import WriteAheadLog
from tests.conftest import executemany


@pytest.fixture(autouse=True)
def clean_monitoring():
    def scrub():
        metrics.reset()
        recorder.enable()
        recorder.reset()
        recorder.get_recorder().slow_threshold_seconds = None
        recorder.get_recorder().incident_dir = None
        qlog.disable()

    scrub()
    yield
    scrub()


@pytest.fixture(scope="module")
def system():
    return QbismSystem.build_demo(grid_side=16, n_pet=2, n_mri=1, seed=7)


@pytest.fixture(scope="module")
def structure_ids(system):
    return system.db.execute(
        "select structureId from atlasStructure"
    ).column("structureId")


def _phases_sum_to_wall(record) -> bool:
    """A record's phases add up to its wall time (5 %, or 20 us)."""
    gap = abs(sum(record.phases.values()) - record.wall_seconds)
    return gap <= max(0.05 * record.wall_seconds, 20e-6)


class TestAttributeIO:
    def test_sink_receives_only_this_threads_io(self):
        source = IOStats()

        def other_thread():
            source.add_read(5, 1, 5 * PAGE_SIZE)

        with attribute_io(source) as sink:
            source.add_read(2, 1, 2 * PAGE_SIZE)
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert sink.pages_read == 2
        assert sink.bytes_read == 2 * PAGE_SIZE
        assert source.pages_read == 7  # the source still sees everything

    def test_nested_sinks_both_tee(self):
        source = IOStats()
        with attribute_io(source) as outer:
            source.add_write(1, 1, PAGE_SIZE)
            with attribute_io(source) as inner:
                source.add_write(3, 1, 3 * PAGE_SIZE)
        assert inner.pages_written == 3
        assert outer.pages_written == 4
        assert source.pages_written == 4

    def test_sink_detaches_on_exit(self):
        source = IOStats()
        with attribute_io(source) as sink:
            pass
        source.add_read(4, 1, 4 * PAGE_SIZE)
        assert sink.pages_read == 0

    def test_device_reads_reach_the_sink(self):
        device = BlockDevice(16 * PAGE_SIZE)
        device.write(0, b"x" * (2 * PAGE_SIZE))
        with attribute_io(device.stats) as sink:
            device.read(0, 2 * PAGE_SIZE)
        assert sink.pages_read == 2
        assert sink.read_calls == 1


_STATEMENT_IO = re.compile(r"statement I/O: (\d+) pages")


class TestConcurrentExplainAnalyze:
    """The cross-attribution regression: each statement's own page I/O,
    as EXPLAIN ANALYZE prints it and as its flight record keeps it, must
    be exact while other EXPLAIN ANALYZEs run beside it."""

    @staticmethod
    def _sql(sid: int) -> str:
        return (f"explain analyze select voxelCount(region) "
                f"from atlasStructure where structureId = {sid}")

    def _analyze(self, db, sid: int):
        result = db.execute(self._sql(sid))
        printed = _STATEMENT_IO.search(result.rows[-1][0])
        return result.io.pages_read, int(printed.group(1))

    def test_many_sessions_attribute_exactly(self, system, structure_ids):
        db = system.db
        sids = (structure_ids * 4)[:12]
        serial = {sid: self._analyze(db, sid) for sid in set(sids)}
        recorder.reset()
        barrier = threading.Barrier(len(sids))
        results: list = [None] * len(sids)

        def client(k: int, sid: int) -> None:
            barrier.wait()
            results[k] = self._analyze(db, sid)

        threads = [threading.Thread(target=client, args=(k, sid))
                   for k, sid in enumerate(sids)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for sid, got in zip(sids, results):
            # the statement total and the printed figure match the serial
            # run exactly: no pages leaked across threads
            assert got == serial[sid]
        # ... and so does every record's own count
        pages = {self._sql(sid): serial[sid][0] for sid in sids}
        records = recorder.get_recorder().recent(len(sids))
        assert sorted(r.sql for r in records) == sorted(map(self._sql, sids))
        assert all(r.pages_read == pages[r.sql] for r in records)


class TestTracePropagation:
    def test_one_record_per_statement_under_16_sessions(self, system,
                                                        structure_ids):
        n_sessions, per_session = 16, 2
        with QueryServer(system.db, workers=8, result_cache=False) as server:
            def client(k: int) -> None:
                with server.connect(name=f"trace-{k}") as session:
                    for j in range(per_session):
                        sid = structure_ids[(k + j) % len(structure_ids)]
                        session.execute(
                            f"select voxelCount(region) from atlasStructure "
                            f"where structureId = {sid}"
                        )

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(n_sessions)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        records = recorder.get_recorder().recent(100)
        assert len(records) == n_sessions * per_session
        # each statement is its own trace, tagged with the session that
        # issued it, its phases summing to its wall time
        assert len({r.trace_id for r in records}) == len(records)
        assert None not in {r.trace_id for r in records}
        sessions = [r.session for r in records]
        assert sorted(sessions) == sorted(
            f"trace-{k}" for k in range(n_sessions) for _ in range(per_session))
        assert all(_phases_sum_to_wall(r) for r in records)

    def test_per_session_io_sums_to_global_delta(self, system, structure_ids):
        db = system.db
        for sid in structure_ids:  # warm so the trial is steady-state
            db.execute(f"select voxelCount(region) from atlasStructure "
                       f"where structureId = {sid}")
        statements = [
            f"select voxelCount(region) from atlasStructure "
            f"where structureId = {sid}"
            for sid in (structure_ids * 3)[:9]
        ]
        before = db.lfm.stats.copy()
        results: list = [None] * len(statements)
        with QueryServer(db, workers=4, result_cache=False) as server:
            def client(k: int) -> None:
                with server.connect(name=f"sum-{k}") as session:
                    results[k] = session.execute(statements[k])

            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(len(statements))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        delta = db.lfm.stats - before
        assert all(r is not None for r in results)
        assert sum(r.io.pages_read for r in results) == delta.pages_read
        assert sum(r.io.bytes_read for r in results) == delta.bytes_read
        assert any(r.io.pages_read for r in results)  # the trial did real I/O


class TestFlightRecorder:
    def test_served_statement_yields_one_tagged_record(self, system):
        with QueryServer(system.db, workers=2) as server:
            with server.connect(name="rec-1") as session:
                session.execute("select count(*) from atlasStructure")
        assert recorder.get_recorder().recorded == 1
        (record,) = recorder.get_recorder().recent(1)
        assert record.session == "rec-1"
        assert record.trace_id is not None
        assert record.kind == "read"
        assert record.ok and record.error is None
        assert record.rows == 1
        assert record.wall_seconds > 0
        assert record.pool_wait_seconds >= 0
        assert record.to_dict()["pool_wait_ms"] >= 0

    def test_direct_execute_also_yields_one_record(self, system):
        system.db.execute("select count(*) from patient")
        assert recorder.get_recorder().recorded == 1
        (record,) = recorder.get_recorder().recent(1)
        assert record.session is None
        assert record.kind == "read"

    def test_cache_hit_is_flagged(self, system):
        sql = "select count(*) from neuralStructure"
        with QueryServer(system.db, workers=2) as server:
            with server.connect(name="hit") as session:
                session.execute(sql)
                session.execute(sql)
        second, first = recorder.get_recorder().recent(2)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.pages_read == 0

    def test_error_statement_triggers_incident(self, system):
        with pytest.raises(Exception):
            system.db.execute("select nope(1) from patient")
        (record,) = recorder.get_recorder().recent(1)
        assert not record.ok
        assert record.error
        (incident,) = recorder.get_recorder().incidents()
        assert incident["reason"] == "query.error"
        assert incident["trigger"]["sql"] == "select nope(1) from patient"

    def test_slow_threshold_triggers_incident_file(self, system, tmp_path):
        recorder.get_recorder().slow_threshold_seconds = 0.0
        recorder.get_recorder().incident_dir = tmp_path / "incidents"
        system.db.execute("select count(*) from patient")
        (incident,) = recorder.get_recorder().incidents()
        assert incident["reason"] == "query.slow"
        (path,) = sorted((tmp_path / "incidents").iterdir())
        report = json.loads(path.read_text())
        assert report["reason"] == "query.slow"
        assert report["recent_queries"]
        assert "counters" in report["metrics"]

    def test_ring_is_bounded(self, system):
        recorder.get_recorder().resize(4)
        try:
            for _ in range(6):
                system.db.execute("select count(*) from patient")
            assert recorder.get_recorder().recorded == 6
            assert len(recorder.get_recorder().recent(100)) == 4
        finally:
            recorder.get_recorder().resize(512)

    def test_disabled_recorder_records_nothing(self, system):
        recorder.disable()
        system.db.execute("select count(*) from patient")
        assert recorder.get_recorder().recorded == 0

    def test_recorder_does_not_change_io_accounting(self, demo_system):
        def run(lfm):
            handle = lfm.create(b"z" * 6000)
            lfm.read(handle)
            return lfm

        def paper_tables():
            """Grid-32 Table 3/4: LFM page I/Os and the payloads."""
            table3 = run_table3(demo_system)
            table4 = run_table4(demo_system)
            return ({q: o.timing.lfm_page_ios for q, o in table3.items()},
                    {e: row.lfm_page_ios for e, (_, row) in table4.items()},
                    [o.result.payload for o in table3.values()]
                    + [region.to_bytes() for region, _ in table4.values()])

        recorded = run(LongFieldManager(BlockDevice(16 * PAGE_SIZE)))
        pins3, pins4, payloads = paper_tables()
        assert recorder.get_recorder().recorded > 0  # the scopes were live
        recorder.disable()
        plain = run(LongFieldManager(BlockDevice(16 * PAGE_SIZE)))
        assert vars(plain.stats) == vars(recorded.stats)
        assert paper_tables() == (pins3, pins4, payloads)
        assert pins3 == {"Q1": 9, "Q2": 9, "Q3": 10, "Q4": 6, "Q5": 6, "Q6": 5}

    def test_huge_parameter_is_truncated_before_its_repr(self, system):
        """Recording a statement must not build the repr of a whole 4 MiB
        parameter to keep 80 characters of it (work, not time: the parent
        allocated ~16 MiB here)."""
        blob, text = bytes(4 << 20), "\0" * (4 << 20)
        sql = "select count(*) from patient where name = ?"
        system.db.execute(sql, ["warm"])
        tracemalloc.start()
        try:
            system.db.execute(sql, [blob])
            system.db.execute(sql, [text])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for record in recorder.get_recorder().recent(2):
            assert all(len(text) <= 80 for text in record.params)
            assert record.params[0].startswith(("b'\\x00", "'\\x00"))

    def test_record_joins_its_digest_row(self, system):
        """A /queries/recent row, query-log line or incident entry names
        the /digests row that counted it — direct, served, or cache hit."""
        digest.reset()
        system.db.execute("select count(*) from patient where patientId = 3")
        with QueryServer(system.db, workers=1) as server:
            with server.connect() as session:
                for _ in range(2):  # a cache fill, then a cache hit
                    session.execute(
                        "select count(*) from neuralStructure", [])
        hit, served, direct = recorder.get_recorder().recent(3)
        assert (hit.cache_hit, served.cache_hit, direct.session) \
            == (True, False, None)
        rows = {row["digest"]: row for row in digest.get_table().top(10)}
        assert direct.to_dict()["digest"] in rows
        assert rows[direct.to_dict()["digest"]]["calls"] == 1
        assert hit.to_dict()["digest"] == served.to_dict()["digest"]
        assert rows[served.to_dict()["digest"]]["calls"] == 2
        assert "shape" not in direct.to_dict()


# --------------------------------------------------------------------- #
# the statement record's invariants
# --------------------------------------------------------------------- #

def _ledger_layers() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "ledger_tracing", Path(__file__).resolve().parents[1]
        / "benchmarks" / "ledger" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.fixture(scope="module")
def wal_system():
    return QbismSystem.build_demo(grid_side=16, n_pet=2, n_mri=1, seed=7,
                                  wal=True)


_LFM_READ = "select voxelCount(region) from atlasStructure where structureId = ?"
_INSERT = "insert into patient values (?, ?, ?, ?, ?)"


def _direct_ad_hoc(db):
    db.execute("select count(*) from patient where patientId = 3")
    return 1


def _direct_memoized(db):
    db.execute(_LFM_READ, [1])  # the measured statement is the warm one
    recorder.reset()
    db.execute(_LFM_READ, [1])
    return 1


def _executemany(db):
    # a batch in one write scope leaves one record per statement
    executemany(db, _INSERT, [[900 + k, "m", "1970", "f", 50] for k in range(3)])
    return 3


def _served(db, sql, params, repeat=1, **server_kw):
    with QueryServer(db, workers=1, **server_kw) as server:
        with server.connect(name="phase") as session:
            for _ in range(repeat - 1):
                session.execute(sql, params)
            recorder.reset()
            session.execute(sql, params)
    return 1


def _served_uncached(db):
    return _served(db, _LFM_READ, [1], result_cache=False)


def _served_cache_hit(db):
    return _served(db, _LFM_READ, [1], repeat=2)


def _served_wal_write(db):
    return _served(db, _INSERT, [910, "w", "1970", "f", 50])


def _in_transaction(db):
    with db.transaction():
        db.execute(_INSERT, [920, "t", "1970", "f", 50])
        db.execute("select count(*) from patient")
    return 2


def _syntax_error(db):
    with pytest.raises(SqlSyntaxError):
        db.execute("selec 1 from patient")
    return 1


def _semantic_error(db):
    with pytest.raises(ReproError):
        db.execute("select noSuchColumn from patient")
    return 1


_STATEMENT_KINDS = {
    "direct ad hoc": _direct_ad_hoc,
    "direct memoized": _direct_memoized,
    "executemany": _executemany,
    "served uncached": _served_uncached,
    "served cache hit": _served_cache_hit,
    "served write under WAL": _served_wal_write,
    "inside Database.transaction()": _in_transaction,
    "syntax error": _syntax_error,
    "semantic error": _semantic_error,
}
#: phases a statement of that kind must not / must have spent time in
_ZERO = {
    "served cache hit": {"db.executor", "storage.lfm"},
    "direct memoized": {"db.sql", "db.semantic", "db.planner"},
}
_NONZERO = {
    "direct ad hoc": {"db.sql", "db.semantic", "db.planner", "db.executor"},
    "direct memoized": {"db.executor", "db.functions", "storage.lfm"},
    "served uncached": {"server", "db.database", "net"},
    "served write under WAL": {"storage.wal", "db.mvcc", "lock_wait"},
    "syntax error": {"db.sql"},
    "semantic error": {"db.semantic"},
}


class TestStatementRecordInvariants:
    @pytest.mark.parametrize("kind", list(_STATEMENT_KINDS))
    def test_one_record_whose_phases_sum_to_its_wall(self, wal_system, kind):
        expected = _STATEMENT_KINDS[kind](wal_system.db)
        records = recorder.get_recorder().recent(100)
        assert len(records) == expected
        vocabulary = set(_ledger_layers()) | {"lock_wait"}
        assert set(recorder.PHASES) <= vocabulary
        for record in records:
            phases = record.phases
            assert set(phases) <= set(recorder.PHASES)
            assert all(seconds >= 0 for seconds in phases.values())
            assert _phases_sum_to_wall(record)
            assert not {p for p in _ZERO.get(kind, ()) if phases.get(p)}
            assert not {p for p in _NONZERO.get(kind, ())
                        if not phases.get(p)}
            shown = record.to_dict()["phases_ms"]
            assert set(shown) <= set(phases) and 0 not in shown.values()
        if kind == "served cache hit":
            assert records[0].cache_hit


class TestWalRecoveryIncident:
    CAPACITY = 1 << 20

    def test_replay_on_reopen_emits_incident(self):
        data = BlockDevice(self.CAPACITY)
        journal = BlockDevice(self.CAPACITY)
        wal = WriteAheadLog(data, journal, recover=False)
        lfm = LongFieldManager(wal)
        with wal.transaction(meta_provider=lfm.export_state):
            lfm.create(b"q" * 5000)
        # "crash": reboot onto the surviving devices; recovery replays
        reopened = WriteAheadLog(data, journal, recover=True)
        assert reopened.recovery.replayed >= 1
        (incident,) = recorder.get_recorder().incidents()
        assert incident["reason"] == "wal.recovery"
        assert incident["trigger"]["replayed_txn_ids"]

    def test_clean_open_is_quiet(self):
        WriteAheadLog(BlockDevice(self.CAPACITY), BlockDevice(self.CAPACITY),
                      recover=True)
        assert recorder.get_recorder().incidents() == []


class TestQueryLog:
    def test_full_mode_logs_every_statement(self, system, tmp_path):
        path = qlog.enable(tmp_path / "query.jsonl")
        system.db.execute("select count(*) from patient")
        system.db.execute("select count(*) from neuralStructure")
        qlog.disable()
        events = [json.loads(line) for line in
                  path.read_text().strip().splitlines()]
        assert len(events) == 2
        for event in events:
            assert event["event"] == "query"
            assert event["ok"] is True
            assert event["sql"].startswith("select count(*)")
            assert not event["slow"]

    def test_slow_only_mode_stays_quiet_for_fast_queries(self, system,
                                                         tmp_path):
        # One threshold: what the recorder calls slow (and raises a
        # query.slow incident for) is what the slow-only log writes.
        recorder.get_recorder().slow_threshold_seconds = 60.0
        path = qlog.enable(tmp_path / "slow.jsonl", slow_only=True)
        system.db.execute("select count(*) from patient")
        assert qlog.get_query_log().events_written == 0
        assert recorder.get_recorder().incidents() == []
        recorder.get_recorder().slow_threshold_seconds = 0.0
        system.db.execute("select count(*) from patient")
        qlog.disable()
        events = [json.loads(line) for line in
                  path.read_text().strip().splitlines()]
        assert len(events) == 1
        assert events[0]["slow"] is True
        assert [i["reason"] for i in recorder.get_recorder().incidents()] \
            == ["query.slow"]


class TestPercentiles:
    def test_interpolated_quantiles(self):
        hist = metrics.histogram("t.lat")
        for value in (0.002, 0.004, 0.006, 0.008):  # all in (0.001, 0.01]
            hist.observe(value)
        # ranks interpolate linearly across the bucket, clamped to min/max
        assert 0.002 <= hist.percentile(0.5) <= 0.008
        assert hist.percentile(1.0) == pytest.approx(0.008)
        assert hist.percentile(0.5) < hist.percentile(0.95)

    def test_overflow_bucket_interpolates_by_rank(self):
        # All observations above the last finite bound: quantiles stay
        # rank-aware inside the overflow bucket (the old code collapsed
        # every quantile there — even p50 — to the single largest value).
        hist = metrics.histogram("t.big")
        hist.observe(50.0)
        hist.observe(90.0)
        assert 50.0 <= hist.percentile(0.50) < hist.percentile(0.99) <= 90.0
        assert hist.percentile(1.0) == pytest.approx(90.0)

    def test_empty_histogram_and_bad_q(self):
        hist = metrics.histogram("t.empty")
        assert hist.percentile(0.5) == 0.0
        with pytest.raises(ValidationError):
            hist.percentile(0.0)
        with pytest.raises(ValidationError):
            hist.percentile(1.5)

    def test_exports_carry_percentiles(self):
        metrics.histogram("t.lat").observe(0.005)
        exported = metrics.histogram("t.lat").export()
        assert {"p50", "p95", "p99"} <= set(exported)
        assert "p99" in metrics.snapshot()["histograms"]["t.lat"]


class TestPromtext:
    def test_round_trip(self):
        metrics.counter("db.statements").inc(3)
        metrics.gauge("server.queue_depth").set(2)
        hist = metrics.histogram("db.query_seconds")
        for value in (0.0005, 0.02, 0.5, 20.0):
            hist.observe(value)
        families = promtext.parse(promtext.render())
        assert families["db_statements"]["type"] == "counter"
        assert families["db_statements"]["samples"][0][2] == 3
        assert families["server_queue_depth"]["type"] == "gauge"
        hist_family = families["db_query_seconds"]
        assert hist_family["type"] == "histogram"
        count = [v for n, _, v in hist_family["samples"]
                 if n == "db_query_seconds_count"]
        assert count == [4]
        assert families["db_query_seconds_p95"]["type"] == "gauge"

    def test_sanitizes_names(self):
        assert promtext.sanitize_name("server.result_cache.hits") == \
            "server_result_cache_hits"
        assert promtext.sanitize_name("9lives").startswith("_")

    def test_parser_rejects_undeclared_sample(self):
        with pytest.raises(ValidationError):
            promtext.parse("mystery_metric 1\n")

    def test_parser_rejects_malformed_line(self):
        with pytest.raises(ValidationError):
            promtext.parse("# TYPE a counter\na one\n")

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 3\n"
        )
        with pytest.raises(ValidationError):
            promtext.parse(text)

    def test_parser_rejects_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\nh_count 4\n"
        )
        with pytest.raises(ValidationError):
            promtext.parse(text)

    def test_render_consistent_under_concurrent_observes(self):
        # Regression: the renderer used to read the live bucket list and
        # the count in separate steps, so a concurrent observe produced
        # exposition text whose +Inf bucket disagreed with _count — which
        # promtext.parse rejects.  Rendering now snapshots once.
        hist = metrics.histogram("torn.seconds")
        stop = threading.Event()

        def observer():
            i = 0
            while not stop.is_set():
                hist.observe((i % 9) * 0.004)  # straddles two buckets
                i += 1

        threads = [threading.Thread(target=observer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(100):
                promtext.parse(promtext.render())  # raises on a torn render
                exported = hist.export()
                assert sum(exported["buckets"].values()) == exported["count"]
        finally:
            stop.set()
            for t in threads:
                t.join()


def _get(url: str):
    with urlopen(url, timeout=10) as response:
        body = response.read().decode("utf-8")
        return response.status, body


class TestAdminEndpoint:
    def test_routes_end_to_end(self, system):
        recorder.get_recorder().slow_threshold_seconds = 0.0  # an incident
        with QueryServer(system.db, workers=2) as server:
            admin = server.start_admin()
            with server.connect(name="admin-client") as session:
                session.execute("select count(*) from patient")

                status, body = _get(admin.url + "/healthz")
                assert status == 200 and json.loads(body)["status"] == "ok"

                status, body = _get(admin.url + "/metrics")
                families = promtext.parse(body)
                assert "server_statements" in families
                assert "server_wait_seconds_p95" in families

                status, body = _get(admin.url + "/sessions")
                (listed,) = json.loads(body)
                assert listed["name"] == "admin-client"
                assert listed["statements"] == 1

                status, body = _get(admin.url + "/queries/recent?n=10")
                records = json.loads(body)
                assert records and records[0]["session"] == "admin-client"

                status, body = _get(admin.url + "/incidents")
                reports = json.loads(body)
                assert any(r["reason"] == "query.slow" for r in reports)

    def test_unknown_route_and_bad_query(self, system):
        with QueryServer(system.db, workers=1) as server:
            admin = server.start_admin()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/nope")
            assert excinfo.value.code == 404
            assert "/metrics" in json.loads(excinfo.value.read())["routes"]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/queries/recent?n=banana")
            assert excinfo.value.code == 400

    def test_close_stops_the_listener(self, system):
        server = QueryServer(system.db, workers=1)
        admin = server.start_admin()
        url = admin.url
        server.close()
        with pytest.raises(urllib.error.URLError):
            _get(url + "/healthz")


    def test_smoke_entry_point_exits_zero(self, capsys):
        from repro.server.__main__ import main

        assert main(["--grid", "16", "--sessions", "2", "--port", "0"]) == 0
        out = capsys.readouterr().out
        assert "healthz: ok" in out
        assert "Prometheus text valid" in out


class TestStatementMemoMetrics:
    def test_memo_hits_and_misses_counted(self, system):
        # the memo is the database's, not this server's: a text no earlier
        # session of the shared fixture was sent
        sql = "select count(*) from patient where 'served' = 'served'"
        with QueryServer(system.db, workers=1, result_cache=False) as server:
            with server.connect() as session:
                session.execute(sql)
                session.execute(sql)
        snap = metrics.snapshot()["counters"]
        assert snap["server.stmt_memo.misses"] >= 1
        assert snap["server.stmt_memo.hits"] >= 1
        assert "server.statements" in snap
