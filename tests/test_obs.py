"""Tests for the observability layer: metrics, EXPLAIN ANALYZE, and the
BENCH JSON the Table 3/4 benches write."""

from __future__ import annotations

import json
import re
import sys
import threading

import pytest

from repro.core.system import QbismSystem
from repro.errors import UnsupportedStatementError, ValidationError
from repro.obs import metrics, promtext
from repro.storage.device import PAGE_SIZE, BlockDevice
from repro.storage.lfm import LongFieldManager


@pytest.fixture(autouse=True)
def clean_observability():
    metrics.reset()
    yield
    metrics.reset()


@pytest.fixture(scope="module")
def system():
    return QbismSystem.build_demo(grid_side=16, n_pet=2, n_mri=1, seed=7)


class TestCounterThreads:
    """A bound counter takes no lock per increment: every thread adds to
    a cell of its own, and a read sums the cells.  More threads than
    cores, a short switch interval, and threads that end and are
    replaced (a later thread may take over an ended one's cell) must
    lose nothing."""

    THREADS = 8
    INCREMENTS = 20_000

    def _run(self, target, threads: int) -> None:
        workers = [threading.Thread(target=target) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)

    def test_n_threads_m_increments_give_an_exact_total(self):
        count = metrics.counter("t.threads")
        amounts = metrics.counter("t.threads_amounts")

        def work():
            for _ in range(self.INCREMENTS):
                count.inc()
                amounts.inc(3)

        self._run(work, self.THREADS)
        assert count.value == self.THREADS * self.INCREMENTS
        assert amounts.value == 3 * self.THREADS * self.INCREMENTS
        # a second generation of threads, on the ids the first one left
        self._run(work, self.THREADS)
        assert count.value == 2 * self.THREADS * self.INCREMENTS

    def test_lock_free_zeros_export_what_observe_would(self):
        """``Histogram.observe_zero`` from threads, mixed with locked
        observations and with reads folding the zeros in meanwhile, leaves
        the export ``observe(0.0)`` would have left."""
        folded = metrics.histogram("t.zero_folded")
        reference = metrics.histogram("t.zero_reference")
        exports = []

        def work():
            for i in range(self.INCREMENTS // 10):
                folded.observe_zero()
                if i % 100 == 0:
                    folded.observe(0.002)
                    exported = folded.export()
                    exports.append(
                        sum(exported["buckets"].values()) == exported["count"])

        self._run(work, self.THREADS)
        for _ in range(self.THREADS):
            for i in range(self.INCREMENTS // 10):
                reference.observe(0.0)
                if i % 100 == 0:
                    reference.observe(0.002)
        assert all(exports)
        assert folded.count == reference.count
        assert folded.export() == reference.export()
        metrics.reset()
        folded.observe_zero()
        assert folded.export()["count"] == 1 and folded.export()["max"] == 0.0


class TestMetrics:
    def test_counter_gauge_histogram(self):
        metrics.counter("t.count").inc()
        metrics.counter("t.count").inc(4)
        metrics.gauge("t.level").set(0.25)
        metrics.histogram("t.seconds").observe(0.005)
        metrics.histogram("t.seconds").observe(2.0)
        snap = metrics.snapshot()
        assert snap["counters"]["t.count"] == 5
        assert snap["gauges"]["t.level"] == 0.25
        hist = snap["histograms"]["t.seconds"]
        assert hist["count"] == 2
        assert hist["min"] == 0.005 and hist["max"] == 2.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValidationError):
            metrics.counter("t.count").inc(-1)

    def test_reset_zeroes_in_place_and_bound_handles_still_report(self):
        count = metrics.counter("t.bound")
        level = metrics.gauge("t.bound_level")
        seconds = metrics.histogram("t.bound_seconds")
        count.inc(3)
        level.set(0.5)
        seconds.observe(0.01)
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["counters"]["t.bound"] == 0
        assert snap["gauges"]["t.bound_level"] == 0.0
        assert snap["histograms"]["t.bound_seconds"]["count"] == 0
        count.inc(2)
        level.set(0.75)
        seconds.observe(0.02)
        snap = metrics.snapshot()
        assert snap["counters"]["t.bound"] == 2
        assert snap["gauges"]["t.bound_level"] == 0.75
        assert snap["histograms"]["t.bound_seconds"]["count"] == 1
        assert metrics.counter("t.bound") is count

    def test_derived_metric_is_read_when_exported(self):
        source = [4]
        metrics.derived("t.derived", metrics.Counter, lambda: source[0])
        source[0] = 9
        assert metrics.snapshot()["counters"]["t.derived"] == 9
        assert "t_derived 9" in promtext.render()

    def test_kind_mismatch_rejected(self):
        metrics.counter("t.thing")
        with pytest.raises(ValidationError):
            metrics.gauge("t.thing")

    def test_text_and_json_exporters(self):
        metrics.counter("a.calls").inc(3)
        metrics.histogram("a.seconds").observe(0.5)
        text = promtext.render()
        assert "a_calls 3" in text
        assert "a_seconds_count 1" in text
        doc = json.loads(json.dumps(metrics.snapshot()))
        assert doc["counters"]["a.calls"] == 3

    def test_storage_feeds_registry(self):
        lfm = LongFieldManager(BlockDevice(16 * PAGE_SIZE))
        handle = lfm.create(b"z" * 9000)
        lfm.read(handle)
        snap = metrics.snapshot()["counters"]
        assert snap["lfm.pages_read"] == 3
        assert snap["lfm.pages_written"] == 3
        assert snap["lfm.reads"] == 1


class TestExplainAnalyze:
    def test_plain_explain_returns_plan_rows(self, system):
        res = system.db.execute(
            "EXPLAIN SELECT p.name FROM patient p WHERE p.age > 40"
        )
        assert res.columns == ["plan"]
        assert "scan patient p" in res.rows[0][0]

    def test_explain_analyze_annotates_operators(self, system):
        # A Q6-style shape: metadata joins gating a spatial band lookup.
        res = system.db.execute(
            "EXPLAIN ANALYZE "
            "SELECT p.name, b.low, b.high "
            "FROM patient p, rawVolume r, intensityBand b "
            "WHERE r.patientId = p.patientId AND b.studyId = r.studyId "
            "AND r.modality = 'PET' AND b.low = 128"
        )
        lines = [row[0] for row in res.rows]
        operator_lines = lines[:-2]
        assert len(operator_lines) == 3  # one per FROM table
        for line in operator_lines:
            assert _OPERATOR_RE.search(line), line
        assert lines[-2].startswith("output:")
        assert "simulated 1994 Starburst real time" in lines[-1]
        # the statement really ran: the accounting came back too
        assert res.work.rows_scanned > 0

    def test_explain_analyze_reports_page_ios(self, system):
        sid = system.pet_study_ids[0]
        res = system.db.execute(
            "EXPLAIN ANALYZE "
            "SELECT readPiece(r.data, 0, 100) FROM rawVolume r "
            "WHERE r.studyId = ?",
            [sid],
        )
        total_line = res.rows[-1][0]
        assert res.io is not None and res.io.pages_read > 0
        assert f"statement I/O: {res.io.pages_read} pages" in total_line

    def test_explain_non_select_rejected(self, system):
        with pytest.raises(UnsupportedStatementError):
            system.db.execute("EXPLAIN ANALYZE DROP TABLE patient")

    def test_explain_analyze_row_counts_match_plain_run(self, system):
        sql = ("SELECT p.name FROM patient p, rawVolume r "
               "WHERE r.patientId = p.patientId AND r.modality = 'MRI'")
        plain = system.db.execute(sql)
        analyzed = system.db.execute("EXPLAIN ANALYZE " + sql)
        total_line = analyzed.rows[-1][0]
        assert total_line.startswith(f"total: {len(plain.rows)} row(s)")


class TestExplainAnalyzeReadsTheRecord:
    """EXPLAIN ANALYZE takes its time from the statement's own flight
    record: the total line is the owning record's phase split so far."""

    SQL = ("EXPLAIN ANALYZE SELECT p.name FROM patient p, rawVolume r "
           "WHERE r.patientId = p.patientId AND r.modality = 'PET'")

    def test_served_statement_shows_the_server_phase(self, system):
        from repro.server import QueryServer

        with QueryServer(system.db, workers=1) as server:
            with server.connect() as session:
                wall, phases = _total(session.execute(self.SQL).rows[-1][0])
        assert "server" in phases and "db.executor" in phases

    def test_it_is_never_cached(self, system):
        from repro.server import QueryServer

        def cache_counters() -> dict:
            counters = metrics.snapshot()["counters"]
            return {name: value for name, value in counters.items()
                    if name.startswith("server.result_cache.")}

        with QueryServer(system.db, workers=1) as server:
            with server.connect() as session:
                session.execute(self.SQL)
                before = cache_counters()
                again = session.execute(self.SQL)
                assert cache_counters() == before
        # it ran again: its levels examined rows, its executor phase took time
        examined = [int(n) for n in _EXAMINED_RE.findall(again.rows[0][0])]
        assert examined and examined[0] > 0
        assert "db.executor" in _total(again.rows[-1][0])[1]

    def test_printed_phases_sum_to_no_more_than_the_wall(self, system):
        for _ in range(20):
            res = system.db.execute(self.SQL)
            wall, phases = _total(res.rows[-1][0])
            assert phases and sum(phases.values()) <= wall

    def test_without_a_record_it_still_answers(self, system):
        from repro.obs import recorder

        recorded = system.db.execute(self.SQL).rows
        recorder.disable()
        try:
            unrecorded = system.db.execute(self.SQL).rows
        finally:
            recorder.enable()
        assert unrecorded[:-1] == recorded[:-1]
        assert "no flight record kept" in unrecorded[-1][0]
        assert unrecorded[-1][0].startswith("total: ")


_TOTAL_RE = re.compile(r"total: \d+ row\(s\) in (\d+\.\d\d) ms \(([^)]*)\)")
_EXAMINED_RE = re.compile(r"rows examined=(\d+)")
_OPERATOR_RE = re.compile(
    r"  \(est rows=\d+, rows examined=\d+, matched=\d+\)$")


def _total(line: str) -> tuple[int, dict]:
    """The wall and the phase split of a total line, in hundredths of a
    millisecond (as printed)."""
    found = _TOTAL_RE.match(line)
    assert found, line
    phases = {}
    for part in found.group(2).split(" + "):
        name, value = part.rsplit(" ", 1)
        phases[name] = round(float(value) * 100)
    return round(float(found.group(1)) * 100), phases


_EST_RE = re.compile(r"est rows=(\d+(?:\.\d+)?)")
_MATCHED_RE = re.compile(r"matched=(\d+)")


class TestEstimates:
    """EXPLAIN carries the optimizer's row estimates; EXPLAIN ANALYZE puts
    them beside the actuals, and on the deterministic Table 3 workload the
    two must agree exactly."""

    def _table3_data_queries(self, system):
        """The (sql, params) of each Table 3 data query, via the server's
        own generator so the tested SQL is exactly the bench SQL."""
        from repro.bench.workloads import table3_specs

        atlas_id, side = system.db.execute(
            "select atlasId, n from atlas").first()
        return {
            qid: system.server._build_data_query(spec, atlas_id, side)[:2]
            for qid, (_, spec) in table3_specs(system).items()
        }

    def test_plain_explain_estimates_every_operator(self, system):
        res = system.db.execute(
            "EXPLAIN SELECT p.name, b.low FROM patient p, rawVolume r, "
            "intensityBand b WHERE r.patientId = p.patientId "
            "AND b.studyId = r.studyId AND r.modality = 'PET'"
        )
        lines = [row[0] for row in res.rows]
        assert len(lines) == 3
        for line in lines:
            assert _EST_RE.search(line), f"no estimate on operator: {line}"

    def test_analyze_annotates_estimates_and_actuals(self, system):
        res = system.db.execute(
            "EXPLAIN ANALYZE SELECT p.name FROM patient p, rawVolume r "
            "WHERE r.patientId = p.patientId AND r.modality = 'PET'"
        )
        lines = [row[0] for row in res.rows]
        for line in lines[:-2]:
            assert _EST_RE.search(line) and _MATCHED_RE.search(line), line
        assert _EST_RE.search(lines[-2]), f"no estimate on output: {lines[-2]}"

    def test_table3_estimates_match_actuals(self, system):
        """On the fully ANALYZEd demo the Table 3 plans are estimated
        exactly: the statement output estimate equals the actual row count
        for all six queries, and so does every operator's.

        Q5/Q6 used to carry one pinned deviation — the band level matched
        three rows (one per study storing that band) against an estimate
        clamped to 1, because ``b0.studyId = wv.studyId`` only filtered
        one level later.  The planner's equality closure now derives
        ``b0.studyId = ?`` from ``wv.studyId = ?``: the band level
        matches the one row it was estimated to.
        """
        for qid, (sql, params) in self._table3_data_queries(system).items():
            res = system.db.execute("EXPLAIN ANALYZE " + sql, params)
            lines = [row[0] for row in res.rows]
            for line in lines[:-2]:
                est = _EST_RE.search(line)
                matched = _MATCHED_RE.search(line)
                assert est and matched, f"{qid}: unannotated operator {line}"
                assert float(est.group(1)) == float(matched.group(1)), (
                    f"{qid}: est != actual on operator: {line}"
                )
            output = lines[-2]
            est = _EST_RE.search(output)
            actual = re.match(r"output: (\d+) row\(s\)", output)
            assert est and actual, f"{qid}: malformed output line {output}"
            assert float(est.group(1)) == float(actual.group(1)), (
                f"{qid}: est != actual on output: {output}"
            )

    def test_spatial_probe_operator_renders_both_columns(self, system):
        from repro.curves import GridSpec
        from repro.regions.region import Region

        grid = GridSpec((system.atlas.resolution,) * 3)
        payload = Region.from_box(
            grid, (2, 2, 2), (10, 10, 10), curve="hilbert"
        ).to_bytes("naive")
        res = system.db.execute(
            "EXPLAIN ANALYZE SELECT s.structureId FROM atlasStructure s "
            "WHERE voxelCount(intersection(s.region, ?)) > 0",
            [payload],
        )
        line = res.rows[0][0]
        assert "probe atlasStructure s via spatial(region)" in line
        assert _EST_RE.search(line) and _MATCHED_RE.search(line)

    def test_estimates_survive_promtext_and_recorder(self, system):
        """Rendering the annotated plan must not disturb the promtext
        exporter or the flight recorder's statement accounting."""
        from repro.obs import promtext, recorder

        rec = recorder.get_recorder()
        sql = ("EXPLAIN ANALYZE SELECT p.name FROM patient p, rawVolume r "
               "WHERE r.patientId = p.patientId")
        with recorder.statement(sql) as scope:
            res = system.db.execute(sql)
            scope.note(rows=len(res.rows), io=res.io)
        record = rec.recent(1)[0]
        assert record.sql == sql
        assert record.rows == len(res.rows)
        text = promtext.render()
        assert text.endswith("\n")
        # the run above fed the registry and the recorder counted it
        snap = metrics.snapshot()["counters"]
        assert snap["executor.statements"] >= 1
        assert snap["recorder.records"] >= 1


class TestBenchRunner:
    """``write_bench_json``, the one writer of every BENCH document."""

    @pytest.fixture(scope="class")
    def bench_system(self):
        from repro.bench.workloads import TABLE4_ENCODINGS

        return QbismSystem.build_demo(grid_side=16, n_pet=2, n_mri=1, seed=7,
                                      band_encodings=tuple(TABLE4_ENCODINGS))

    def test_table_runs_write_schema_valid_json(self, bench_system, tmp_path):
        from repro.bench import PAPER_TABLE3, PAPER_TABLE4
        from repro.bench.workloads import (
            TABLE3_COLUMNS, TABLE4_COLUMNS, TABLE4_ENCODINGS, run_table3,
            run_table4, validate_bench_json, write_bench_json,
        )

        table3 = {k: (o.timing.as_row(), PAPER_TABLE3[k])
                  for k, o in run_table3(bench_system).items()}
        table4 = {e: (row.as_row(), PAPER_TABLE4[TABLE4_ENCODINGS[e]])
                  for e, (_, row) in run_table4(bench_system).items()}
        write_bench_json(tmp_path / "BENCH_table3.json", "table3", bench_system,
                         TABLE3_COLUMNS, table3)
        write_bench_json(tmp_path / "BENCH_table4.json", "table4", bench_system,
                         TABLE4_COLUMNS, table4)
        docs = {p.name: json.loads(p.read_text()) for p in tmp_path.iterdir()}
        assert sorted(docs) == ["BENCH_table3.json", "BENCH_table4.json"]
        for doc in docs.values():
            validate_bench_json(doc)
        doc = docs["BENCH_table3.json"]
        assert set(doc["rows"]) == {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}
        assert doc["rows"]["Q6"]["label"] == "Q6: band in ntal1"
        assert doc["generated"]["grid_side"] == 16
        assert doc["generated"]["seed"] == 7
        assert set(docs["BENCH_table4.json"]["rows"]) == set(TABLE4_ENCODINGS)
        # the metrics snapshot is populated by the run itself
        assert doc["metrics"]["counters"]["lfm.reads"] > 0

    def test_hung_git_leaves_rev_none(self, bench_system, tmp_path, monkeypatch):
        import subprocess

        from repro.bench.workloads import validate_bench_json, write_bench_json

        def hung(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", hung)
        path = tmp_path / "BENCH_ablation_spatial_index.json"
        write_bench_json(path, "ablation_spatial_index", bench_system,
                         ("page_ios", "exact_tests"), {"naive": (("naive", 3, 4), ())},
                         n_probes=1)
        doc = json.loads(path.read_text())
        validate_bench_json(doc)
        assert doc["generated"]["git_rev"] is None
        assert doc["generated"]["n_probes"] == 1

    def test_validator_rejects_malformed_documents(self, bench_system, tmp_path):
        from repro.bench.workloads import validate_bench_json, write_bench_json

        with pytest.raises(ValidationError):
            validate_bench_json({"workload": "table3"})
        with pytest.raises(ValidationError):
            validate_bench_json({
                "schema_version": 99, "workload": "table3",
                "generated": {}, "columns": [], "rows": {}, "metrics": {},
            })
        with pytest.raises(ValidationError, match="unknown workload"):
            validate_bench_json({
                "schema_version": 1, "workload": "concurrency",
                "generated": {}, "columns": [], "rows": {}, "metrics": {},
            })
        # the writer validates first: a malformed document is never written
        path = tmp_path / "BENCH_table4.json"
        with pytest.raises(ValidationError, match="2 measured values for 1 columns"):
            write_bench_json(path, "table4", bench_system, ("lfm_page_ios",),
                             {"x": (("x", 1, 2), ())})
        assert not path.exists()
