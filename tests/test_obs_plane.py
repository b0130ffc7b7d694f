"""Tests for the cluster observability plane (PR 10): the scoped-registry
tee, metrics federation, the cluster health rollup, per-leg trace spans and
Chrome trace export, statement digests, the SLO burn-rate engine, and the
hardened admin endpoints that serve all of it."""

from __future__ import annotations

import json
import urllib.error
from collections import defaultdict
from urllib.request import urlopen

import pytest

from repro.cluster import build_demo_cluster
from repro.core.system import QbismSystem
from repro.db.sql import Prepared, parse
from repro.errors import ReproError, SqlSyntaxError, ValidationError
from repro.obs import (
    digest,
    export,
    federation,
    metrics,
    promtext,
    qlog,
    recorder,
    slo,
    trace,
)
from repro.obs.recorder import QueryRecord
from repro.server import QueryServer

OBS_KW = dict(seed=1994, grid_side=16, n_pet=3, n_mri=2)


@pytest.fixture(autouse=True)
def clean_obs():
    def scrub():
        trace.disable()
        trace.reset()
        metrics.reset()
        recorder.enable()
        recorder.reset()
        recorder.configure(slow_threshold_seconds=None, incident_dir=None)
        qlog.disable()
        digest.enable()
        digest.reset()
        slo.set_engine(None)

    scrub()
    yield
    scrub()


@pytest.fixture(scope="module")
def system():
    return QbismSystem.build_demo(grid_side=16, n_pet=2, n_mri=1, seed=7)


@pytest.fixture(scope="module")
def cluster1():
    with build_demo_cluster(n_shards=1, **OBS_KW) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def cluster2():
    with build_demo_cluster(n_shards=2, replicate=True, **OBS_KW) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def cluster4():
    with build_demo_cluster(n_shards=4, **OBS_KW) as cluster:
        yield cluster


def _get(url: str):
    with urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def _counter_total(families: dict, family: str) -> float:
    if family not in families:
        return 0.0
    return sum(value for name, _, value in families[family]["samples"]
               if name == family)


# --------------------------------------------------------------------- #
# scoped-registry tee
# --------------------------------------------------------------------- #

class TestScopedTee:
    def test_counter_tees_into_scoped_registry(self):
        node = metrics.MetricsRegistry()
        metrics.counter("tee.calls").inc()          # outside: not teed
        with metrics.scoped(node):
            metrics.counter("tee.calls").inc(3)
        metrics.counter("tee.calls").inc()          # after: not teed
        assert metrics.snapshot()["counters"]["tee.calls"] == 5
        assert node.snapshot()["counters"]["tee.calls"] == 3

    def test_gauge_and_histogram_tee(self):
        node = metrics.MetricsRegistry()
        with metrics.scoped(node):
            metrics.gauge("tee.depth").set(7.0)
            metrics.histogram("tee.lat").observe(0.5)
            metrics.histogram("tee.lat").observe(1.5)
        snap = node.snapshot()
        assert snap["gauges"]["tee.depth"] == 7.0
        assert snap["histograms"]["tee.lat"]["count"] == 2

    def test_innermost_scope_wins(self):
        outer, inner = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        with metrics.scoped(outer):
            metrics.counter("tee.nested").inc()
            with metrics.scoped(inner):
                metrics.counter("tee.nested").inc(10)
        assert outer.snapshot()["counters"]["tee.nested"] == 1
        assert inner.snapshot()["counters"]["tee.nested"] == 10

    def test_standalone_metrics_never_tee(self):
        node = metrics.MetricsRegistry()
        standalone = metrics.Histogram("standalone.lat")
        with metrics.scoped(node):
            standalone.observe(1.0)
        assert node.snapshot()["histograms"] == {}


# --------------------------------------------------------------------- #
# federation
# --------------------------------------------------------------------- #

def _two_node_targets():
    a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
    a.counter("x.calls").inc(2)
    b.counter("x.calls").inc(3)
    a.gauge("x.depth").set(1.0)
    b.gauge("x.depth").set(5.0)
    for v in (0.001, 0.2):
        a.histogram("x.lat").observe(v)
    b.histogram("x.lat").observe(3.0)
    return [
        federation.in_process_target("n0", a, shard="0", role="primary"),
        federation.in_process_target("n1", b, shard="1", role="primary"),
    ], a, b


class TestFederation:
    def test_counters_sum_and_page_reparses(self):
        targets, a, b = _two_node_targets()
        families = promtext.parse(federation.federate(targets))
        assert _counter_total(families, "x_calls") == 5.0

    def test_gauges_labeled_per_node(self):
        targets, _, _ = _two_node_targets()
        families = promtext.parse(federation.federate(targets))
        samples = families["x_depth"]["samples"]
        assert len(samples) == 2
        assert sorted(value for _, _, value in samples) == [1.0, 5.0]
        assert any(labels.get("shard") == "0" for _, labels, _ in samples)

    def test_histograms_bucket_merge(self):
        targets, _, _ = _two_node_targets()
        families = promtext.parse(federation.federate(targets))
        samples = families["x_lat"]["samples"]
        count = [v for n, _, v in samples if n == "x_lat_count"]
        total = [v for n, _, v in samples if n == "x_lat_sum"]
        assert count == [3.0]
        assert total[0] == pytest.approx(3.201)

    def test_up_series_and_scrape_failure(self):
        targets, _, _ = _two_node_targets()

        def explode():
            raise RuntimeError("node is gone")

        targets.append(federation.ScrapeTarget(
            name="n2", labels={"shard": "2", "role": "primary"},
            scrape=explode,
        ))
        before = metrics.snapshot()["counters"].get(
            "federation.scrape_errors", 0)
        families = promtext.parse(federation.federate(targets))
        ups = sorted(value for _, _, value
                     in families["federation_up"]["samples"])
        assert ups == [0.0, 1.0, 1.0]
        after = metrics.snapshot()["counters"]["federation.scrape_errors"]
        assert after == before + 1

    def test_federated_snapshot_shape(self):
        targets, _, _ = _two_node_targets()
        snap = federation.federated_snapshot(targets)
        assert snap["counters"]["x_calls"] == 5.0
        assert snap["gauges"]["x_depth"] == 5.0       # max across nodes
        hist = snap["histograms"]["x_lat"]
        assert hist["count"] == 3.0
        assert sum(hist["buckets"].values()) == 3.0

    def test_router_counter_sums_match_per_shard_scrapes(self, cluster2):
        cluster2.execute("select count(*) from warpedVolume")
        families = promtext.parse(cluster2.router.federated_metrics())
        per_node = [promtext.parse(t.scrape())
                    for t in cluster2.router.scrape_targets()]
        for family in ("db_statements", "executor_statements"):
            node_sum = sum(_counter_total(f, family) for f in per_node)
            assert node_sum > 0
            assert _counter_total(families, family) == node_sum


# --------------------------------------------------------------------- #
# cluster health rollup
# --------------------------------------------------------------------- #

class TestClusterHealth:
    def test_rollup_reports_every_shard_and_replica(self, cluster2):
        rollup = cluster2.router.cluster_health()
        assert rollup["status"] == "ok"
        assert len(rollup["shards"]) == 2
        for entry in rollup["shards"]:
            assert entry["up"] is True
            assert entry["replica"]["attached"] is True
            assert entry["replica"]["lag_txns"] >= 0

    def test_down_shard_degrades(self):
        cluster = build_demo_cluster(n_shards=2, grid_side=16,
                                     n_pet=1, n_mri=1)
        try:
            cluster.shards[1].server.close()
            rollup = cluster.router.cluster_health()
            assert rollup["status"] == "degraded"
            assert rollup["shards"][1]["up"] is False
        finally:
            try:
                cluster.close()
            except ReproError:
                pass


# --------------------------------------------------------------------- #
# per-leg spans + trace export
# --------------------------------------------------------------------- #

class TestLegSpans:
    @pytest.mark.parametrize("fixture", ["cluster1", "cluster2", "cluster4"])
    def test_legs_tag_shard_and_role_under_one_tree(self, request, fixture):
        cluster = request.getfixturevalue(fixture)
        with trace.capture() as spans:
            cluster.execute("select count(*) from warpedVolume")
        trees = trace.span_trees(spans)
        assert len(trees) == 1
        assert trees[0].record.name == "cluster.execute"
        assert len({s.trace_id for s in spans}) == 1
        legs = [s for s in spans if s.name == "cluster.leg"]
        assert {s.meta["shard"] for s in legs} == {
            str(shard.shard_id) for shard in cluster.shards
        }
        assert all(s.meta["role"] == "primary" for s in legs)
        for leg in legs:
            child_names = {s.name for s in spans
                           if s.parent_id == leg.span_id}
            assert {"leg.queue", "server.execute"} <= child_names

    def test_router_phases_present(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
        names = {s.name for s in spans}
        assert {"cluster.plan", "cluster.scatter",
                "cluster.gather", "cluster.merge"} <= names


def _check_track_nesting(events):
    """Events on each track must nest: no partial overlaps."""
    by_tid = defaultdict(list)
    for event in events:
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
            by_tid[event["tid"]].append(event)
    for tid, track in by_tid.items():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict] = []
        for event in track:
            while stack and event["ts"] >= (stack[-1]["ts"]
                                            + stack[-1]["dur"] - 1e-9):
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                assert event["ts"] + event["dur"] <= parent_end + 1e-6, (
                    f"track {tid}: {event['name']} overlaps "
                    f"{stack[-1]['name']}"
                )
            stack.append(event)


class TestChromeExport:
    def test_round_trips_json_with_nested_tracks(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
        doc = json.loads(json.dumps(export.chrome_trace(spans)))
        assert doc["displayTimeUnit"] == "ms"
        tracks = sorted(e["args"]["name"] for e in doc["traceEvents"]
                        if e["ph"] == "M")
        assert tracks == ["router", "shard-0", "shard-1"]
        _check_track_nesting(doc["traceEvents"])
        legs = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["name"] == "cluster.leg"]
        assert {e["args"]["shard"] for e in legs} == {"0", "1"}

    def test_jsonl_lines_parse_and_link(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
        lines = export.spans_jsonl(spans).strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert len(events) == len(spans)
        ids = {e["span_id"] for e in events}
        roots = [e for e in events if e["parent_id"] is None]
        assert len(roots) == 1
        for event in events:
            assert event["dur_us"] >= 0
            if event["parent_id"] is not None:
                assert event["parent_id"] in ids

    def test_trace_spans_selects_one_trace(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
            cluster2.execute("select count(*) from patient")
        ids = {s.trace_id for s in spans}
        assert len(ids) == 2
        for trace_id in ids:
            subset = export.trace_spans(trace_id, spans)
            assert subset
            assert {s.trace_id for s in subset} == {trace_id}


class TestTraceEndpoint:
    def test_serves_chrome_and_jsonl(self, cluster2):
        trace.enable()
        cluster2.execute("select count(*) from warpedVolume")
        trace_id = trace.records()[-1].trace_id
        admin = cluster2.router.start_admin()
        try:
            status, body = _get(f"{admin.url}/trace/{trace_id}")
            assert status == 200
            doc = json.loads(body)
            names = {e["args"]["name"] for e in doc["traceEvents"]
                     if e["ph"] == "M"}
            assert {"router", "shard-0", "shard-1"} <= names
            status, body = _get(f"{admin.url}/trace/{trace_id}?format=jsonl")
            assert status == 200
            assert all(json.loads(line) for line in body.strip().splitlines())
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{admin.url}/trace/{trace_id}?format=bogus")
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{admin.url}/trace/no-such-trace")
            assert excinfo.value.code == 404
        finally:
            admin.close()


# --------------------------------------------------------------------- #
# statement digests
# --------------------------------------------------------------------- #

def _prepared(sql: str) -> Prepared:
    return Prepared(sql, parse(sql))


def _record(sql: str, **fields) -> QueryRecord:
    """A record as the engine emits it: shape and digest already noted."""
    prepared = _prepared(sql)
    return QueryRecord(sql=sql, shape=prepared.shape, digest=prepared.digest,
                       **fields)


class TestDigests:
    def test_literals_normalize_to_one_shape(self):
        first = _prepared(
            "select count(*) from patient where patientId = 5").shape
        second = _prepared(
            "select count(*) from patient where patientId = 99").shape
        assert first == second
        assert "?" in first and "5" not in first

    @pytest.mark.parametrize("sql, digest_id, shape_end", [
        ("select v from t where s = 'pet1'", "d2b576dcf53e17bb",
         "SELECT v FROM t WHERE (s = ?)"),
        ("SELECT  voxelCount(region) FROM intensityBand WHERE studyId = 3 "
         "AND low = 192 and encoding = 'hilbert-naive'", "bca9d9b69be83913",
         "AND (encoding = ?))"),
        ("insert into patient values (7, 'x', ?)", "14179baad3d4bc01",
         "VALUES (?, ?, ?)"),
        ("select count(*) from patient where patientId in (select patientId "
         "from rawVolume where studyId between 1 and 4) order by 1 limit 5",
         "9f76804de56cc16e", "ORDER BY ? ASC LIMIT 5"),
    ])
    def test_digest_ids_do_not_move(self, sql, digest_id, shape_end):
        # Pinned at PR 12: /digests rows and the OPERATIONS.md examples
        # name these ids, so the shape rendering may never drift.
        prepared = _prepared(sql)
        assert prepared.digest == digest_id
        assert prepared.shape.endswith(shape_end)
        assert prepared.digest == digest.fingerprint(prepared.shape)

    def test_syntax_errors_are_recorded_direct_and_served(self, system):
        bad = "selec 1   from t"
        with pytest.raises(SqlSyntaxError):
            system.db.execute(bad)
        with QueryServer(system.db, workers=1) as server:
            with server.connect(name="typo") as session:
                with pytest.raises(SqlSyntaxError):
                    session.execute(bad)
        served, direct = recorder.get_recorder().recent(2)
        assert (direct.session, served.session) == (None, "typo")
        for record in (direct, served):
            assert (record.sql, record.ok, record.shape) == (bad, False, None)
        assert direct.error == served.error
        assert direct.error.startswith("SqlSyntaxError")
        assert [i["reason"] for i in recorder.get_recorder().incidents()] \
            == ["query.error", "query.error"]
        (row,) = digest.get_table().top(10)
        assert row["digest"] == "5ab2737b51295799"
        assert (row["statement"], row["calls"], row["errors"]) \
            == ("selec 1 from t", 2, 2)

    def test_unparseable_sql_still_digests(self):
        table = digest.DigestTable()
        table.observe(QueryRecord(sql="selec  t !!", ok=False,
                                  error="syntax"))
        (row,) = table.top(1)
        assert row["statement"] == "selec t !!"
        assert row["errors"] == 1

    def test_rows_aggregate_calls_errors_and_shards(self):
        table = digest.DigestTable()
        sql = "select count(*) from patient where patientId = {}"
        table.observe(_record(sql.format(1), rows=1, wall_seconds=0.01,
                              pages_read=2, cache_hit=True, shard="0"))
        table.observe(_record(sql.format(2), rows=1, wall_seconds=0.03,
                              pages_read=4, shard="1"))
        table.observe(_record(sql.format(3), ok=False, error="boom",
                              shard="1"))
        (row,) = table.top(1)
        assert row["calls"] == 3
        assert row["errors"] == 1
        assert row["pages_read"] == 6
        assert row["cache_hit_rate"] == pytest.approx(1 / 3)
        assert row["shards"] == {"0": 1, "1": 2}

    def test_capacity_evicts_coldest(self):
        table = digest.DigestTable(capacity=2)
        hot = "select count(*) from patient where patientId = 1"
        for _ in range(3):
            table.observe(QueryRecord(sql=hot))
        table.observe(QueryRecord(sql="select count(*) from neuralStructure"))
        table.observe(QueryRecord(sql="select count(*) from rawVolume"))
        assert len(table) == 2
        statements = [row["statement"] for row in table.top(10)]
        assert any("patient" in s for s in statements)

    def test_recorder_feeds_digests_and_incidents(self, system):
        system.db.execute("select count(*) from patient")
        system.db.execute("select count(*) from patient")
        rows = digest.get_table().top(10)
        assert any(r["calls"] == 2 and "patient" in r["statement"]
                   for r in rows)
        report = recorder.incident("obs-test")
        assert report["digests"]
        assert {"digest", "statement", "calls"} <= set(report["digests"][0])

    def test_disabled_table_records_nothing(self, system):
        digest.disable()
        system.db.execute("select count(*) from patient")
        assert digest.get_table().top(10) == []

    def test_digests_endpoint(self, system):
        with QueryServer(system.db, workers=1) as server:
            admin = server.start_admin()
            with server.connect(name="digest-client") as session:
                session.execute("select count(*) from patient")
            status, body = _get(admin.url + "/digests?n=5")
            assert status == 200
            rows = json.loads(body)
            assert rows and rows[0]["calls"] >= 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/digests?n=abc")
            assert excinfo.value.code == 400


# --------------------------------------------------------------------- #
# SLO engine
# --------------------------------------------------------------------- #

def _fake_clock():
    t = [0.0]

    def clock():
        return t[0]

    return t, clock


class TestSloEngine:
    def test_error_burn_fires_then_resolves(self):
        t, clock = _fake_clock()
        snap = {"counters": {"errs": 0.0, "total": 0.0},
                "gauges": {}, "histograms": {}}
        objective = slo.Objective("errs", "error_rate", "errs",
                                  total_metric="total", budget=0.01)
        engine = slo.SloEngine([objective], source=lambda: snap, clock=clock)
        assert engine.tick() == []              # baseline sample
        t[0] = 60.0
        snap["counters"]["total"] += 10
        snap["counters"]["errs"] += 10          # 100% errors: burn 100x
        (alert,) = engine.tick()
        assert alert["objective"] == "errs"
        assert alert["detail"]["burn_rate_short"] >= 14.4
        assert engine.alerts()["active"]
        # A clean stretch longer than every short window resolves it.
        for step in range(1, 40):
            t[0] = 60.0 + step * 60.0
            snap["counters"]["total"] += 10
            engine.tick()
        assert engine.alerts()["active"] == []
        history = engine.alerts()["history"]
        assert any("resolved_unix" in entry for entry in history)
        counters = metrics.snapshot()["counters"]
        assert counters["slo.alerts_fired"] == 1
        assert counters["slo.alerts_resolved"] == 1

    def test_breach_dumps_flight_recorder_incident(self):
        t, clock = _fake_clock()
        snap = {"counters": {"errs": 0.0, "total": 0.0},
                "gauges": {}, "histograms": {}}
        objective = slo.Objective("errs", "error_rate", "errs",
                                  total_metric="total", budget=0.01)
        engine = slo.SloEngine([objective], source=lambda: snap, clock=clock)
        engine.tick()
        t[0] = 60.0
        snap["counters"].update(errs=5.0, total=5.0)
        assert engine.tick()
        reports = recorder.get_recorder().incidents()
        assert any(r["reason"] == "slo.breach" for r in reports)

    def test_gauge_ceiling_needs_sustained_breach(self):
        t, clock = _fake_clock()
        snap = {"counters": {}, "gauges": {"lag": 100.0}, "histograms": {}}
        objective = slo.Objective("lag", "gauge_ceiling", "lag",
                                  threshold=64.0)
        engine = slo.SloEngine([objective], source=lambda: snap, clock=clock)
        assert engine.tick() == []              # breaching, not sustained
        t[0] = 150.0
        assert engine.tick() == []
        t[0] = 300.0
        (alert,) = engine.tick()                # sustained the short window
        assert alert["detail"]["value"] == 100.0
        t[0] = 700.0
        snap["gauges"]["lag"] = 0.0
        engine.tick()
        t[0] = 1100.0
        engine.tick()
        assert engine.alerts()["active"] == []

    def test_latency_objective_counts_slow_fraction(self):
        t, clock = _fake_clock()
        hist = {"count": 0, "sum": 0.0, "buckets": {"0.1": 0, "inf": 0}}
        snap = {"counters": {}, "gauges": {}, "histograms": {"lat": hist}}
        objective = slo.Objective("p99", "latency", "lat",
                                  threshold=0.1, budget=0.01)
        engine = slo.SloEngine([objective], source=lambda: snap, clock=clock)
        engine.tick()
        t[0] = 60.0
        hist["count"] = 100
        hist["buckets"]["0.1"] = 10
        hist["buckets"]["inf"] = 90             # 90% slow vs 1% budget
        (alert,) = engine.tick()
        assert alert["detail"]["kind"] == "latency"

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            slo.Objective("x", "nonsense", "m")
        with pytest.raises(ValidationError):
            slo.Objective("x", "error_rate", "m")      # no total_metric
        with pytest.raises(ValidationError):
            slo.Objective("x", "latency", "m", budget=0.0)
        engine = slo.SloEngine([slo.Objective(
            "dup", "gauge_ceiling", "m", threshold=1.0)])
        with pytest.raises(ValidationError):
            engine.add(slo.Objective("dup", "gauge_ceiling", "m",
                                     threshold=1.0))

    def test_default_objectives_cover_the_fleet(self):
        names = {o.name for o in slo.default_objectives()}
        assert names == {"statement-p99-latency", "statement-errors",
                         "replica-lag"}

    def test_alerts_endpoint_ticks_the_engine(self, system):
        t, clock = _fake_clock()
        slo.set_engine(slo.SloEngine(slo.default_objectives(), clock=clock))
        with QueryServer(system.db, workers=1) as server:
            admin = server.start_admin()
            status, body = _get(admin.url + "/alerts")
            assert status == 200
            payload = json.loads(body)
            assert payload["ticks"] == 1
            assert len(payload["objectives"]) == 3


# --------------------------------------------------------------------- #
# admin hardening + qlog regression (satellites)
# --------------------------------------------------------------------- #

class TestAdminHardening:
    def test_negative_and_non_integer_params_are_400(self, system):
        with QueryServer(system.db, workers=1) as server:
            admin = server.start_admin()
            for path in ("/queries/recent?n=abc", "/queries/recent?n=-5",
                         "/digests?n=-1"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(admin.url + path)
                assert excinfo.value.code == 400
                assert "error" in json.loads(excinfo.value.read())

    def test_404_lists_observability_routes(self, system):
        with QueryServer(system.db, workers=1) as server:
            admin = server.start_admin()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/nope")
            assert excinfo.value.code == 404
            routes = json.loads(excinfo.value.read())["routes"]
            for route in ("/digests", "/alerts", "/trace/<trace_id>"):
                assert route in routes
            assert "/cluster/healthz" not in routes
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/cluster/healthz")
            assert excinfo.value.code == 404

    def test_router_404_lists_cluster_healthz(self, cluster2):
        admin = cluster2.router.start_admin()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(admin.url + "/nope")
            assert "/cluster/healthz" in json.loads(
                excinfo.value.read())["routes"]
            status, body = _get(admin.url + "/cluster/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            admin.close()


class TestQlogSlowOnlyErrors:
    def test_errored_statement_logged_despite_slow_only(self, system,
                                                        tmp_path):
        path = qlog.enable(tmp_path / "slow.jsonl", slow_only=True,
                           slow_threshold=60.0)
        with pytest.raises(ReproError):
            system.db.execute("select noSuchColumn from patient")
        system.db.execute("select count(*) from patient")  # fast + ok
        qlog.disable()
        events = [json.loads(line) for line in
                  path.read_text().strip().splitlines()]
        assert len(events) == 1
        assert events[0]["ok"] is False
        assert events[0]["slow"] is False


# --------------------------------------------------------------------- #
# 4-shard end-to-end acceptance
# --------------------------------------------------------------------- #

class TestFourShardAcceptance:
    def test_federation_digests_trace_and_slo(self, cluster4):
        trace.enable()
        t, clock = _fake_clock()
        engine = cluster4.router.enable_slo(
            objectives=[slo.Objective(
                "leg-errors", "error_rate", "recorder.errors",
                total_metric="recorder.records", budget=0.01,
            )],
            clock=clock,
        )
        admin = cluster4.router.start_admin()
        try:
            engine.tick()                        # baseline at t=0
            cluster4.execute("select count(*) from warpedVolume")
            trace_id = trace.records()[-1].trace_id
            with pytest.raises(ReproError):
                cluster4.execute("select noSuchColumn from patient")

            # Federated /metrics: summed counters match per-shard scrapes.
            status, body = _get(admin.url + "/metrics")
            assert status == 200
            families = promtext.parse(body)
            per_node = [promtext.parse(target.scrape())
                        for target in cluster4.router.scrape_targets()]
            node_sum = sum(_counter_total(f, "db_statements")
                           for f in per_node)
            assert node_sum > 0
            assert _counter_total(families, "db_statements") == node_sum

            # /digests attributes the broadcast to every shard's leg.
            status, body = _get(admin.url + "/digests?n=50")
            rows = json.loads(body)
            (row,) = [r for r in rows if "warpedVolume" in r["statement"]]
            assert row["calls"] >= 4
            assert set(row["shards"]) == {"0", "1", "2", "3"}

            # /trace/<id>: one track per leg with queue/execute phases,
            # merge on the router track.
            status, body = _get(f"{admin.url}/trace/{trace_id}")
            doc = json.loads(body)
            tracks = {e["tid"]: e["args"]["name"]
                      for e in doc["traceEvents"] if e["ph"] == "M"}
            assert set(tracks.values()) == {
                "router", "shard-0", "shard-1", "shard-2", "shard-3"}
            names_by_track = defaultdict(set)
            for event in doc["traceEvents"]:
                if event["ph"] == "X":
                    names_by_track[tracks[event["tid"]]].add(event["name"])
            for shard_track in ("shard-0", "shard-1", "shard-2", "shard-3"):
                assert {"cluster.leg", "leg.queue", "server.execute"} <= (
                    names_by_track[shard_track])
            assert "cluster.merge" in names_by_track["router"]
            _check_track_nesting(doc["traceEvents"])

            # Synthetic SLO breach (fake clock) fires at /alerts and dumps
            # a flight-recorder incident.
            t[0] = 60.0
            status, body = _get(admin.url + "/alerts")
            payload = json.loads(body)
            fired = payload["active"] + payload["history"]
            assert any(a["objective"] == "leg-errors" for a in fired)
            status, body = _get(admin.url + "/incidents")
            assert any(r["reason"] == "slo.breach"
                       for r in json.loads(body))
        finally:
            admin.close()
            cluster4.router.slo = None
