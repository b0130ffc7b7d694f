"""Tests for the cluster observability plane: the scoped-registry tee, the
fleet page merged from node registries, the cluster health rollup, per-leg
trace spans and the ``/trace`` span list, statement digests, and the
hardened admin endpoints that serve all of it."""

from __future__ import annotations

import json
import urllib.error
from urllib.request import urlopen

import pytest

from repro.cluster import build_demo_cluster
from repro.core.system import QbismSystem
from repro.db.sql import Prepared, parse
from repro.errors import ReproError, SqlSyntaxError
from repro.obs import digest, metrics, promtext, qlog, recorder, trace
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
        recorder.get_recorder().slow_threshold_seconds = None
        recorder.get_recorder().incident_dir = None
        qlog.disable()
        digest.enable()
        digest.reset()

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
    with build_demo_cluster(n_shards=2, **OBS_KW) as cluster:
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

def _two_nodes():
    a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
    a.counter("x.calls").inc(2)
    b.counter("x.calls").inc(3)
    a.counter("x.only_a").inc(7)
    a.gauge("x.depth").set(1.0)
    b.gauge("x.depth").set(5.0)
    for v in (0.001, 0.2):
        a.histogram("x.lat").observe(v)
    b.histogram("x.lat").observe(3.0)
    return [({"shard": "0", "role": "primary"}, a),
            ({"shard": "1", "role": "replica"}, b)]


#: what rev bda52cc's ``federation.federate`` (render each registry to
#: text, re-parse, merge, re-render) served for ``_two_nodes()``, minus its
#: ``federation_up`` family — the direct merge must not move a byte of it
_PINNED_FLEET_PAGE = """\
# TYPE x_calls counter
x_calls 5
# TYPE x_depth gauge
x_depth{role="primary",shard="0"} 1.0
x_depth{role="replica",shard="1"} 5.0
# TYPE x_lat histogram
x_lat_bucket{le="0.0001"} 0
x_lat_bucket{le="0.001"} 1
x_lat_bucket{le="0.01"} 1
x_lat_bucket{le="0.1"} 1
x_lat_bucket{le="1.0"} 2
x_lat_bucket{le="10.0"} 3
x_lat_bucket{le="+Inf"} 3
x_lat_sum 3.201
x_lat_count 3
# TYPE x_lat_p50 gauge
x_lat_p50{role="primary",shard="0"} 0.001
x_lat_p50{role="replica",shard="1"} 3.0
# TYPE x_lat_p95 gauge
x_lat_p95{role="primary",shard="0"} 0.19
x_lat_p95{role="replica",shard="1"} 3.0
# TYPE x_lat_p99 gauge
x_lat_p99{role="primary",shard="0"} 0.198
x_lat_p99{role="replica",shard="1"} 3.0
# TYPE x_only_a counter
x_only_a 7
"""


class TestFederation:
    def test_merged_page_matches_the_text_round_trip_it_replaced(self):
        assert promtext.render_merged(_two_nodes()) == _PINNED_FLEET_PAGE

    def test_counters_sum_and_page_reparses(self):
        families = promtext.parse(promtext.render_merged(_two_nodes()))
        assert _counter_total(families, "x_calls") == 5.0

    def test_gauges_labeled_per_node(self):
        families = promtext.parse(promtext.render_merged(_two_nodes()))
        samples = families["x_depth"]["samples"]
        assert len(samples) == 2
        assert sorted(value for _, _, value in samples) == [1.0, 5.0]
        assert any(labels.get("shard") == "0" for _, labels, _ in samples)

    def test_histograms_bucket_merge(self):
        families = promtext.parse(promtext.render_merged(_two_nodes()))
        samples = families["x_lat"]["samples"]
        count = [v for n, _, v in samples if n == "x_lat_count"]
        total = [v for n, _, v in samples if n == "x_lat_sum"]
        assert count == [3.0]
        assert total[0] == pytest.approx(3.201)

    def test_router_counter_sums_match_per_shard_scrapes(self, cluster2):
        cluster2.execute("select count(*) from warpedVolume")
        families = promtext.parse(cluster2.router.federated_metrics())
        per_node = [promtext.parse(promtext.render(registry))
                    for _, registry in cluster2.router.node_registries()]
        assert len(per_node) == 3      # the router and two shards
        for family in ("db_statements", "executor_statements"):
            node_sum = sum(_counter_total(f, family) for f in per_node)
            assert node_sum > 0
            assert _counter_total(families, family) == node_sum

    def test_same_thread_scopes_attribute_each_leg_to_its_shard(self,
                                                                cluster4):
        """Router and shard scopes nest on one thread: the innermost (the
        shard's) takes every leg's metrics, the router's takes none."""
        def statements(registry) -> int:
            return registry.snapshot()["counters"].get("db.statements", 0)

        shards = [shard.node_registry for shard in cluster4.shards]
        before = [statements(registry) for registry in shards]
        cluster4.execute("select count(*) from warpedVolume")
        legs = [statements(r) - b for r, b in zip(shards, before)]
        assert legs == [1, 1, 1, 1]
        assert statements(cluster4.router.registry) == 0
        families = promtext.parse(cluster4.router.federated_metrics())
        assert _counter_total(families, "db_statements") == sum(
            statements(registry) for registry in shards)


# --------------------------------------------------------------------- #
# cluster health rollup
# --------------------------------------------------------------------- #

class TestClusterHealth:
    def test_rollup_reports_every_shard(self, cluster2):
        rollup = cluster2.router.cluster_health()
        assert rollup["status"] == "ok"
        assert [entry["shard"] for entry in rollup["shards"]] == [0, 1]
        for entry in rollup["shards"]:
            assert entry["up"] is True
            assert entry["studies"] >= 1

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
        (scatter,) = [s for s in spans if s.name == "cluster.scatter"]
        for leg in legs:
            assert leg.meta["queue_ms"] >= 0.0
            assert leg.parent_id == scatter.span_id
            children = [s.name for s in spans if s.parent_id == leg.span_id]
            assert children == ["server.execute"]

    def test_router_phases_present(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
        names = {s.name for s in spans}
        assert {"cluster.plan", "cluster.scatter", "cluster.merge"} <= names
        assert "cluster.gather" not in names


class TestTraceEndpoint:
    def test_serves_chrome_and_jsonl(self, cluster2):
        """The name predates the Chrome/JSONL exporters' removal:
        ``/trace/<id>`` now serves the span records as one JSON list."""
        trace.enable()
        cluster2.execute("select count(*) from warpedVolume")
        trace_id = trace.records()[-1].trace_id
        admin = cluster2.router.start_admin()
        try:
            status, body = _get(f"{admin.url}/trace/{trace_id}")
            assert status == 200
            spans = json.loads(body)
            assert {s["trace_id"] for s in spans} == {trace_id}
            ids = {s["span_id"] for s in spans}
            (root,) = [s for s in spans if s["parent_id"] is None]
            assert (root["name"], root["start_us"]) == ("cluster.execute", 0.0)
            for span in spans:
                assert span["start_us"] >= 0 and span["wall_us"] >= 0
                assert span["parent_id"] is None or span["parent_id"] in ids
            legs = [s for s in spans if s["name"] == "cluster.leg"]
            assert {s["meta"]["shard"] for s in legs} == {"0", "1"}
            assert all(s["meta"]["role"] == "primary" and
                       s["meta"]["queue_ms"] >= 0 for s in legs)
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
            for route in ("/digests", "/trace/<trace_id>"):
                assert route in routes
            assert "/cluster/healthz" not in routes
            for gone in ("/cluster/healthz", "/alerts"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(admin.url + gone)
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
        recorder.get_recorder().slow_threshold_seconds = 60.0
        path = qlog.enable(tmp_path / "slow.jsonl", slow_only=True)
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
        """The name predates the SLO engine's removal: federated metrics,
        digests and the trace span list over a four-shard cluster."""
        trace.enable()
        admin = cluster4.router.start_admin()
        try:
            cluster4.execute("select count(*) from warpedVolume")
            trace_id = trace.records()[-1].trace_id
            with pytest.raises(ReproError):
                cluster4.execute("select noSuchColumn from patient")

            # Federated /metrics: summed counters match the per-node pages.
            status, body = _get(admin.url + "/metrics")
            assert status == 200
            families = promtext.parse(body)
            per_node = [promtext.parse(promtext.render(registry))
                        for _, registry in cluster4.router.node_registries()]
            node_sum = sum(_counter_total(f, "db_statements")
                           for f in per_node)
            assert node_sum > 0
            assert _counter_total(families, "db_statements") == node_sum

            # /digests attributes the broadcast to every shard's leg, and
            # each leg's record in /queries/recent joins its row by digest.
            status, body = _get(admin.url + "/digests?n=50")
            rows = json.loads(body)
            (row,) = [r for r in rows if "warpedVolume" in r["statement"]]
            assert row["calls"] >= 4
            assert set(row["shards"]) == {"0", "1", "2", "3"}
            status, body = _get(admin.url + "/queries/recent?n=50")
            legs = [r for r in json.loads(body)
                    if r["digest"] == row["digest"]]
            assert {r["shard"] for r in legs} == {"0", "1", "2", "3"}

            # /trace/<id>: one leg per shard, each with its queue wait as
            # a tag and its execution as a child; merge under the root.
            status, body = _get(f"{admin.url}/trace/{trace_id}")
            spans = json.loads(body)
            legs = {s["meta"]["shard"]: s for s in spans
                    if s["name"] == "cluster.leg"}
            assert set(legs) == {"0", "1", "2", "3"}
            for leg in legs.values():
                assert leg["meta"]["queue_ms"] >= 0
                assert [s["name"] for s in spans
                        if s["parent_id"] == leg["span_id"]] == ["server.execute"]
            (root,) = [s for s in spans if s["parent_id"] is None]
            assert "cluster.merge" in {s["name"] for s in spans
                                       if s["parent_id"] == root["span_id"]}

            # The errored legs left query.error incidents.
            status, body = _get(admin.url + "/incidents")
            assert any(r["reason"] == "query.error"
                       for r in json.loads(body))
        finally:
            admin.close()
