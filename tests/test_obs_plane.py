"""Tests for the observability plane: statement digests and the hardened
admin endpoints that serve them, end to end over HTTP on a one-node
server."""

from __future__ import annotations

import json
import urllib.error
from urllib.request import urlopen

import pytest

from repro.core.system import QbismSystem
from repro.db.sql import Prepared, parse
from repro.errors import ReproError, SqlSyntaxError
from repro.obs import digest, metrics, promtext, qlog, recorder
from repro.obs.recorder import QueryRecord
from repro.server import QueryServer

@pytest.fixture(autouse=True)
def clean_obs():
    def scrub():
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


def _get(url: str):
    with urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def _counter_total(families: dict, family: str) -> float:
    if family not in families:
        return 0.0
    return sum(value for name, _, value in families[family]["samples"]
               if name == family)


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

    def test_rows_aggregate_calls_and_errors(self):
        table = digest.DigestTable()
        sql = "select count(*) from patient where patientId = {}"
        table.observe(_record(sql.format(1), rows=1, wall_seconds=0.01,
                              pages_read=2, cache_hit=True))
        table.observe(_record(sql.format(2), rows=1, wall_seconds=0.03,
                              pages_read=4))
        table.observe(_record(sql.format(3), ok=False, error="boom"))
        (row,) = table.top(1)
        assert row["calls"] == 3
        assert row["errors"] == 1
        assert row["pages_read"] == 6
        assert row["cache_hit_rate"] == pytest.approx(1 / 3)

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
            assert "/digests" in routes
            assert not [r for r in routes
                        if r.startswith(("/cluster", "/trace"))]
            for gone in ("/cluster/healthz", "/alerts", "/trace/x"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(admin.url + gone)
                assert excinfo.value.code == 404
                assert json.loads(excinfo.value.read())["routes"] == routes

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
# one-node end-to-end acceptance
# --------------------------------------------------------------------- #

class TestAdminAcceptance:
    def test_metrics_digests_trace_and_incidents(self, system):
        """/metrics, /digests, /queries/recent and /incidents over HTTP,
        and the digest row joined to its records by id."""
        with QueryServer(system.db, workers=1, result_cache=False) as server:
            admin = server.start_admin()
            with server.connect(name="acceptance") as session:
                session.execute("select count(*) from warpedVolume")
                trace_id = recorder.get_recorder().recent(1)[0].trace_id
                session.execute("select count(*) from warpedVolume")
                with pytest.raises(ReproError):
                    session.execute("select noSuchColumn from patient")

            # /metrics: the process registry, one served count a statement.
            status, body = _get(admin.url + "/metrics")
            assert status == 200
            families = promtext.parse(body)
            assert _counter_total(families, "server_statements") == 3
            assert _counter_total(families, "db_statements") >= 2

            # /digests folds both runs into one row, and each run's record
            # in /queries/recent joins that row by digest.
            status, body = _get(admin.url + "/digests?n=50")
            rows = json.loads(body)
            (row,) = [r for r in rows if "warpedVolume" in r["statement"]]
            assert (row["calls"], row["errors"]) == (2, 0)
            assert set(row["phase_mean_ms"]) >= {"server", "db.executor"}
            status, body = _get(admin.url + "/queries/recent?n=50")
            records = [r for r in json.loads(body)
                       if r["digest"] == row["digest"]]
            assert len(records) == 2
            assert {r["session"] for r in records} == {"acceptance"}
            assert trace_id in {r["trace_id"] for r in records}

            # The errored statement left a query.error incident.
            status, body = _get(admin.url + "/incidents")
            errors = [r for r in json.loads(body)
                      if r["reason"] == "query.error"]
            assert [r["trigger"]["sql"] for r in errors] \
                == ["select noSuchColumn from patient"]
