"""Sharded scatter-gather serving: placement, routing, merging, pins.

The load-bearing guarantees:

* a one-shard cluster is *bit-identical* to the single node — same study
  ids, same query payloads, same Table 3/4 LFM page I/O counts;
* scatter-gather results at 2 and 4 shards match the single node's
  result shapes exactly (same rows), under seeded concurrent
  interleavings as well as serially;
* the router prunes fan-out when the statement allows it and one routed
  query produces exactly one span tree across the whole cluster.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.cluster import (
    PlacementMap,
    build_demo_cluster,
    place_studies,
)
from repro.cluster.router import ShardRouter
from repro.db.sql import Prepared, parse
from repro.errors import ClusterError, ShardUnavailableError
from repro.medical.server import QuerySpec
from repro.obs import trace
from repro.bench.workloads import scaled_box

DEMO_KW = dict(
    seed=1994, grid_side=32, n_pet=3, n_mri=1,
    band_encodings=("hilbert-naive", "z-naive", "octant"),
)

#: the grid-32 Table 3 LFM page I/O pins (BENCH_table3.json, PR 4)
TABLE3_PINS = {"Q1": 9, "Q2": 9, "Q3": 10, "Q4": 6, "Q5": 6, "Q6": 5}


@pytest.fixture(scope="module")
def cluster1():
    with build_demo_cluster(n_shards=1, **DEMO_KW) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def cluster2():
    with build_demo_cluster(n_shards=2, **DEMO_KW) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def cluster4():
    with build_demo_cluster(n_shards=4, **DEMO_KW) as cluster:
        yield cluster


def table3_specs(study_id: int, grid_side: int = 32) -> dict:
    """The Table 3 Q1..Q6 query specs against one study."""
    lower, upper = scaled_box(grid_side)
    return {
        "Q1": QuerySpec(study_id=study_id),
        "Q2": QuerySpec(study_id=study_id, box=(lower, upper)),
        "Q3": QuerySpec(study_id=study_id, structures=("ntal",)),
        "Q4": QuerySpec(study_id=study_id, structures=("ntal1",)),
        "Q5": QuerySpec(study_id=study_id, intensity_range=(224, 255)),
        "Q6": QuerySpec(study_id=study_id, structures=("ntal1",),
                        intensity_range=(224, 255)),
    }


class TestPlacement:
    def test_one_shard_degenerates(self, demo_system):
        from repro.synthdata.studies import generate_pet_studies

        studies = generate_pet_studies(demo_system.phantom, count=3, seed=7)
        assert place_studies(studies, 32, 1) == [0, 0, 0]

    def test_round_robin_spreads(self, demo_system):
        from repro.synthdata.studies import generate_pet_studies

        studies = generate_pet_studies(demo_system.phantom, count=6, seed=7)
        assignment = place_studies(studies, 32, 3)
        # 6 studies dealt round-robin over 3 shards: two each.
        assert sorted(assignment) == [0, 0, 1, 1, 2, 2]

    def test_placement_is_deterministic(self, demo_system):
        from repro.synthdata.studies import generate_pet_studies

        studies = generate_pet_studies(demo_system.phantom, count=5, seed=7)
        assert place_studies(studies, 32, 2) == place_studies(studies, 32, 2)

    def test_zero_shards_rejected(self):
        with pytest.raises(ClusterError):
            place_studies([], 32, 0)

    def test_map_unknown_study(self):
        placement = PlacementMap(n_shards=2)
        with pytest.raises(ClusterError):
            placement.shard_for(99)

    def test_table_classes(self):
        assert PlacementMap.is_partitioned("warpedVolume")
        assert PlacementMap.is_partitioned("intensityBand")
        assert PlacementMap.is_replicated("atlasStructure")
        assert PlacementMap.is_replicated("patient")
        assert not PlacementMap.is_partitioned("patient")


class TestShardOneIdentity:
    """A one-shard cluster IS the single node, bit for bit."""

    def test_same_study_ids(self, demo_system, cluster1):
        assert cluster1.pet_study_ids == demo_system.pet_study_ids
        assert cluster1.mri_study_ids == demo_system.mri_study_ids

    def test_table3_payloads_and_pins(self, demo_system, cluster1):
        sid = demo_system.pet_study_ids[0]
        for name, spec in table3_specs(sid).items():
            single = demo_system.server.execute(spec)
            clustered = cluster1.router.execute_spec(spec)
            assert clustered.payload == single.payload, name
            assert clustered.io.pages_read == single.io.pages_read == \
                TABLE3_PINS[name], name

    def test_table4_pins(self, demo_system, cluster1):
        for encoding in DEMO_KW["band_encodings"]:
            single_region, single_q = demo_system.server.band_consistency_region(
                demo_system.pet_study_ids, 128, 159, encoding=encoding
            )
            shard = cluster1.shards[0]
            region, clustered_q = shard.medical.band_consistency_region(
                cluster1.pet_study_ids, 128, 159, encoding=encoding
            )
            assert region == single_region, encoding
            assert clustered_q.io.pages_read == single_q.io.pages_read, encoding
            # The router's distributed path lands on the same region too.
            routed = cluster1.router.band_consistency_region(
                cluster1.pet_study_ids, 128, 159, encoding=encoding
            )
            assert routed == single_region, encoding


class TestScatterGather:
    """Multi-shard results match the single node's, merged correctly."""

    # Read statements whose merged shapes must match the single node's.
    STATEMENTS = (
        "select count(*) from warpedVolume",
        "select count(*), min(low), max(high) from intensityBand",
        "select studyId from warpedVolume order by studyId",
        "select studyId, low from intensityBand "
        "order by studyId, low limit 7",
        "select count(*) from rawVolume where modality = 'PET'",
        "select structureName from neuralStructure order by structureName",
        "select patientId from patient order by patientId",
    )

    @pytest.mark.parametrize("nshards", [2, 4])
    def test_statements_match_single_node(self, demo_system, cluster2,
                                          cluster4, nshards):
        cluster = {2: cluster2, 4: cluster4}[nshards]
        for sql in self.STATEMENTS:
            single = demo_system.db.execute(sql)
            routed = cluster.execute(sql)
            assert routed.rows == single.rows, sql
            assert routed.columns == single.columns, sql

    @pytest.mark.parametrize("nshards", [2, 4])
    def test_specs_bit_identical_across_shard_counts(
            self, demo_system, cluster2, cluster4, nshards):
        cluster = {2: cluster2, 4: cluster4}[nshards]
        for study_id in demo_system.pet_study_ids + demo_system.mri_study_ids:
            for name, spec in table3_specs(study_id).items():
                single = demo_system.server.execute(spec)
                routed = cluster.router.execute_spec(spec)
                assert routed.payload == single.payload, (study_id, name)

    def test_seeded_interleavings_match_replay(self, demo_system, cluster2,
                                               test_seed):
        """Concurrent routed traffic returns exactly the serial answers."""
        rng = random.Random(test_seed)
        statements = [s for s in self.STATEMENTS for _ in range(3)]
        rng.shuffle(statements)
        expected = {
            sql: demo_system.db.execute(sql).rows for sql in set(statements)
        }
        failures: list = []

        def client(share: list) -> None:
            for sql in share:
                rows = cluster2.execute(sql).rows
                if rows != expected[sql]:
                    failures.append((sql, rows))

        threads = [
            threading.Thread(target=client, args=(statements[k::4],))
            for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_band_consistency_across_shards(self, demo_system, cluster4):
        single, _ = demo_system.server.band_consistency_region(
            demo_system.pet_study_ids, 128, 159, encoding="hilbert-naive"
        )
        routed = cluster4.router.band_consistency_region(
            cluster4.pet_study_ids, 128, 159, encoding="hilbert-naive"
        )
        assert routed == single

    def test_cross_shard_group_by_rejected(self, cluster2):
        with pytest.raises(ClusterError):
            cluster2.execute(
                "select modality, count(*) from rawVolume group by modality"
            )

    def test_cross_shard_avg_rejected(self, cluster2):
        with pytest.raises(ClusterError):
            cluster2.execute("select avg(low) from intensityBand")


class TestPruning:
    def _targets(self, cluster, sql: str, params=None) -> list[int]:
        prepared = Prepared(sql, parse(sql))
        return [
            shard.shard_id
            for shard in cluster.router._plan(prepared, list(params or []))
        ]

    def test_replicated_only_goes_to_shard_zero(self, cluster4):
        targets = self._targets(
            cluster4, "select structureName from neuralStructure"
        )
        assert targets == [0]

    def test_study_id_literal_prunes_to_owner(self, cluster4):
        for study_id, owner in cluster4.placement.shard_of_study.items():
            targets = self._targets(
                cluster4,
                f"select modality from rawVolume where studyId = {study_id}",
            )
            assert targets == [owner], study_id

    def test_study_id_param_prunes_to_owner(self, cluster4):
        study_id = cluster4.study_ids[0]
        owner = cluster4.placement.shard_for(study_id)
        targets = self._targets(
            cluster4,
            "select modality from rawVolume where studyId = ?",
            [study_id],
        )
        assert targets == [owner]

    def test_unprunable_broadcasts(self, cluster4):
        targets = self._targets(cluster4, "select count(*) from warpedVolume")
        assert targets == [s.shard_id for s in cluster4.shards]

    def test_qualified_study_id_still_prunes(self, cluster4):
        study_id = cluster4.study_ids[-1]
        owner = cluster4.placement.shard_for(study_id)
        targets = self._targets(
            cluster4,
            f"select dataMean(extractVoxels(v.data, s.region)) "
            f"from warpedVolume v, atlasStructure s "
            f"where v.studyId = {study_id} and s.structureId = 1",
        )
        assert targets == [owner]


class TestSubqueryRouting:
    """A partitioned table named only in a subquery still decides routing."""

    # At the parent the router looked at top-level FROM tables only, saw
    # "replicated-only", and answered these from shard 0's slice alone.
    STATEMENTS = (
        "select count(*) from patient where patientId in "
        "(select patientId from rawVolume)",
        "select count(*) from atlasStructure where exists "
        "(select studyId from warpedVolume where studyId = 2)",
    )

    @staticmethod
    def _statements_run(cluster) -> int:
        return sum(entry["statements"]
                   for entry in cluster.router.session_snapshot())

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_one_shard_answers_like_the_single_node(self, demo_system,
                                                    cluster1, sql):
        single = demo_system.db.execute(sql).rows
        assert single[0][0] > 0
        assert cluster1.execute(sql).rows == single

    @pytest.mark.parametrize("nshards", [2, 4])
    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_many_shards_refuse_before_any_leg_runs(self, cluster2, cluster4,
                                                    nshards, sql):
        cluster = {2: cluster2, 4: cluster4}[nshards]
        before = self._statements_run(cluster)
        with pytest.raises(ClusterError, match="subquery"):
            cluster.execute(sql)
        assert self._statements_run(cluster) == before

    @pytest.mark.parametrize("nshards", [2, 4])
    def test_study_id_predicate_still_resolves_to_one_shard(
            self, demo_system, cluster2, cluster4, nshards):
        cluster = {2: cluster2, 4: cluster4}[nshards]
        sql = ("select count(*) from warpedVolume where studyId = ? and "
               "studyId in (select studyId from rawVolume)")
        for study_id in cluster.study_ids:
            assert (cluster.execute(sql, [study_id]).rows
                    == demo_system.db.execute(sql, [study_id]).rows
                    == [(1,)])

    def test_replicated_subquery_stays_on_shard_zero(self, demo_system,
                                                     cluster4):
        sql = ("select count(*) from patient where patientId in "
               "(select patientId from patient)")
        assert cluster4.execute(sql).rows == demo_system.db.execute(sql).rows


class TestTracePropagation:
    def test_one_broadcast_one_span_tree(self, cluster2):
        with trace.capture() as spans:
            cluster2.execute("select count(*) from warpedVolume")
        assert spans, "tracing captured nothing"
        assert len({span.trace_id for span in spans}) == 1
        trees = trace.span_trees(spans)
        assert len(trees) == 1
        # The root is the router's span; shard-side statements hang below.
        assert trees[0].record.name == "cluster.execute"


class TestRouterSurface:
    def test_session_snapshot_tags_shards(self, cluster2):
        snapshot = cluster2.router.session_snapshot()
        assert snapshot
        assert {entry["shard"] for entry in snapshot} == {0, 1}

    def test_writes_broadcast_to_replicated_tables(self, cluster2):
        before = cluster2.execute("select count(*) from patient").rows
        cluster2.execute(
            "insert into patient values (901, 'cluster-test', "
            "'1980-01-01', 'F', 44)"
        )
        after = cluster2.execute("select count(*) from patient").rows
        assert after[0][0] == before[0][0] + 1
        # Every shard holds the new row (replicated write fan-out).
        for shard in cluster2.shards:
            rows = shard.execute(
                "select name from patient where patientId = 901"
            ).rows
            assert rows == [("cluster-test",)]

    def test_down_shard_refuses_before_any_leg_runs(self):
        """At the parent a routed write committed on the open shards and
        then raised, so the replicated ``patient`` table diverged."""
        with build_demo_cluster(n_shards=2, grid_side=16,
                                n_pet=1, n_mri=1) as cluster:
            up, down = cluster.shards

            def patients() -> list[int]:
                return [shard.db.execute("select count(*) from patient")
                        .scalar() for shard in cluster.shards]

            before = patients()
            down.server.close()
            for sql in ("insert into patient values (902, 'down-test', "
                        "'1980-01-01', 'F', 44)",
                        "select count(*) from warpedVolume"):
                with pytest.raises(ShardUnavailableError):
                    cluster.execute(sql)
            assert patients() == before
            (owned,) = down.study_ids
            with pytest.raises(ShardUnavailableError):
                cluster.router.execute_spec(QuerySpec(study_id=owned))
            # Statements that do not touch the down shard still run.
            (kept,) = up.study_ids
            assert cluster.execute(
                "select count(*) from rawVolume where studyId = ?", [kept]
            ).rows == [(1,)]

    def test_closed_router_refuses(self):
        with build_demo_cluster(n_shards=1, grid_side=16,
                                n_pet=1, n_mri=0) as cluster:
            cluster.close()
            with pytest.raises(ClusterError):
                cluster.execute("select count(*) from patient")

    def test_router_needs_shards(self):
        with pytest.raises(ClusterError):
            ShardRouter([], PlacementMap(n_shards=1))
