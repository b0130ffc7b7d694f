"""Differential plan-equivalence harness: optimizer on vs. naive plans.

Every generated query runs twice against the same demo database — once
through the default cost-based planner (Selinger DP join order, predicate
reordering, hash + spatial-index probes) and once with
``planner="naive"`` (FROM-order joins, original conjunct order, no
spatial probes).  The harness asserts two invariants:

* **bit-identical result sets** — same columns, same row multiset
  (nested-loop output *order* legitimately differs between join orders);
* **page-I/O monotonicity** — the optimized plan never reads more LFM
  pages than the naive one.

Queries are shaped like the paper's Q1-Q6 workload: metadata joins over
patient/rawVolume/warpedVolume, intensity-band lookups, and
``voxelCount(intersection(region, ?)) > 0`` box probes with transient
REGION payload parameters.  Probe regions arriving as transient ``?``
payloads cost zero I/O to inspect, so a spatial-index probe can only prune;
probes whose probe *expression* reads a stored LONGFIELD of an earlier
join level pay a payload read per outer row and are therefore covered by
the result-equality tests only (see TestJoinDependentProbes).

The bulk batches draw from ``random.Random`` seeded per batch, and the
conftest RNG pinning seeds the module-level ``random`` per test node, so
every failure is replayable: re-run the single failing node id (the
failure message carries the batch seed and query ordinal).  The
hypothesis suite is derandomized for the same reason.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.system import QbismSystem
from repro.curves import GridSpec
from repro.regions.region import Region

#: bulk differential coverage: BATCHES x QUERIES_PER_BATCH queries
BATCHES = 4
QUERIES_PER_BATCH = 50
_BATCH_SEEDS = [19940_000 + b for b in range(BATCHES)]

GRID_SIDE = 16


def _demo():
    """The demo plus ``studyNote``: join keys that are NULL in some rows."""
    system = QbismSystem.build_demo(grid_side=GRID_SIDE, n_pet=2, n_mri=1, seed=7)
    studies = system.pet_study_ids + system.mri_study_ids
    system.db.execute(
        "create table studyNote (studyId integer, patientId integer, note text)")
    system.db.executemany(
        "insert into studyNote values (?, ?, ?)",
        [[studies[0], 1, "a"], [studies[0], None, "b"], [None, 1, "c"],
         [studies[1], 2, "d"], [None, None, "e"], [studies[-1], 2, None]])
    return system


@pytest.fixture(scope="module")
def system():
    return _demo()


@pytest.fixture(scope="module")
def catalog_values(system):
    """Values the generator draws literals from, read from the database."""
    db = system.db
    bands = sorted(
        {tuple(row) for row in db.execute(
            "select low, high, encoding from intensityBand"
        ).rows}
    )
    ages = sorted(
        {row[0] for row in db.execute("select age from patient").rows
         if row[0] is not None}
    )
    return {
        "study_ids": sorted(system.pet_study_ids + system.mri_study_ids),
        "structures": sorted(system.structure_names()),
        "bands": bands,
        "encodings": sorted({b[2] for b in bands}),
        "lows": sorted({b[0] for b in bands}),
        "ages": ages,
        "atlas_id": db.execute("select atlasId from atlas").scalar(),
        "modalities": ["PET", "MRI"],
    }


def _box_payload(lower, upper) -> bytes:
    grid = GridSpec((GRID_SIDE,) * 3)
    return Region.from_box(grid, lower, upper, curve="hilbert").to_bytes("naive")


def _random_box(rng: random.Random):
    lower = tuple(rng.randrange(0, GRID_SIDE - 1) for _ in range(3))
    upper = tuple(lo + rng.randrange(1, GRID_SIDE - lo) for lo in lower)
    return lower, upper


def _assemble(rng, select, tables, conjuncts, order_by=None):
    """Shuffle FROM and WHERE (params follow lexical ``?`` order)."""
    tables = list(tables)
    conjuncts = list(conjuncts)
    rng.shuffle(tables)
    rng.shuffle(conjuncts)
    params: list = []
    for _, conj_params in conjuncts:
        params.extend(conj_params)
    sql = (
        f"select {', '.join(select)} from {', '.join(tables)} "
        f"where {' and '.join(text for text, _ in conjuncts)}"
    )
    if order_by:
        sql += f" order by {order_by}"
    return sql, params


def generate_query(rng: random.Random, vals: dict):
    """One Q1-Q6-shaped (sql, params) pair drawn from the demo's values.

    Values are sometimes nudged outside the stored domain so empty
    result sets are exercised too.
    """
    shape = rng.randrange(10)
    if shape >= 6:
        return _closure_query(rng, vals, shape)
    if shape == 0:
        # Q1/Q3-shaped: patient metadata joined to acquired studies.
        conjuncts = [
            ("p.patientId = r.patientId", []),
            ("r.modality = ?", [rng.choice(vals["modalities"] + ["CT"])]),
        ]
        if rng.random() < 0.5:
            conjuncts.append(("p.age >= ?", [rng.choice(vals["ages"] + [200])]))
        return _assemble(
            rng, ["p.name", "r.studyId", "r.modality"],
            ["patient p", "rawVolume r"], conjuncts,
            order_by="r.studyId" if rng.random() < 0.3 else None,
        )
    if shape == 1:
        # Q5-shaped: intensity-band metadata lookup over stored studies.
        low, high, _ = rng.choice(vals["bands"])
        conjuncts = [
            ("b.studyId = r.studyId", []),
            ("b.encoding = ?", [rng.choice(vals["encodings"])]),
            ("b.low >= ?", [max(0, low - rng.randrange(0, 32))]),
            ("b.high <= ?", [min(255, high + rng.randrange(0, 32))]),
        ]
        if rng.random() < 0.5:
            conjuncts.append(("r.modality = ?", [rng.choice(vals["modalities"])]))
        return _assemble(
            rng, ["b.studyId", "b.low", "b.high"],
            ["intensityBand b", "rawVolume r"], conjuncts,
        )
    if shape == 2:
        # Q2-shaped: which structures intersect a probe box (spatial-index path).
        lower, upper = _random_box(rng)
        conjuncts = [
            ("voxelCount(intersection(s.region, ?)) > 0",
             [_box_payload(lower, upper)]),
            ("s.structureId = ns.structureId", []),
            ("s.atlasId = ?", [vals["atlas_id"]]),
        ]
        select = ["ns.structureName", "s.structureId"]
        if rng.random() < 0.3:
            # also project the overlap size through the same transient box
            select = [f"ns.structureName",
                      "voxelCount(intersection(s.region, ?))"]
            conjuncts[0] = (
                "voxelCount(intersection(s.region, ?)) > 0",
                [_box_payload(lower, upper)],
            )
            # the select-list placeholder is lexically first
            sql, params = _assemble(
                rng, select, ["atlasStructure s", "neuralStructure ns"],
                conjuncts,
            )
            return sql, [_box_payload(lower, upper)] + params
        return _assemble(
            rng, select, ["atlasStructure s", "neuralStructure ns"], conjuncts,
        )
    if shape == 3:
        # Q5/Q6-shaped: bands clipped by a probe box (spatial-index path).
        lower, upper = _random_box(rng)
        conjuncts = [
            ("b.encoding = ?", [rng.choice(vals["encodings"])]),
            ("voxelCount(intersection(b.region, ?)) > 0",
             [_box_payload(lower, upper)]),
        ]
        if rng.random() < 0.5:
            conjuncts.append(("b.low >= ?", [rng.choice(vals["lows"])]))
        return _assemble(
            rng, ["b.studyId", "b.low", "b.high"], ["intensityBand b"],
            conjuncts,
        )
    if shape == 4:
        # aggregate over the same joins EXPLAIN's Table 3 workload does
        conjuncts = [
            ("b.studyId = r.studyId", []),
            ("r.modality = ?", [rng.choice(vals["modalities"])]),
        ]
        if rng.random() < 0.5:
            conjuncts.append(("b.low >= ?", [rng.choice(vals["lows"])]))
        return _assemble(
            rng, ["count(*)"], ["rawVolume r", "intensityBand b"], conjuncts,
        )
    # Q3/Q4-shaped: a named structure inside one warped study.
    conjuncts = [
        ("s.atlasId = wv.atlasId", []),
        ("s.structureId = ns.structureId", []),
        ("ns.structureName = ?",
         [rng.choice(vals["structures"] + ["no-such-structure"])]),
        ("wv.studyId = ?", [rng.choice(vals["study_ids"])]),
    ]
    return _assemble(
        rng, ["wv.studyId", "ns.structureName"],
        ["warpedVolume wv", "atlasStructure s", "neuralStructure ns"],
        conjuncts,
    )


def _constant(rng, value):
    """A constant as the planner may meet it: a ``?`` or a literal."""
    if rng.random() < 0.5 or value is None:
        return "?", [value]
    return (f"'{value}'" if isinstance(value, str) else str(value)), []


def _closure_query(rng, vals, shape):
    """Transitive-equality shapes: a chain of ``col = col`` conjuncts with
    one end compared to a constant — a ``?`` (sometimes NULL), a literal
    or an outer column — which the cost planner closes and naive does not.
    """
    study, study_params = _constant(
        rng, rng.choice(vals["study_ids"] + [10_000, None]))
    if shape == 6:
        # the Q5/Q6 form: bands (and structures) tied to one warped study
        conjuncts = [
            ("b.studyId = wv.studyId", []), ("b.atlasId = wv.atlasId", []),
            (f"wv.studyId = {study}", study_params),
            ("wv.atlasId = ?", [vals["atlas_id"]]),
            ("b.encoding = ?", [rng.choice(vals["encodings"])]),
        ]
        tables = ["warpedVolume wv", "intensityBand b"]
        if rng.random() < 0.5:
            tables += ["atlasStructure s", "neuralStructure ns"]
            conjuncts += [
                ("s.atlasId = wv.atlasId", []),
                ("s.structureId = ns.structureId", []),
                ("ns.structureName = ?", [rng.choice(vals["structures"])]),
            ]
        return _assemble(rng, ["wv.studyId", "b.low", "b.high"], tables, conjuncts)
    if shape == 7:
        # NULL join keys on a three-table chain
        conjuncts = [
            ("n.studyId = r.studyId", []), ("r.studyId = wv.studyId", []),
            (rng.choice([f"n.studyId = {study}", f"{study} = wv.studyId"]),
             study_params),
        ]
        if rng.random() < 0.5:
            conjuncts.append(("n.patientId = r.patientId", []))
        return _assemble(
            rng, ["n.note", "r.modality", "wv.studyId"],
            ["studyNote n", "rawVolume r", "warpedVolume wv"], conjuncts)
    if shape == 8:
        # GROUP BY + HAVING over a closed join
        sql, params = _assemble(
            rng, ["r.modality", "count(*)", "min(b.low)"],
            ["rawVolume r", "intensityBand b"],
            [("b.studyId = r.studyId", []), (f"r.studyId = {study}", study_params)])
        return (sql + " group by r.modality having count(*) >= ?",
                params + [rng.choice([0, 1, 1000])])
    # a correlated block: the constant is the outer row's column
    inner, params = _assemble(
        rng, ["1"], ["rawVolume r", "studyNote n"],
        [("r.patientId = p.patientId", []), ("n.patientId = r.patientId", []),
         ("r.modality = ?", [rng.choice(vals["modalities"])])])
    negated = rng.choice(["", "not "])
    return (f"select p.name, p.patientId from patient p"
            f" where {negated}exists ({inner})", params)


def _explain(db, sql, params, planner=None):
    """The full EXPLAIN plan text (one output row per plan line)."""
    rows = db.execute("explain " + sql, params, planner=planner).rows
    return "\n".join(row[0] for row in rows)


def assert_plans_equivalent(db, sql, params, note=""):
    """Run optimized vs naive and hold both differential invariants."""
    optimized = db.execute(sql, params)
    naive = db.execute(sql, params, planner="naive")
    recipe = (
        f"\ndifferential mismatch ({note})"
        f"\n  sql: {sql}"
        f"\n  params: {[type(p).__name__ if isinstance(p, bytes) else p for p in params]}"
        "\n  replay: re-run this node id; batch seeds and the conftest RNG"
        " pinning regenerate the identical query sequence"
    )
    assert optimized.columns == naive.columns, recipe
    opt_rows = sorted(optimized.rows, key=repr)
    naive_rows = sorted(naive.rows, key=repr)
    assert opt_rows == naive_rows, recipe + (
        f"\n  optimized={opt_rows!r}\n  naive={naive_rows!r}"
    )
    assert optimized.io is not None and naive.io is not None, recipe
    assert optimized.io.pages_read <= naive.io.pages_read, recipe + (
        f"\n  optimized pages={optimized.io.pages_read}"
        f" naive pages={naive.io.pages_read}"
    )
    return optimized


class TestBulkDifferential:
    @pytest.mark.parametrize("batch_seed", _BATCH_SEEDS)
    def test_batch(self, system, catalog_values, batch_seed):
        rng = random.Random(batch_seed)
        used_spatial_probe = 0
        for ordinal in range(QUERIES_PER_BATCH):
            sql, params = generate_query(rng, catalog_values)
            assert_plans_equivalent(
                system.db, sql, params,
                note=f"batch seed {batch_seed}, query #{ordinal}",
            )
            plan = _explain(system.db, sql, params)
            if "via spatial(" in plan:
                used_spatial_probe += 1
        # the harness must actually exercise the optimizer's index path,
        # not just metadata joins that plan identically in every mode
        assert used_spatial_probe > 0, (
            f"batch seed {batch_seed} never produced a spatial-probe plan"
        )

    def test_total_query_budget(self):
        # the ISSUE's floor: the suite covers >= 200 generated queries
        assert BATCHES * QUERIES_PER_BATCH >= 200


class TestHypothesisDifferential:
    @settings(
        max_examples=40, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_seeded_query_is_equivalent(self, system, catalog_values, seed):
        rng = random.Random(seed)
        sql, params = generate_query(rng, catalog_values)
        assert_plans_equivalent(
            system.db, sql, params, note=f"hypothesis seed {seed}"
        )


class TestSpatialProbeWins:
    def test_box_probe_strictly_cheaper_than_naive(self, system):
        """The Q2 shape the index exists for: probing a compact box must
        beat reading every structure's region payload."""
        sql = (
            "select ns.structureName from atlasStructure s, neuralStructure ns"
            " where voxelCount(intersection(s.region, ?)) > 0"
            " and s.structureId = ns.structureId and s.atlasId = ?"
        )
        params = [_box_payload((2, 2, 2), (9, 9, 9)), 1]
        optimized = assert_plans_equivalent(system.db, sql, params, "probe win")
        naive = system.db.execute(sql, params, planner="naive")
        assert optimized.io.pages_read < naive.io.pages_read
        assert "via spatial(region)" in _explain(system.db, sql, params)

    def test_empty_probe_box_reads_nothing(self, system):
        sql = (
            "select s.structureId from atlasStructure s"
            " where voxelCount(intersection(s.region, ?)) > 0"
        )
        grid = GridSpec((GRID_SIDE,) * 3)
        empty = Region.empty(grid, curve="hilbert").to_bytes("naive")
        optimized = assert_plans_equivalent(
            system.db, sql, [empty], "empty probe"
        )
        assert optimized.rows == []
        assert optimized.io.pages_read == 0


class TestJoinDependentProbes:
    """Probes whose probe expression is an earlier level's stored REGION.

    Reading the probe payload itself costs a page I/O per outer row, so
    the I/O-monotonicity invariant is *not* claimed here — only result
    equivalence (the spatial index returns candidates; the exact predicate still
    runs on every one).
    """

    def test_band_region_probing_structures(self, system, catalog_values):
        low, high, encoding = catalog_values["bands"][0]
        sql = (
            "select s.structureId, b.low"
            " from intensityBand b, atlasStructure s"
            " where b.studyId = ? and b.low = ? and b.high = ?"
            " and b.encoding = ? and s.atlasId = ?"
            " and voxelCount(intersection(s.region, b.region)) > 0"
        )
        params = [system.pet_study_ids[0], low, high, encoding, 1]
        optimized = system.db.execute(sql, params)
        naive = system.db.execute(sql, params, planner="naive")
        assert sorted(optimized.rows, key=repr) == sorted(naive.rows, key=repr)
        assert "via spatial(region)" in _explain(system.db, sql, params)

    def test_every_stored_band_probes_equivalently(self, system, catalog_values):
        for low, high, encoding in catalog_values["bands"]:
            for study_id in catalog_values["study_ids"]:
                sql = (
                    "select s.structureId from intensityBand b, atlasStructure s"
                    " where b.studyId = ? and b.low = ? and b.high = ?"
                    " and b.encoding = ? and s.atlasId = ?"
                    " and voxelCount(intersection(s.region, b.region)) > 0"
                )
                params = [study_id, low, high, encoding, 1]
                optimized = system.db.execute(sql, params)
                naive = system.db.execute(sql, params, planner="naive")
                assert sorted(optimized.rows, key=repr) == sorted(
                    naive.rows, key=repr
                ), f"band ({low},{high},{encoding}) study {study_id}"


class TestNaivePlanShape:
    def test_naive_keeps_from_order_and_skips_spatial_probes(self, system):
        sql = (
            "select ns.structureName from neuralStructure ns, atlasStructure s"
            " where voxelCount(intersection(s.region, ?)) > 0"
            " and s.structureId = ns.structureId"
        )
        params = [_box_payload((0, 0, 0), (8, 8, 8))]
        from repro.db.planner import plan_select
        from repro.db.semantic import check
        from repro.db.sql.parser import parse

        select = parse(sql)
        blocks = check(select, system.db.catalog, system.db.functions)
        naive = plan_select(select, system.db.catalog, blocks, mode="naive")
        assert [ref.binding for ref in naive.table_order] == ["ns", "s"]
        assert all(probe is None for probe in naive.spatial_probes)
        assert naive.mode == "naive"
        # and the estimates are still populated (EXPLAIN shows them)
        assert len(naive.est_rows) == 2

    def test_unknown_planner_mode_rejected(self, system):
        from repro.errors import CatalogError

        for mode in ("bogus", "greedy"):
            with pytest.raises(CatalogError):
                system.db.execute("select p.name from patient p", planner=mode)

    def test_join_wider_than_the_dp_limit_matches_naive(self, system):
        # 11 tables: past _DP_LIMIT the cost planner orders joins with
        # its private heuristic instead of the subset DP.
        from repro.db.planner import _DP_LIMIT

        names = [f"p{i}" for i in range(_DP_LIMIT + 1)]
        sql = (
            "select " + ", ".join(f"{n}.patientId" for n in names)
            + " from " + ", ".join(f"patient {n}" for n in names)
            + " where " + " and ".join(
                f"{a}.patientId = {b}.patientId"
                for a, b in zip(names, names[1:]))
            + f" and {names[-1]}.age > 0"
        )
        cost = system.db.execute(sql)
        naive = system.db.execute(sql, planner="naive")
        assert cost.rows and sorted(cost.rows) == sorted(naive.rows)
        # the heuristic starts from the one table with its own predicate
        assert system.db.explain(sql).lstrip().startswith(f"scan patient {names[-1]}")


class TestConjunctFactsOnce:
    def test_each_conjunct_is_estimated_once_per_planning_call(self, system, monkeypatch):
        """Cost bucket, evaluation cost and selectivity are pure in the
        conjunct: the DP prices 2^5 join subsets, the AST is walked once."""
        from repro.db import planner

        sql = (
            "select wv.studyId from warpedVolume wv, atlasStructure s,"
            " neuralStructure ns, patient p, rawVolume rv"
            " where s.structureId = ns.structureId and wv.studyId = rv.studyId"
            " and rv.patientId = p.patientId and p.age > 30"
            " and ns.structureName = 'ntal1' and wv.atlasId = s.atlasId"
        )
        seen = []
        original = planner._PlannerState._selectivity

        def counting(self, conjunct):
            seen.append(conjunct)
            return original(self, conjunct)

        monkeypatch.setattr(planner._PlannerState, "_selectivity", counting)
        system.db.explain(sql)
        assert len(seen) == 6

    def test_each_column_reference_is_resolved_once_per_statement(
            self, system, monkeypatch):
        """The binder resolves every column reference once; the DP, the
        probes and the equality closure read its record and resolve
        nothing."""
        from repro.db import semantic

        sql = (
            "select wv.studyId from warpedVolume wv, atlasStructure s,"
            " neuralStructure ns, patient p, rawVolume rv"
            " where s.structureId = ns.structureId and wv.studyId = rv.studyId"
            " and rv.patientId = p.patientId and p.age > 30 and age < 90"
            " and ns.structureName = 'ntal1' and wv.atlasId = s.atlasId"
            " and rv.studyId = 6"
        )
        resolved = []
        original = semantic.SemanticAnalyzer._resolve_column

        def counting(self, ref, scope):
            resolved.append(ref)
            return original(self, ref, scope)

        monkeypatch.setattr(semantic.SemanticAnalyzer, "_resolve_column", counting)
        system.db.explain(sql)
        assert len(resolved) == 13  # the statement's column references


class TestPlanInProportion:
    """A planning call computes what its block's choices read: a join
    level is priced once, by the DP when one runs, and the plan reads that
    pricing; evaluation costs are the DP's alone; the equality closure
    runs only over a ``col = col`` conjunct.  ``sqlite3`` over the same
    rows is the oracle for the small tables."""

    @pytest.fixture
    def levels(self, monkeypatch):
        """Every ``(placed, binding)`` the planner prices, with its level."""
        from repro.db import planner

        priced = []
        original = planner._PlannerState.level_model

        def counting(self, placed, binding, *args, **kwargs):
            level = original(self, placed, binding, *args, **kwargs)
            priced.append(((placed, binding), level))
            return level

        monkeypatch.setattr(planner._PlannerState, "level_model", counting)
        return priced

    @pytest.fixture
    def pair(self):
        """Makes a database and a ``sqlite3`` one holding the same rows."""
        import sqlite3

        from repro.db import Database

        made = []

        def make(tables, indexes=()):
            db, lite = Database(), sqlite3.connect(":memory:")
            made.append(lite)
            for name, (columns, rows) in tables.items():
                marks = ", ".join("?" * len(rows[0]))
                for target in (db.execute, lite.execute):
                    target(f"create table {name} ({columns})")
                db.executemany(f"insert into {name} values ({marks})", rows)
                lite.executemany(f"insert into {name} values ({marks})", rows)
            for statement in indexes:
                db.execute(statement)
            db.execute("analyze")
            return db, lite

        yield make
        for lite in made:
            lite.close()

    def test_one_table_prices_one_level_and_reads_no_region_pages(
            self, system, levels, monkeypatch):
        from repro.db import planner

        pages = []
        original = planner._PlannerState._region_pages
        monkeypatch.setattr(planner._PlannerState, "_region_pages",
                            lambda self, *field: pages.append(field) or original(self, *field))
        sql = "select structureId from atlasStructure where voxelCount(region) > 10"
        for mode in ("cost", "naive"):
            levels.clear()
            _explain(system.db, sql, None, mode)
            assert len(levels) == 1 and pages == []

    def test_each_join_level_is_priced_once_and_the_plan_adds_none(
            self, system, levels):
        sql = (
            "select wv.studyId from warpedVolume wv, atlasStructure s,"
            " neuralStructure ns, patient p, rawVolume rv"
            " where s.structureId = ns.structureId and wv.studyId = rv.studyId"
            " and rv.patientId = p.patientId and p.age > 30"
            " and ns.structureName = 'ntal1' and wv.atlasId = s.atlasId"
        )
        _explain(system.db, sql, None)
        keys = [key for key, _ in levels]
        # the DP extends every subset of the five tables by each table
        # outside it: 5 * 2^4 levels, none twice, and the plan prices none
        assert len(keys) == len(set(keys)) == 5 * 2 ** 4

    @pytest.mark.parametrize("planner", ["cost", "naive"])
    def test_a_column_equality_still_derives_its_constant(self, pair, planner):
        db, lite = pair(
            {"t": ("a integer, b integer", [(k % 3, k % 2) for k in range(12)])})
        sql = "select a, b from t where a = b and b = 1"
        expected = sorted(lite.execute(sql).fetchall())
        assert expected
        assert sorted(db.execute(sql, planner=planner).rows) == expected
        derived = {"cost": 3, "naive": 2}[planner]
        assert f"[{derived} predicate(s)]" in _explain(db, sql, None, planner)

    def test_the_dp_prices_the_probe_the_plan_takes(self, pair, levels):
        """``t.b = u.k`` comes first in WHERE but runs after the
        single-table ``t.a = 5``, so the run-ordered level probes ``a``:
        the DP prices that probe (it once priced ``b`` and so placed ``t``
        first), and EXPLAIN shows it."""
        db, lite = pair(
            {"u": ("k integer", [(k,) for k in range(3)]),
             "t": ("a integer, b integer", [(k % 7, k % 5) for k in range(40)])},
            ["create index ta on t (a)", "create index tb on t (b)"])
        sql = "select t.a, t.b, u.k from u, t where t.b = u.k and t.a = 5"
        expected = sorted(lite.execute(sql).fetchall())
        assert expected
        for planner in ("cost", "naive"):
            assert sorted(db.execute(sql, planner=planner).rows) == expected
        levels.clear()
        assert _explain(db, sql, None).splitlines() == [
            "scan u (est rows=3)",
            "  probe t via index(a) [2 predicate(s)] (est rows=3)",
        ]
        priced = dict(levels)[frozenset({"u"}), "t"]
        assert priced.index_probe[0] == "a"
        assert "probe t via index(b)" in _explain(db, sql, None, "naive")


class TestPlansAndDigestsPinned:
    """What the front end makes of the seeded generator's statements,
    pinned: the EXPLAIN text of every statement under both planner modes
    (estimated rows included), and every statement's shape and digest.  A
    change to the lexer, the parser or the planner that moves any plan,
    estimate or statement class fails here."""

    EXPLAIN_SHA256 = "46621d35f6016353256821e7883d8dc353875ab28349a3021bf755332226b247"
    SHAPE_SHA256 = "87e3d1da91c27b5f1bd53357e17e72e9216abd364c5527d29d7dae0f9e8d0df1"

    def test_plans_and_digests_are_unchanged(self, system, catalog_values):
        from repro.db.planner import PLANNER_MODES
        from repro.db.sql import Prepared, parse

        plans, shapes = hashlib.sha256(), hashlib.sha256()
        for batch_seed in _BATCH_SEEDS:
            rng = random.Random(batch_seed)
            for _ in range(QUERIES_PER_BATCH):
                sql, params = generate_query(rng, catalog_values)
                for mode in PLANNER_MODES:
                    plans.update(f"{mode}\n{_explain(system.db, sql, params, mode)}\n".encode())
                prepared = Prepared(sql, parse(sql))
                shapes.update(f"{prepared.shape}\n{prepared.digest}\n".encode())
        assert (plans.hexdigest(), shapes.hexdigest()) == (
            self.EXPLAIN_SHA256, self.SHAPE_SHA256)


# --------------------------------------------------------------------- #
# warm statements: the memoized check and plans under every kind of change
# --------------------------------------------------------------------- #


def _cold(sql):
    """A statement object no memo has seen: it is checked and planned."""
    from repro.db.sql import Prepared, parse

    return Prepared(sql, parse(sql))


def _outcome(run):
    """Rows (order-free), or the diagnostic code the statement dies with."""
    from repro.errors import ReproError

    try:
        return "rows", sorted(run().rows, key=repr)
    except ReproError as exc:
        return "error", getattr(exc, "code", type(exc).__name__)


def _plan_text(db, statement, params, planner):
    from repro.errors import ReproError

    try:
        return [row[0] for row in db.execute(statement, params, planner=planner).rows]
    except ReproError as exc:
        return getattr(exc, "code", type(exc).__name__)


#: applied one after another; after each, every statement is re-examined
_CHANGES = [
    ("nothing", []),
    ("INSERT", ["insert into patient values (900, 'warm', '1950-01-01', 'F', 44)",
                "insert into notes values (3, 'c')"]),
    ("UPDATE", ["update patient set age = age + 30 where patientId = 900"]),
    ("CREATE INDEX", ["create index ixWarm on rawVolume (patientId)",
                      "create index ixNotes on notes (k)"]),
    ("DROP INDEX", ["drop index ixWarm"]),
    ("DROP INDEX (spatial)", ["drop index sxAtlasRegion"]),
    ("CREATE SPATIAL INDEX",
     ["create spatial index sxAtlasRegion on atlasStructure (region)"]),
    ("DELETE", ["delete from patient where patientId = 900"]),
    ("ANALYZE", ["analyze"]),
    ("DROP TABLE + CREATE TABLE, other schema",
     ["drop table notes", "create table notes (k integer, w text)",
      "insert into notes values (1, 'z')"]),
    ("register_function(replace=True)", None),
]

_HANDWRITTEN = [
    ("select v from notes where k = ?", [1]),
    ("select k from notes where k >= ? order by k", [0]),
    ("select warmfn(age) from patient where patientId = ?", [1]),
    # a correlated and an uncorrelated nested block
    ("select p.name from patient p where exists (select 1 from rawVolume r"
     " where r.patientId = p.patientId and r.modality = ?)", ["PET"]),
    ("select count(*) from rawVolume where patientId in"
     " (select patientId from patient where age >= ?)", [40]),
]


class TestWarmStatements:
    @pytest.fixture()
    def db(self):
        db = _demo().db
        db.execute("create table notes (k integer, v text)")
        db.executemany("insert into notes values (?, ?)", [[1, "a"], [2, "b"]])
        db.register_function("warmfn", lambda age: age + 1)
        return db

    @pytest.fixture()
    def front_end_calls(self, monkeypatch):
        """Names of the front-end passes run, in order."""
        import repro.db.database
        import repro.db.executor

        calls: list[str] = []
        for module, name in ((repro.db.database, "parse"),
                             (repro.db.database, "check"),
                             (repro.db.executor, "plan_select")):
            def counting(*args, _orig=getattr(module, name), _name=name, **kw):
                calls.append(_name)
                return _orig(*args, **kw)
            monkeypatch.setattr(module, name, counting)
        return calls

    def test_invalidation_matrix(self, db, catalog_values, front_end_calls):
        rng = random.Random(19940_016)
        statements = [generate_query(rng, catalog_values) for _ in range(12)]
        statements += _HANDWRITTEN
        for label, change in _CHANGES:
            if change is None:
                db.register_function("warmfn", lambda age, extra: age,
                                     replace=True)
            for ddl in change or ():
                db.execute(ddl)
            for sql, params in statements:
                note = f"after {label}: {sql}"
                for planner in ("cost", "naive"):
                    # byte-identical EXPLAIN, or the same diagnostic
                    assert _plan_text(db, "explain " + sql, params, planner) \
                        == _plan_text(db, _cold("explain " + sql), params,
                                      planner), note
                oracle = _outcome(lambda: db.execute(
                    _cold(sql), params, planner="naive"))
                for _ in range(2):  # re-bound, then warm
                    assert _outcome(lambda: db.execute(sql, params)) \
                        == oracle, note
            # with nothing changed in between, a second pass over the very
            # same texts runs no parser, no analyzer and no planner
            del front_end_calls[:]
            for sql, params in statements:
                for text in (sql, "explain " + sql):
                    _outcome(lambda: db.execute(text, params))
            valid = [sql for sql, params in statements
                     if _outcome(lambda: db.execute(sql, params))[0] == "rows"]
            assert set(front_end_calls) <= {"check"}, label
            # (an invalid statement is never bound: it is re-checked, and
            # re-raises, on each of its three calls above)
            assert len(front_end_calls) == 3 * (len(statements) - len(valid))
        # the matrix did invalidate: both late changes broke a statement
        assert len(valid) == len(statements) - 2

    def test_planner_modes_never_share_a_plan(self, db):
        sql = ("select ns.structureName from neuralStructure ns,"
               " atlasStructure s where s.structureId = ns.structureId"
               " and voxelCount(intersection(s.region, ?)) > 0")
        params = [_box_payload((2, 2, 2), (9, 9, 9))]
        cost = db.execute(sql, params)
        naive = db.execute(sql, params, planner="naive")
        assert sorted(cost.rows) == sorted(naive.rows)
        plans = db.prepare(sql)[0].bound.plans
        assert sorted(mode for _, _, mode in plans) == ["cost", "naive"]
        assert all(plan.mode == mode for (_, _, mode), plan in plans.items())
        by_mode = {mode: plan for (_, _, mode), plan in plans.items()}
        assert any(by_mode["cost"].spatial_probes)
        assert not any(by_mode["naive"].spatial_probes)
        # and warm EXPLAIN answers per mode from the same table
        assert "via spatial(region)" in _explain(db, sql, params)
        assert "via spatial(" not in "\n".join(_plan_text(
            db, "explain " + sql, params, "naive"))

    def test_correlated_block_is_planned_once_not_per_outer_row(
            self, db, monkeypatch):
        import repro.db.executor

        sql = ("select s.structureId from atlasStructure s where exists"
               " (select 1 from neuralStructure ns"
               " where ns.structureId = s.structureId and ns.structureName <> ?)")
        outer_rows = db.execute("select count(*) from atlasStructure").scalar()
        assert outer_rows > 2
        oracle = db.execute(_cold(sql), ["x"], planner="naive").rows
        planned = []
        original = repro.db.executor.plan_select

        def counting(select, *args, **kwargs):
            planned.append(select)
            return original(select, *args, **kwargs)

        monkeypatch.setattr(repro.db.executor, "plan_select", counting)
        block = db.prepare(sql)[0].ast.where.subquery
        cold = db.execute(sql, ["x"])
        # the block's plan — not one per outer row — plus the outer
        # block's own plan
        assert sum(select is block for select in planned) == 1
        assert len(planned) == 2
        del planned[:]
        warm = db.execute(sql, ["x"])
        assert planned == []
        assert sorted(cold.rows) == sorted(warm.rows) == sorted(oracle)
        assert len(cold.rows) == outer_rows


# --------------------------------------------------------------------- #
# compiled plans: built once, run against other data, parameters, registries
# --------------------------------------------------------------------- #


class TestCompiledPlans:
    @pytest.fixture()
    def db(self):
        return _demo().db

    @pytest.fixture()
    def compilations(self, monkeypatch):
        """Every expression compiler built (one per block or DML statement)."""
        import repro.db.executor

        built = []
        original = repro.db.executor._Compiler.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(repro.db.executor._Compiler, "__init__", counting)
        return built

    def test_warm_statement_compiles_nothing_and_ad_hoc_text_does(
            self, db, catalog_values, compilations):
        rng = random.Random(19940_019)
        statements = [generate_query(rng, catalog_values) for _ in range(24)]
        # DML is kept like a SELECT, for as long as its table's stamp holds
        # (this UPDATE touches no row; an INSERT or DELETE moves the stamp)
        statements.append(
            ("update studyNote set note = note where studyId = ?", [-1]))
        for sql, params in statements:
            db.execute(sql, params)
        assert len(compilations) >= len(statements)
        del compilations[:]
        for sql, params in statements:
            db.execute(sql, params)
            db.execute(sql, params, planner="cost")
        assert compilations == []
        db.execute(statements[0][0].replace("?", "null"))  # bare text: ad hoc
        assert len(compilations) >= 1
        del compilations[:]
        db.executemany("insert into studyNote values (?, ?, upper(?))",
                       [[None, 7, f"n{i}"] for i in range(5)])
        assert len(compilations) == 1, "one compile for the whole batch"
        assert db.execute("select count(*) from studyNote where note = ?",
                          ["N4"]).scalar() == 1

    def test_dml_between_two_executions_of_one_prepared(
            self, db, catalog_values):
        """The kept plan is dropped with its stamp: rows stay the naive
        plan's, on the new data, and page I/O never exceeds it."""
        rng = random.Random(19940_119)
        changes = [
            ("insert into studyNote values (?, ?, ?)",
             [catalog_values["study_ids"][1], 1, "late"]),
            ("update studyNote set studyId = ? where note = ?",
             [catalog_values["study_ids"][0], "e"]),
            ("delete from studyNote where patientId = ?", [2]),
            ("update rawVolume set modality = ? where studyId = ?",
             ["CT", catalog_values["study_ids"][0]]),
        ]
        for ordinal in range(60):
            sql, params = generate_query(rng, catalog_values)
            prepared = db.prepare(sql)[0]
            before = assert_plans_equivalent(db, prepared, params, f"#{ordinal}")
            change = changes[ordinal % len(changes)]
            db.execute(*change)
            after = assert_plans_equivalent(
                db, prepared, params, f"#{ordinal} after {change[0]}")
            assert before.columns == after.columns

    def test_plan_kept_before_a_registry_patch_calls_the_patched_method(
            self, db, monkeypatch):
        """What the ledger's tracer does: it replaces
        ``FunctionRegistry.call`` in the class dict after statements ran."""
        from repro.db.functions import FunctionRegistry

        sql = ("select upper(p.name) from patient p"
               " where length(p.name) > ? order by p.patientId")
        first = db.execute(sql, [0])
        seen = []
        original = FunctionRegistry.call

        def traced(self, name, args, ctx):
            seen.append(name)
            return original(self, name, args, ctx)

        monkeypatch.setattr(FunctionRegistry, "call", traced)
        again = db.execute(sql, [0])
        assert again.rows == first.rows and len(first.rows) > 1
        assert seen.count("upper") == seen.count("length") == len(first.rows)
        assert again.work.udf_calls == len(seen)

    def test_kept_plan_runs_against_the_registry_it_is_given(self, db):
        from repro.db.functions import FunctionRegistry

        sql = "select shout(p.name) from patient p where p.patientId = ?"
        db.register_function("shout", lambda s: s.upper())
        name = db.execute("select name from patient where patientId = 1").scalar()
        assert db.execute(sql, [1]).scalar() == name.upper()

        class Chained(FunctionRegistry):
            """A session-style registry: same stamp, its own ``shout``."""

            def __init__(self, parent):
                super().__init__()
                self.parent = parent
                self.calls = []

            def signature(self, key):
                return self.parent.signature(key)

            def __contains__(self, key):
                return key in self.parent

            def stamp(self, funcs):
                return self.parent.stamp(funcs)

            def call(self, key, args, ctx):
                self.calls.append(key)
                return "other:" + args[0]

        other = Chained(db.functions)
        bound = db.prepare(sql)[0].bound
        assert db.execute(sql, [1], functions=other).scalar() == "other:" + name
        assert other.calls == ["shout"]
        assert db.prepare(sql)[0].bound is bound, "ran on the kept plan"
        assert db.execute(sql, [1]).scalar() == name.upper()

    def test_kept_closures_capture_no_run_time_state(self, db, catalog_values):
        """A kept program is run against other snapshots, parameters and
        registries: nothing reachable from it may be one of them."""
        import types

        from repro.db.catalog import Catalog
        from repro.db.database import Database
        from repro.db.executor import Executor
        from repro.db.functions import ExecutionContext, FunctionRegistry
        from repro.db.table import Table

        rng = random.Random(19940_219)
        statements = [generate_query(rng, catalog_values) for _ in range(30)]
        statements += _HANDWRITTEN[3:]
        statements.append(("select r.modality, count(*) from rawVolume r"
                           " group by r.modality having count(*) > ?"
                           " order by r.modality", [0]))
        forbidden = (Table, Catalog, Database, Executor, ExecutionContext,
                     FunctionRegistry)
        functions = 0
        for sql, params in statements:
            db.execute(sql, params)
            marker = params and params[0]
            stack = [plan.program for plan in db.prepare(sql)[0].bound.plans.values()
                     if not isinstance(plan, str)]
            seen = set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                assert not isinstance(node, forbidden), (sql, node)
                assert node is not params and (
                    not isinstance(marker, bytes) or node is not marker), sql
                if isinstance(node, types.FunctionType):
                    functions += 1
                    stack.extend(cell.cell_contents
                                 for cell in node.__closure__ or ())
                    stack.extend(node.__defaults__ or ())
                elif isinstance(node, (tuple, list)):
                    stack.extend(node)
                elif hasattr(node, "__dataclass_fields__"):
                    stack.extend(vars(node).values())
        assert functions > 300
