"""``Prepared``: one statement object, every syntactic fact derived once.

The expected values below were computed at PR 12 with the three walkers
this type replaced (``resultcache.referenced_tables``,
``server._called_functions``, ``unparse``) and are hard-coded so those
walkers need not survive as oracles.
"""

from __future__ import annotations

import random
import re
from collections import OrderedDict

import pytest

from repro.db.database import _STMT_MEMO_CAPACITY as CAPACITY
from repro.db.sql import Prepared, parse, unparse
from tests.test_plan_equivalence import generate_query
from tests.conftest import executemany, explain


def prepared(sql: str) -> Prepared:
    return Prepared(sql, parse(sql))


#: (sql, tables, funcs, subquery tables, unparsed text)
CASES = [
    ("select count(*) from patient where patientId in "
     "(select patientId from rawVolume where studyId between 1 and 4)",
     {"patient", "rawvolume"}, {"count"}, {"rawvolume"},
     "SELECT count(*) FROM patient WHERE (patientId IN (SELECT patientId "
     "FROM rawVolume WHERE ((studyId >= 1) AND (studyId <= 4))))"),
    ("select s.structureId from atlasStructure s where exists (select "
     "studyId from warpedVolume w where w.studyId = 2) and not exists "
     "(select 1 from Patient)",
     {"atlasstructure", "patient", "warpedvolume"}, set(),
     {"patient", "warpedvolume"},
     "SELECT s.structureId FROM atlasStructure AS s WHERE (EXISTS (SELECT "
     "studyId FROM warpedVolume AS w WHERE (w.studyId = 2)) AND (NOT EXISTS "
     "(SELECT 1 FROM Patient)))"),
    ("select (select max(age) from patient), structureName from "
     "neuralStructure order by lower(structureName) limit 3",
     {"neuralstructure", "patient"}, {"lower", "max"}, {"patient"},
     "SELECT (SELECT max(age) FROM patient), structureName FROM "
     "neuralStructure ORDER BY lower(structureName) ASC LIMIT 3"),
    ("select  modality, COUNT(*) from rawVolume group by modality "
     "having count(*) > 1",
     {"rawvolume"}, {"count"}, set(),
     "SELECT modality, COUNT(*) FROM rawVolume GROUP BY modality HAVING "
     "(count(*) > 1)"),
    ("delete from t where k = (select min(k) from u) or k is null",
     {"t", "u"}, {"__is_null", "min"}, {"u"},
     "DELETE FROM t WHERE ((k = (SELECT min(k) FROM u)) OR (k IS NULL))"),
    ("explain select a from t where f(a) is null",
     {"t"}, {"__is_null", "f"}, set(),
     "EXPLAIN SELECT a FROM t WHERE (f(a) IS NULL)"),
    ("explain analyze select count(*) from t, u where t.k = u.k",
     {"t", "u"}, {"count"}, set(),
     "EXPLAIN ANALYZE SELECT count(*) FROM t, u WHERE (t.k = u.k)"),
    ("create table T (a integer, b longfield)", {"t"}, set(), set(),
     "CREATE TABLE T (a integer, b longfield)"),
    ("drop table T", {"t"}, set(), set(), "DROP TABLE T"),
    ("create index i on T (a)", {"t"}, set(), set(),
     "CREATE INDEX i ON T (a)"),
    ("drop index i", set(), set(), set(), "DROP INDEX i"),
    ("create spatial index si on atlasStructure (region)",
     {"atlasstructure"}, set(), set(),
     "CREATE SPATIAL INDEX si ON atlasStructure (region)"),
    ("analyze", set(), set(), set(), "ANALYZE"),
    ("analyze rawVolume", {"rawvolume"}, set(), set(), "ANALYZE rawVolume"),
    # The old function walker never looked inside INSERT's VALUES rows or
    # UPDATE's SET list (nested tuples); the shared one does.  Only reads
    # consult ``funcs``, so the extra names change no behaviour.
    ("insert into blobs values (1, (select max(k) from kv), ?)",
     {"blobs", "kv"}, {"max"}, {"kv"},
     "INSERT INTO blobs VALUES (1, (SELECT max(k) FROM kv), ?)"),
    ("insert into blobs (k, v) values (2, upper('x'))",
     {"blobs"}, {"upper"}, set(),
     "INSERT INTO blobs (k, v) VALUES (2, upper('x'))"),
    ("update t set a = upper(b) where k in (select k from u)",
     {"t", "u"}, {"upper"}, {"u"},
     "UPDATE t SET a = upper(b) WHERE (k IN (SELECT k FROM u))"),
]


@pytest.mark.parametrize("sql, tables, funcs, nested, unparsed", CASES)
def test_facts_of_handwritten_statements(sql, tables, funcs, nested,
                                         unparsed):
    stmt = prepared(sql)
    assert stmt.tables == tables
    assert stmt.funcs == funcs
    assert stmt.subquery_tables == nested
    assert unparse(stmt.ast) == unparsed


#: what the plan-equivalence generator's ten query shapes name
GENERATED_FACTS = {
    (frozenset({"patient", "rawvolume"}), frozenset()),
    (frozenset({"intensityband", "rawvolume"}), frozenset()),
    (frozenset({"atlasstructure", "neuralstructure"}),
     frozenset({"voxelcount", "intersection"})),
    (frozenset({"intensityband"}),
     frozenset({"voxelcount", "intersection"})),
    (frozenset({"intensityband", "rawvolume"}), frozenset({"count"})),
    (frozenset({"warpedvolume", "atlasstructure", "neuralstructure"}),
     frozenset()),
    # the transitive-equality shapes
    (frozenset({"warpedvolume", "intensityband"}), frozenset()),
    (frozenset({"warpedvolume", "intensityband", "atlasstructure",
                "neuralstructure"}), frozenset()),
    (frozenset({"studynote", "rawvolume", "warpedvolume"}), frozenset()),
    (frozenset({"rawvolume", "intensityband"}), frozenset({"count", "min"})),
    (frozenset({"patient", "rawvolume", "studynote"}), frozenset()),
}

#: stand-in for the generator's catalog-derived values: only the literals
#: it binds as parameters come from here, never the statement text
_VALUES = {
    "study_ids": [1, 2], "structures": ["ntal"], "ages": [40],
    "bands": [(0, 31, "hilbert-naive")], "encodings": ["hilbert-naive"],
    "lows": [0], "atlas_id": 1, "modalities": ["PET", "MRI"],
}


def test_facts_of_generated_statements():
    rng = random.Random(19940_000)
    seen = set()
    for _ in range(200):
        sql, _params = generate_query(rng, _VALUES)
        stmt = prepared(sql)
        seen.add((stmt.tables, stmt.funcs))
        assert stmt.subquery_tables == (
            {"rawvolume", "studynote"} if "exists" in sql else set())
        # the unparsed text is a fixed point of parse . unparse
        unparsed = unparse(stmt.ast)
        assert parse(unparsed) == stmt.ast
        assert unparse(prepared(unparsed).ast) == unparsed
        assert stmt.shape == re.sub(
            r"(?<![\w.])\d+(?![\w.])", "?", unparsed)
    assert seen == GENERATED_FACTS


@pytest.mark.parametrize("sql, kind", [
    ("select 1 from t", "read"),
    ("explain select 1 from t", "explain"),
    ("explain analyze select 1 from t", "explain"),
    ("insert into t values (1)", "write"),
    ("analyze", "write"),
    ("drop index i", "write"),
])
def test_kind_and_read_classification(sql, kind):
    stmt = prepared(sql)
    assert stmt.kind == kind
    assert stmt.is_read == (kind != "write")
    assert stmt.is_explain == (kind == "explain")


def test_formatting_differences_share_canonical_shape_and_digest():
    one = prepared("select  v from T where s='a'  and n = 1")
    two = prepared("SELECT v FROM T WHERE s = 'b' AND n = 2")
    assert unparse(one.ast) != unparse(two.ast)
    assert one.shape == two.shape == "SELECT v FROM T WHERE ((s = ?) AND (n = ?))"
    assert one.digest == two.digest


# --------------------------------------------------------------------- #
# the bound half: Database.prepare's memo and the stamp on Prepared.bound
# --------------------------------------------------------------------- #


@pytest.fixture()
def kv_db():
    from repro.db.database import Database

    db = Database()
    db.execute("create table kv (k integer, v integer)")
    executemany(db, "insert into kv values (?, ?)", [[k, k * k] for k in range(6)])
    return db


SUM_SQL = "select sum(v) from kv where k >= ?"


def test_stamp_hit_keeps_the_bound_slot_and_a_write_replaces_it(kv_db):
    stmt, hit = kv_db.prepare(SUM_SQL)
    assert not hit and kv_db.prepare(SUM_SQL) == (stmt, True)
    assert stmt.bound is None
    assert kv_db.execute(SUM_SQL, [4]).scalar() == 41
    bound = stmt.bound
    assert len(bound.plans) == 1
    assert kv_db.execute(SUM_SQL, [5]).scalar() == 25
    assert explain(kv_db, SUM_SQL)
    assert stmt.bound is bound, "same stamp: nothing re-bound or re-planned"
    kv_db.execute("insert into kv values (6, 36)")
    assert kv_db.execute(SUM_SQL, [5]).scalar() == 61
    assert stmt.bound is not bound and stmt.bound.stamp != bound.stamp
    # what an older reader holds is untouched: never edited in place
    assert len(bound.plans) == 1


def test_reader_pinned_to_an_older_version_rebinds_to_its_own_stamp(kv_db):
    stmt, _ = kv_db.prepare(SUM_SQL)
    with kv_db.read_view() as old:
        kv_db.execute("insert into kv values (6, 36)")
        assert kv_db.execute(SUM_SQL, [0]).scalar() == 91
        latest = stmt.bound
        assert kv_db.execute(SUM_SQL, [0], view=old).scalar() == 55
        assert stmt.bound.stamp != latest.stamp
    assert kv_db.execute(SUM_SQL, [0]).scalar() == 91
    assert stmt.bound.stamp == latest.stamp


def test_bare_text_is_ad_hoc_and_leaves_the_memo_alone(kv_db):
    kv_db.execute(SUM_SQL, [0])
    held = list(kv_db._prepared)
    for k in range(3):
        assert kv_db.execute(f"select v from kv where k = {k}").scalar() == k * k
    assert kv_db.execute(SUM_SQL.replace("?", "4")).scalar() == 41
    assert list(kv_db._prepared) == held
    # an empty parameter list still says "template"
    kv_db.execute("select count(*) from kv", [])
    assert list(kv_db._prepared) == held + ["select count(*) from kv"]


def _text(i: int) -> str:
    return f"select v from kv where k = {i}"


def test_memo_admits_what_repeats_and_evicts_least_recently_used(kv_db):
    held = len(kv_db._prepared)  # the fixture's insert template, seen once
    (first, _), (second, _) = kv_db.prepare(_text(0)), kv_db.prepare(_text(1))
    for i in range(2, CAPACITY - held):
        kv_db.execute(_text(i), [])
    assert kv_db.prepare(_text(0)) == (first, True)  # full, nothing evicted yet
    assert len(kv_db._prepared) == CAPACITY
    # Seen once, like the LRU entry: a tie, so it is turned away ...
    once, hit = kv_db.prepare(_text(CAPACITY))
    assert not hit and once.ad_hoc and _text(CAPACITY) not in kv_db._prepared
    # ... and admitted the second time, evicting the LRU: the insert,
    kept, hit = kv_db.prepare(_text(CAPACITY))
    assert not hit and not kept.ad_hoc and kept is not once
    assert "insert into kv values (?, ?)" not in kv_db._prepared
    kv_db.prepare(_text(CAPACITY + 1))  # then text(1)
    kv_db.prepare(_text(CAPACITY + 1))
    assert kv_db.prepare(_text(0)) == (first, True)
    assert kv_db.prepare(_text(CAPACITY)) == (kept, True)
    stale, hit = kv_db.prepare(_text(1))
    assert not hit and stale is not second
    assert len(kv_db._prepared) == CAPACITY


def _lru_hits(keys, capacity: int) -> int:
    """Hits of a plain LRU map (admit every miss) on ``keys``."""
    held, hits = OrderedDict(), 0
    for key in keys:
        if key in held:
            held.move_to_end(key)
            hits += 1
        else:
            held[key] = None
            if len(held) > capacity:
                held.popitem(last=False)
    return hits


def _zipf_stream(n: int, draws: int, seed: int) -> list[int]:
    """Seeded Zipf(1) draws over ``n`` ranks."""
    weights = [1 / (rank + 1) for rank in range(n)]
    return random.Random(seed).choices(range(n), weights=weights, k=draws)


def _fill_memo(db, times: int) -> None:
    """Fill ``db``'s memo with texts each prepared ``times`` times: a new
    text is turned away until it has been prepared more often than that."""
    for _ in range(times):
        for i in range(CAPACITY):
            db.prepare(f"select v from kv where k = {10_000 + i}")


class TestMemoAdmission:
    """The memo's admission rule on key streams: counts, nothing timed."""

    def test_a_cyclic_scan_keeps_a_stable_resident_set(self, kv_db):
        n = CAPACITY * 5 // 2
        texts = [_text(i) for i in range(n)]
        assert _lru_hits(texts * 6, CAPACITY) == 0  # LRU: every text evicted
        residents, hits = [], 0
        for _ in range(6):
            hits = sum(kv_db.prepare(text)[1] for text in texts)
            residents.append(set(kv_db._prepared))
        assert residents[1] == residents[-1]
        assert hits / n >= 0.5 * CAPACITY / n

    def test_a_zipf_stream_hits_no_less_than_lru(self, kv_db):
        stream = [_text(i) for i in _zipf_stream(CAPACITY * 5 // 2, 12_000, 1994)]
        hits = sum(kv_db.prepare(text)[1] for text in stream)
        assert hits >= _lru_hits(stream, CAPACITY)

    def test_a_tie_is_not_admitted(self, kv_db):
        _fill_memo(kv_db, times=1)
        held = list(kv_db._prepared)
        prepared, hit = kv_db.prepare(_text(-1))  # seen once, as the LRU was
        assert not hit and prepared.ad_hoc
        assert list(kv_db._prepared) == held

    def test_the_counts_stay_bounded(self, kv_db):
        most = 0
        for i in range(100 * CAPACITY):
            kv_db.prepare(f"select {i} from kv")
            most = max(most, len(kv_db._stmt_admission._counts))
        assert most <= 20 * CAPACITY


def test_a_text_the_memo_turns_away_is_never_bound(kv_db, monkeypatch):
    """Through execute, a batch and EXPLAIN it is checked on every call
    and keeps no stamp, no plans and no bound slot."""
    from repro.db import database

    _fill_memo(kv_db, times=4)
    held = list(kv_db._prepared)
    checks = _counted(monkeypatch, database, "check")
    prepared, hit = kv_db.prepare(SUM_SQL)
    assert not hit and prepared.ad_hoc
    assert kv_db.execute(prepared, [3]).scalar() == 50
    assert kv_db.execute(SUM_SQL, [4]).scalar() == 41
    assert "kv" in explain(kv_db, SUM_SQL)
    executemany(kv_db, "update kv set v = v where k = ?", [[1], [2]])
    assert prepared.bound is None
    assert list(kv_db._prepared) == held
    assert len(checks) == 5  # nothing was kept to skip a check with


def test_statement_calling_a_session_local_udf_is_never_bound(kv_db):
    from repro.server import QueryServer

    sql = "select mine(v) from kv where k = 3"
    with QueryServer(kv_db, workers=1, result_cache=False) as server:
        with server.connect() as one, server.connect() as two:
            one.register_function("mine", lambda v: v + 1)
            two.register_function("mine", lambda v, w=0: -v)
            for _ in range(2):
                assert one.execute(sql).scalar() == 10
                assert two.execute(sql).scalar() == -9
            assert kv_db.prepare(sql)[0].bound is None
            # a shared-registry statement from the same sessions is bound
            one.execute(SUM_SQL, [0])
            assert kv_db.prepare(SUM_SQL)[0].bound is not None


INSERT_SQL = "insert into kv values (?, abs(?))"


def _counted(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` with a wrapper that logs every call."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_values_insert_is_checked_and_compiled_once(kv_db, monkeypatch):
    """The rows an INSERT appends move its target's stamp; they must not
    unbind the INSERT itself, whose check and value program depend on the
    target's schema alone.  Counts, not timings."""
    from repro.db import database, executor
    from repro.db.sql.ast import Insert

    checks = _counted(monkeypatch, database, "check")
    compiles = _counted(monkeypatch, executor, "_Compiler")

    def work() -> tuple[int, int]:
        # an INSERT's values compile over the empty scope chain
        return (sum(isinstance(args[0], Insert) for args in checks),
                sum(args[0] == ((),) for args in compiles))

    for k in range(25):
        kv_db.execute(INSERT_SQL, [100 + k, -k])
    assert work() == (1, 1)
    stmt, _ = kv_db.prepare(INSERT_SQL)
    assert stmt.is_values_insert
    # ANALYZE and index DDL change what a *plan* is worth, not this statement
    kv_db.execute("analyze kv")
    kv_db.execute("create index kv_k on kv (k)")
    kv_db.execute(INSERT_SQL, [200, 1])
    assert work() == (1, 1)
    assert kv_db.execute("select sum(v) from kv where k >= 100", []).scalar() == 301
    # a new table under the old name is a new schema: checked again
    kv_db.execute("drop table kv")
    kv_db.execute("create table kv (k integer, v integer)")
    kv_db.execute(INSERT_SQL, [1, -1])
    assert work() == (2, 2)
    # so is a re-registered function the statement calls
    kv_db.register_function("abs", lambda x: 7, replace=True)
    kv_db.execute(INSERT_SQL, [2, -2])
    assert work() == (3, 3)
    assert kv_db.execute("select v from kv order by k").column("v") == [1, 7]


def test_an_insert_that_reads_a_table_keeps_the_full_stamp(kv_db, monkeypatch):
    from repro.db import database

    sql = "insert into kv values (?, (select max(v) from kv))"
    assert not kv_db.prepare(sql)[0].is_values_insert
    checks = _counted(monkeypatch, database, "check")
    for k in range(3):
        kv_db.execute(sql, [50 + k])
    assert len(checks) == 3  # each run moved the table the subquery reads


def _universe_sample(db) -> list[str]:
    """One statement of each shape the served workloads replay, over the
    ids stored in ``db``: single-table REGION functions, two- and
    three-table joins with a UDF over long fields, scalar filters,
    aggregates and an ORDER BY."""
    sid = min(db.execute("select structureId from atlasStructure").column(
        "structureId"))
    study, low = db.execute(
        "select studyId, low from intensityBand "
        "where encoding = 'hilbert-naive'").rows[0]
    return [
        f"select voxelCount(region) from atlasStructure where structureId = {sid}",
        f"select runCount(region) from intensityBand where studyId = {study} "
        f"and low = {low} and encoding = 'hilbert-naive'",
        f"select dataMean(extractVoxels(v.data, s.region)) "
        f"from warpedVolume v, atlasStructure s "
        f"where v.studyId = {study} and s.structureId = {sid}",
        f"select dataVoxels(extractVoxels(v.data, "
        f"intersection(s.region, b.region))) "
        f"from warpedVolume v, atlasStructure s, intensityBand b "
        f"where v.studyId = {study} and s.structureId = {sid} "
        f"and b.studyId = v.studyId and b.low = {low} "
        f"and b.encoding = 'hilbert-naive'",
        "select count(*) from patient where age >= 40",
        "select name, age from patient where age < 60 and sex = 'M'",
        "select studyId, depth from rawVolume where modality = 'PET' "
        "order by studyId",
        f"select p.name, rv.modality from patient p, rawVolume rv "
        f"where rv.patientId = p.patientId and rv.studyId = {study}",
    ]


def test_a_turned_away_text_answers_as_every_other_path(demo_system,
                                                        monkeypatch):
    from repro.db.admission import FrequencyAdmission
    from repro.server import QueryServer

    db = demo_system.db

    def fresh_memo(fill: int) -> None:
        monkeypatch.setattr(db, "_prepared", OrderedDict())
        monkeypatch.setattr(db, "_stmt_admission",
                            FrequencyAdmission(CAPACITY))
        _fill_memo(db, times=fill)

    def answer(result) -> tuple:
        return result.columns, result.rows

    texts = _universe_sample(db)
    fresh_memo(fill=0)
    admitted = [answer(db.execute(sql, [])) for sql in texts]
    assert all(db.prepare(sql)[0].bound is not None for sql in texts)
    naive = [answer(db.execute(sql, [], planner="naive")) for sql in texts]
    fresh_memo(fill=4)
    turned_away = []
    for sql in texts:
        prepared, hit = db.prepare(sql)
        assert not hit and prepared.ad_hoc
        turned_away.append(answer(db.execute(prepared, [])))
        assert prepared.bound is None
    served = {}
    for cache in (False, True):
        fresh_memo(fill=4)
        with QueryServer(db, workers=1, result_cache=cache) as server:
            with server.connect() as session:
                served[cache] = [answer(session.execute(sql))
                                 for sql in texts for _ in range(2)]
            if cache:  # the second run of each was a result-cache hit
                assert server.cache.hits == len(texts)
        assert not set(texts) & set(db._prepared)
    assert admitted == naive == turned_away
    twice = [one for one in admitted for _ in range(2)]
    assert served[False] == served[True] == twice
    assert all(rows for _, rows in admitted)
