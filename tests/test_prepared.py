"""``Prepared``: one statement object, every syntactic fact derived once.

The expected values below were computed at PR 12 with the three walkers
this type replaced (``resultcache.referenced_tables``,
``server._called_functions``, ``unparse``) and are hard-coded so those
walkers need not survive as oracles.
"""

from __future__ import annotations

import random

import pytest

from repro.db.sql import Prepared, parse
from tests.test_plan_equivalence import generate_query


def prepared(sql: str) -> Prepared:
    return Prepared(sql, parse(sql))


#: (sql, tables, funcs, subquery tables, canonical text)
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


@pytest.mark.parametrize("sql, tables, funcs, nested, canonical", CASES)
def test_facts_of_handwritten_statements(sql, tables, funcs, nested,
                                         canonical):
    stmt = prepared(sql)
    assert stmt.tables == tables
    assert stmt.funcs == funcs
    assert stmt.subquery_tables == nested
    assert stmt.canonical == canonical


#: what the plan-equivalence generator's six query shapes name
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
        assert not stmt.subquery_tables
        # canonical is a fixed point of parse . unparse
        assert parse(stmt.canonical) == stmt.ast
        assert prepared(stmt.canonical).canonical == stmt.canonical
        assert stmt.shape == stmt.canonical.replace("> 0)", "> ?)")
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
    assert one.canonical != two.canonical
    assert one.shape == two.shape == "SELECT v FROM T WHERE ((s = ?) AND (n = ?))"
    assert one.digest == two.digest
