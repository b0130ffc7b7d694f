"""What each statement of the SQL test corpora comes to, as JSON lines.

An *outcome* is a statement's rows (order-free: their count and a SHA-256
of their sorted reprs; the count alone for EXPLAIN ANALYZE, whose rows
carry timings) or the error it dies with (class and ``QBxxx`` code).
The statements come from this checkout's tests:

* ``generated`` — ``tests/test_plan_equivalence.py``'s generator, 500
  statements from one seed, against its demo database;
* ``handwritten`` — that file's ``_HANDWRITTEN`` statements, against the
  same database with its ``notes`` table and ``warmfn`` function;
* ``edge`` — nested correlation two blocks deep, ORDER BY over a name of
  two output columns, an index probe next to a second constant, and
  ``select *`` over a join the cost planner reorders, over small tables
  (also the rows each examined);
* ``fuzz_seed`` — ``tests/test_sql_fuzz.py``'s well-formed seed
  statements, each against a fresh database with tables ``t`` and ``u``.

Each runs under both planner modes.  Run::

    python3 benchmarks/statement_outcomes.py [--root TREE] > outcomes.jsonl

``--root`` is the checkout whose ``src`` runs the statements (default:
this one), so two checkouts' files compare line for line with ``diff``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

EDGE = [
    ("select a from t where exists (select 1 from u where exists"
     " (select 1 from u u2 where u2.k = t.a))", []),
    ("select a from t where a in (select k from u where k in"
     " (select k from u u2 where u2.v = t.b))", []),
    ("select (select count(*) from u where exists"
     " (select 1 from u u2 where u2.k = t.a)) from t", []),
    ("select a as x, b as x from t order by x", []),
    ("select a, a from t order by a", []),
    ("select a from t where a = ? and b = ?", [3, 1]),
    ("select * from t, u where u.k = 1 and t.a = u.v", []),
]


def outcome(db, sql, params, planner, scanned=False) -> dict:
    from repro.errors import ReproError

    try:
        result = db.execute(sql, params, planner=planner)
    except ReproError as exc:
        return {"error": type(exc).__name__, "code": getattr(exc, "code", None)}
    rows = sorted(repr(row) for row in result.rows)
    found = {"rows": len(rows)}
    if not sql.startswith("explain analyze"):  # its rows carry timings
        found["sha"] = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    if scanned:
        found["rows_scanned"] = result.work.rows_scanned
    return found


def statements():
    """``(source, make_db, sql, params, scanned)`` for every statement."""
    import test_plan_equivalence as equivalence
    import test_sql_fuzz as fuzz
    from tests.conftest import executemany
    from repro.db import Database

    system = equivalence._demo()
    db = system.db
    db.execute("create table notes (k integer, v text)")
    executemany(db, "insert into notes values (?, ?)", [[1, "a"], [2, "b"]])
    db.register_function("warmfn", lambda age: age + 1)
    values = equivalence.catalog_values.__wrapped__(system)
    rng = random.Random(equivalence._BATCH_SEEDS[0])
    for _ in range(500):
        sql, params = equivalence.generate_query(rng, values)
        yield "generated", lambda: db, sql, params, False
    for sql, params in equivalence._HANDWRITTEN:
        yield "handwritten", lambda: db, sql, params, False

    edge = Database()
    edge.execute("create table t (a integer, b integer)")
    edge.execute("create table u (k integer, v integer)")
    executemany(edge, "insert into t values (?, ?)", [[k % 7, k % 4] for k in range(30)])
    executemany(edge, "insert into u values (?, ?)", [[k % 5, k % 3] for k in range(12)])
    edge.execute("create index ia on t (a)")
    for sql, params in EDGE:
        yield "edge", lambda: edge, sql, params, True

    def fresh():
        fresh = Database()
        fresh.execute("create table t (a integer, b integer, c integer)")
        fresh.execute("create table u (b integer)")
        executemany(fresh, "insert into t values (?, ?, ?)", [[1, 2, None], [2, None, 3]])
        fresh.execute("insert into u values (2)")
        return fresh
    for sql in fuzz._STATEMENTS:
        yield "fuzz_seed", fresh, sql, [1], False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(HERE))
    args = parser.parse_args(argv)
    sys.path[:0] = [f"{args.root}/src", str(HERE / "tests"), str(HERE)]
    ordinals: dict[str, int] = {}
    for source, make_db, sql, params, scanned in statements():
        ordinal = ordinals[source] = ordinals.get(source, -1) + 1
        for planner in ("cost", "naive"):
            print(json.dumps({"source": source, "n": ordinal, "planner": planner,
                              "sql": sql, **outcome(make_db(), sql, params,
                                                    planner, scanned)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
