"""Served-leg differential: a statement answers alike however it is run.

Every statement of the plan-equivalence corpus — the generator's
statements at its first batch seed, plus ``_HANDWRITTEN`` — runs on one
demo database through each leg:

* **direct** — ``Database.execute(sql, params)``;
* **served** — a ``QueryServer`` session with the result cache off;
* **cached** — a session with the result cache on, sized to hold the
  whole corpus, twice: a miss that fills the entry (unless an earlier
  statement did), then a hit answered from it;
* **reformatted** — ``unparse(parse(sql))`` through the cached session,
  twice: another text of the same statement is an entry of its own, so
  again a miss, then a hit.

Every leg must give the same column names and the same rows in the same
order (one database, one planner, one plan), or die with the same
``QBxxx`` code.
"""

from __future__ import annotations

import random

import pytest

from repro.db.sql import parse, unparse
from repro.errors import ReproError
from repro.server import QueryServer, ResultCache
from tests.conftest import executemany
from tests.test_plan_equivalence import (  # noqa: F401 - fixtures
    _BATCH_SEEDS,
    _HANDWRITTEN,
    catalog_values,
    generate_query,
    system,
)

GENERATED = 500


@pytest.fixture(scope="module")
def corpus(system, catalog_values):
    """The demo database with ``_HANDWRITTEN``'s table and function, and
    every ``(sql, params)`` to run on it."""
    db = system.db
    db.execute("create table notes (k integer, v text)")
    executemany(db, "insert into notes values (?, ?)", [[1, "a"], [2, "b"]])
    db.register_function("warmfn", lambda age: age + 1)
    rng = random.Random(_BATCH_SEEDS[0])
    generated = [generate_query(rng, catalog_values) for _ in range(GENERATED)]
    return db, generated + list(_HANDWRITTEN)


def _outcome(run):
    """Column names and rows, or the diagnostic code the statement dies with."""
    try:
        result = run()
    except ReproError as exc:
        return "error", getattr(exc, "code", type(exc).__name__)
    return list(result.columns), list(result.rows)


def test_every_leg_answers_as_the_direct_one(corpus):
    db, statements = corpus
    failures, answered = [], 0
    with QueryServer(db, workers=1, result_cache=False) as uncached_server, \
            QueryServer(db, workers=1) as cached_server:
        # nothing is evicted or turned away: an entry stays for the run, and
        # a later statement of the same text with other params must miss it
        cached_server.cache = ResultCache(capacity=4 * len(statements))
        uncached, cached = uncached_server.connect(), cached_server.connect()
        for n, (sql, params) in enumerate(statements):
            reformatted = unparse(parse(sql))
            assert reformatted != sql, sql  # a second text, a second entry
            direct = _outcome(lambda: db.execute(sql, params))
            legs = {
                "served": _outcome(lambda: uncached.execute(sql, params)),
                "cached miss": _outcome(lambda: cached.execute(sql, params)),
                "cached hit": _outcome(lambda: cached.execute(sql, params)),
                "reformatted miss": _outcome(
                    lambda: cached.execute(reformatted, params)),
                "reformatted hit": _outcome(
                    lambda: cached.execute(reformatted, params)),
            }
            failures += [(n, leg, sql) for leg, got in legs.items()
                         if got != direct]
            answered += direct[0] != "error"
    assert failures == []
    # the hit legs were hits: one per text of each answered statement
    cache = cached_server.cache
    assert cache.hits + cache.misses == 4 * len(statements)
    assert cache.hits >= 2 * answered > len(statements)
