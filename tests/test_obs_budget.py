"""What a statement's telemetry may do, counted, not timed.

One direct ad hoc statement, one served cache hit and one served miss run
in a child process under ``benchmarks/obs_cost.py``'s counters: phase
switches, counter increments, lock acquisitions (every lock made through
``threading.Lock``/``RLock`` after the counters are installed, so the
child installs them before importing ``repro``) and AST unparses.  Each
count is pinned as a ceiling at what the batched telemetry with bound
counters costs.  The unbatched recorder with by-name counters, a lock
per increment and an unparse per ad hoc shape exceeded every ceiling but
the served cases' unparses, which were 0 already: direct 11 switches / 5
increments / 11 locks / 1 unparse, hit 3 / 9 / 20 / 0, miss 7 / 12 / 27 / 0.

A served hit is answered from its text before the statement memo (no memo
lock, no memo counter), the session takes its state lock once per
statement, and a free slot's 0 s wait goes to a per-thread cell, not
under the wait histogram's lock: the hit ceilings are at those counts,
where the previous server made 2 / 5 / 8 / 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
sys.path[:0] = ["benchmarks", "src"]
import obs_cost
obs_cost._count_locks()
from repro.db import Database
from repro.server import QueryServer

db = Database()
db.execute("create table lookup (k integer, v integer)")
for k in range(20):
    db.execute("insert into lookup values (?, ?)", [k, k * k])
server = QueryServer(db, workers=2)
session = server.connect()
sql = "select v from lookup where k = 7"
for _ in range(2):  # memoized, then cached
    session.execute(sql)
print(json.dumps(obs_cost.counts(db, [sql], server, session)))
server.close()
"""

#: ceilings per statement: (switches, counter increments, locks, unparses)
CEILINGS = {
    "direct": (9, 4, 3, 0),
    "hit": (2, 4, 5, 0),
    "miss": (6, 8, 12, 0),
}


@pytest.fixture(scope="module")
def counts() -> dict:
    child = subprocess.run([sys.executable, "-c", _CHILD], cwd=ROOT,
                           capture_output=True, text=True, timeout=120,
                           check=True)
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CEILINGS))
@pytest.mark.parametrize("what", ["switches", "counter_incs",
                                  "lock_acquisitions", "unparses"])
def test_per_statement_count_stays_under_its_ceiling(counts, case, what):
    ceiling = dict(zip(("switches", "counter_incs", "lock_acquisitions",
                        "unparses"), CEILINGS[case]))[what]
    assert counts[case][what] <= ceiling, counts[case]
