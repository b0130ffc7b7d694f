"""One committed state: a failed write scope reinstates the published version.

The published :class:`~repro.db.mvcc.DatabaseVersion` is the database's
only committed state.  Every read pins it, and a write scope that fails —
an auto-commit statement, an ``executemany`` batch, or the outermost
``Database.transaction()`` — puts it back, on a write-ahead-logged device
and on a raw one alike.  Checked here: the three failures that motivated
the rule, by name, and one property — a seeded DML/DDL sequence that fails
anywhere leaves rows, index probes, statistics and the published version
as they were, never gives a table stamp to two different states, and
never has a reader take the database lock.  The same stream, reopened
from the data and journal images alone, gives back the committed state.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import GridSpec
from repro.db.database import Database
from repro.db.persist import fold_records, restore_catalog
from repro.db.stats import TableStats
from repro.errors import ReproError
from repro.regions.region import Region
from repro.storage import BlockDevice, LongFieldManager, WriteAheadLog
from tests.test_mvcc import rwlock_acquisitions
from tests.test_stats_properties import _assert_stats_equal

GRID = GridSpec((8, 8, 8))
WHOLE = ((0, 0, 0), (8, 8, 8))
CAPACITY = 4 << 20


def database(device: str) -> Database:
    """A database over a write-ahead log, a raw device, or no LFM."""
    if device == "none":
        return Database()
    data = BlockDevice(CAPACITY)
    if device == "wal":
        data = WriteAheadLog(data, BlockDevice(CAPACITY), recover=False)
    return Database(lfm=LongFieldManager(data))


def three_rows(device: str = "none") -> Database:
    db = database(device)
    db.execute("create table t (a integer, b integer)")
    db.execute("insert into t values (1, 1), (2, 2), (3, 3)")
    return db


def live_rows(db, table: str = "t") -> list:
    return sorted(tuple(row) for row in db.catalog.table(table).scan())


class TestMotivatingFailures:
    def test_failed_multi_row_insert_leaves_no_row(self):
        db = three_rows()
        with pytest.raises(ReproError, match="division by zero"):
            db.execute("insert into t values (4, 4), (5, 10 / (2 - 2))")
        with rwlock_acquisitions() as acquired:
            assert db.execute("select count(*) from t").scalar() == 3
            pinned = db.pin_version()
            assert pinned is not None
            db.unpin_version(pinned)
            assert acquired() == 0
        assert live_rows(db) == [(1, 1), (2, 2), (3, 3)]

    def test_failed_update_is_never_published(self):
        db = three_rows()
        with pytest.raises(ReproError, match="division by zero"):
            db.execute("update t set b = 10 / (a - 2)")
        assert db.execute("select b from t where a = 1").scalar() == 1
        # The next, unrelated write publishes what is live: row 1 as it was.
        db.execute("create table u (x integer)")
        db.execute("insert into u values (1)")
        assert sorted(db.execute("select a, b from t").rows) == [
            (1, 1), (2, 2), (3, 3)]
        assert live_rows(db) == [(1, 1), (2, 2), (3, 3)]

    @pytest.mark.parametrize("device", ["wal", "raw"])
    def test_rolled_back_update_and_delete_are_gone(self, device):
        db = three_rows(device)
        seq = db.version_seq
        with pytest.raises(RuntimeError, match="abort"):
            with db.transaction():
                db.execute("update t set b = b * 10")
                db.execute("delete from t where a = 2")
                raise RuntimeError("abort")
        assert db.version_seq == seq
        assert sorted(db.execute("select a, b from t").rows) == [
            (1, 1), (2, 2), (3, 3)]
        assert live_rows(db) == [(1, 1), (2, 2), (3, 3)]


# --------------------------------------------------------------------- #
# abort anywhere
# --------------------------------------------------------------------- #

#: a parameter a statement binds to a freshly stored REGION at run time
REGION = object()


def sequence(rng: random.Random, length: int) -> list[tuple]:
    """``(method, sql, params)`` statements over ``t`` and ``u``: DML that
    succeeds or fails part-way at run time, and DDL that may fail."""
    out = []
    for _ in range(length):
        k, j = rng.randrange(12), rng.randrange(12)
        out.append(rng.choice([
            ("execute", "insert into t values (?, ?, ?), (?, ?, ?)",
             [k, j, REGION, j, k, REGION]),
            ("execute", "insert into t values (?, ?, ?), (?, 10 / (? - ?), ?)",
             [k, j, REGION, j, k, k, REGION]),
            ("executemany", "insert into t values (?, 10 / ?, ?)",
             [[k, 1, REGION], [j, rng.randrange(2), REGION]]),
            ("execute", "update t set v = v + 1 where k < ?", [k]),
            ("execute", "update t set v = 10 / (k - ?)", [k]),
            ("execute", "delete from t where k = ?", [k]),
            ("execute", "create index ix on t (k)", []),
            ("execute", "create spatial index sx on t (region)", []),
            ("execute", "drop index ix", []),
            ("execute", "drop index sx", []),
            ("execute", "create table u (x integer)", []),
            ("execute", "insert into u values (?)", [k]),
            ("execute", "drop table u", []),
            ("execute", "analyze", []),
            ("execute", "analyze t", []),
        ]))
    return out


def run(db, statement, rng: random.Random) -> None:
    """One statement; every REGION parameter becomes a fresh long field."""
    method, sql, params = statement

    def bind(values):
        out = []
        for value in values:
            if value is REGION:
                lower = tuple(rng.randrange(7) for _ in range(3))
                upper = tuple(lo + rng.randrange(1, 8 - lo) for lo in lower)
                value = db.lfm.create(
                    Region.from_box(GRID, lower, upper).to_bytes("naive"))
            out.append(value)
        return out

    if method == "executemany":
        db.executemany(sql, [bind(row) for row in params])
    else:
        db.execute(sql, bind(params))


def image(db) -> dict:
    """What a failed write scope must leave as it found it: per live table
    its rows (a multiset), hash and spatial index probes and whether its
    statistics are fresh; and the index definitions."""
    catalog, out = db.catalog, {}
    for name in catalog.table_names():
        table = catalog.table(name)
        probes = {}
        for column in table.schema.columns:
            if table.has_index(column.name):
                position = table.schema.position(column.name)
                buckets = table.equal_buckets((position,))
                for value in {row[position] for row in table.scan()} | {-1}:
                    probes[column.name, value] = Counter(
                        map(tuple, buckets.get((value,), [])))
        spatial = {column: Counter(map(tuple, index.probe(*WHOLE)))
                   for column, index in table.spatial.items()
                   if index.probe_safe(table)}
        out[name] = (Counter(map(tuple, table.scan())), probes, spatial,
                     table.stats.fresh(table))
    out[None] = (catalog.index_names(), catalog.spatial_index_defs())
    return out


def published(db) -> dict:
    """Each table's rows in the pinned published version."""
    with db.read_view() as view:
        assert view.seq == db.version_seq
        return {name: Counter(map(tuple, view.catalog.table(name).scan()))
                for name in view.catalog.table_names()}


def assert_stats_as_recomputed(db) -> None:
    table = db.catalog.table("t")
    if table.stats.fresh(table):
        reference = TableStats(table.schema)
        reference.recompute(table, db.lfm.read,
                            spatial=table.stats.spatial_enabled)
        _assert_stats_equal(table.stats, reference, table)


def assert_unchanged(db, before: dict, seq: int) -> None:
    """The failed scope left the live and the published state as before,
    and no read of them took the database lock."""
    assert image(db) == before
    assert db.version_seq == seq
    with rwlock_acquisitions() as acquired:
        assert published(db) == {name: entry[0] for name, entry
                                 in before.items() if name is not None}
        db.execute("select count(*) from t")
        assert acquired() == 0
    assert_stats_as_recomputed(db)


class Stamps:
    """Every ``Table.stamp`` seen, with the state it named: plans are
    memoized on stamps, so one stamp must never name two states."""

    def __init__(self) -> None:
        self.seen: dict = {}

    def observe(self, db) -> None:
        for name in db.catalog.table_names():
            table = db.catalog.table(name)
            state = (frozenset(Counter(map(tuple, table.scan())).items()),
                     frozenset(c.name for c in table.schema.columns
                               if table.has_index(c.name)),
                     frozenset(table.spatial),
                     table.stats.spatial_enabled)
            assert self.seen.setdefault(table.stamp, state) == state


def started(device: str, rng: random.Random, stamps: Stamps) -> Database:
    """A database with a committed history of a few statements."""
    db = database(device)
    db.execute("create table t (k integer, v integer, region longfield)")
    for statement in sequence(rng, 6):
        try:
            run(db, statement, rng)
        except ReproError:
            pass
        stamps.observe(db)
    return db


class Abort(Exception):
    """The transaction's own reason to give up."""


@pytest.mark.parametrize("device", ["wal", "raw"])
class TestAbortAnywhere:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_failed_statement_changes_nothing(self, device, seed):
        rng, stamps = random.Random(seed), Stamps()
        db = started(device, rng, stamps)
        for statement in sequence(rng, 12):
            before, seq = image(db), db.version_seq
            try:
                run(db, statement, rng)
            except ReproError:
                assert_unchanged(db, before, seq)
            stamps.observe(db)
        assert_stats_as_recomputed(db)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_transaction_aborted_anywhere_changes_nothing(self, device,
                                                            seed):
        rng, stamps = random.Random(seed), Stamps()
        db = started(device, rng, stamps)
        before, seq = image(db), db.version_seq
        fields = db.lfm.export_state()
        statements = sequence(rng, 8)
        cut = rng.randrange(len(statements) + 1)
        with pytest.raises((ReproError, Abort)):
            with db.transaction():
                for statement in statements[:cut]:
                    run(db, statement, rng)
                    stamps.observe(db)
                raise Abort
        assert_unchanged(db, before, seq)
        stamps.observe(db)
        if device == "wal":  # the long fields went with the rows
            assert db.lfm.export_state() == fields
        # ... and the store goes on from the reinstated state.
        for statement in sequence(rng, 4):
            try:
                run(db, statement, rng)
            except ReproError:
                pass
            stamps.observe(db)
        assert_stats_as_recomputed(db)


# --------------------------------------------------------------------- #
# reopened from the journal
# --------------------------------------------------------------------- #


def reopened(db) -> Database:
    """A database rebuilt from ``db``'s data and journal images alone:
    recovery, then every commit record folded onto an empty catalog."""
    data, journal = BlockDevice(CAPACITY), BlockDevice(CAPACITY)
    data.write(0, db.lfm.device.device.read(0, CAPACITY))
    journal.write(0, db.lfm.device.journal.read(0, CAPACITY))
    wal = WriteAheadLog(data, journal, recover=True)
    empty = {"tables": [], "lfm": {"next_id": 1, "fields": {}}}
    image = fold_records(empty, wal.recovery.metas)
    out = Database(lfm=LongFieldManager.restore(wal, image["lfm"]))
    restore_catalog(out, image)
    return out


def committed(db) -> tuple:
    """The published rows, the index definitions and the field table."""
    catalog = db.versions.latest.catalog
    return (published(db), catalog.index_defs(), catalog.spatial_index_defs(),
            db.lfm.export_state())


class TestReopenedFromTheJournal:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_the_committed_state_comes_back(self, seed):
        rng, stamps = random.Random(seed), Stamps()
        db = started("wal", rng, stamps)
        for statement in sequence(rng, 12):
            try:
                run(db, statement, rng)
            except ReproError:
                pass
        statements = sequence(rng, 6)
        cut = rng.randrange(len(statements) + 1)
        with pytest.raises((ReproError, Abort)):
            with db.transaction():
                for statement in statements[:cut]:
                    run(db, statement, rng)
                raise Abort
        assert committed(reopened(db)) == committed(db)
