"""A study load is one unit of work: counted, atomic, and not read back.

Counts, not timings: on a write-ahead-logged grid-16 system one
``MedicalLoader.load_study`` is one journal commit, one flush, one
published snapshot and one band INSERT; it adds exactly its new band
cells to the band index's box column and leaves the atlas index's column
the very object the prior version held — the 10th load as the 1st.  A load
that fails leaves no row behind on any device, and under a write-ahead log
nothing else either (long fields, allocator bytes, id counters); a crash at any extent or journal write of three loads in a
row recovers every study entirely present or entirely absent — its rows
included, folded from the journal's commit records.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import QbismSystem
from repro.core.system import index_and_analyze, node_stack
from repro.db import stats as stats_module
from repro.db.database import Database
from repro.db.mvcc import VersionManager
from repro.db.persist import export_catalog, fold_records, restore_catalog
from repro.db.spatial import register_spatial_functions, store_region
from repro.db.stats import TableStats
from repro.errors import MedicalError, SimulatedCrash
from repro.medical.loader import ENCODING_SPECS, MedicalLoader
from repro.medical.schema import create_medical_schema
from repro.medical.server import MedicalServer
from repro.net.costmodel import CostModel1994
from repro.net.rpc import RpcChannel
from repro.obs import metrics
from repro.storage import (
    BlockDevice,
    FaultSchedule,
    FaultyDevice,
    LongFieldManager,
    WriteAheadLog,
)
from repro.regions import Region
from repro.synthdata import build_phantom, generate_mri_studies, generate_pet_studies
from repro.viz.dx import DataExplorer
from repro.volumes import uniform_bands
from tests.test_stats_properties import _assert_stats_equal

GRID = 16
CAPACITY = 4 << 20
ENCODINGS = ("hilbert-naive", "z-naive", "octant")
STUDY_TABLES = ("rawVolume", "warpedVolume", "intensityBand")

PHANTOM = build_phantom(grid_side=GRID, seed=1994)
PET = generate_pet_studies(PHANTOM, count=10, seed=1995)
MRI = generate_mri_studies(PHANTOM, count=1, seed=1996)


def atlas_only(wal: bool = True) -> tuple[QbismSystem, MedicalLoader, int]:
    """An indexed, analyzed system holding the atlas and one patient."""
    system = QbismSystem.build_demo(
        seed=1994, grid_side=GRID, n_pet=0, n_mri=0,
        band_encodings=ENCODINGS, device_capacity=CAPACITY, wal=wal,
    )
    loader = MedicalLoader(system.db, system.lfm, encodings=ENCODINGS)
    patient = loader.register_patient("unit", "1960-01-01", "F", 34).patient_id
    return system, loader, patient


def load(system, loader, patient, study) -> int:
    return loader.load_study(
        study.data, study.modality, patient, system.atlas,
        system.phantom.grid, warp=study.patient_to_atlas,
    )


def row_counts(db) -> dict[str, int]:
    return {name: db.catalog.table(name).row_count for name in db.table_names()}


def payload_hashes(system, table: str, column: str) -> list[str]:
    """SHA-256 of every long field one column stores, in row order."""
    handles = system.db.execute(f"select {column} from {table}").column(column)
    return [hashlib.sha256(system.lfm.read(h)).hexdigest() for h in handles]


LONGFIELD_COLUMNS = (("atlasStructure", "region"), ("atlasStructure", "surfaceMesh"),
                     ("rawVolume", "data"), ("warpedVolume", "data"),
                     ("intensityBand", "region"))


def indexed_empty():
    """``(lfm, db, loader)`` over a WAL node whose spatial indexes and
    statistics exist before anything is loaded — so the atlas, too, is
    stored into live directories."""
    _, lfm, db = node_stack(BlockDevice(CAPACITY), wal=True)
    index_and_analyze(db)
    return lfm, db, MedicalLoader(db, lfm, encodings=ENCODINGS)


def directory(db, table: str, column: str):
    """One column's region-cell directory: ``(failed, handle -> cell)``."""
    table = db.catalog.table(table)
    held = table.stats._spatial[table.schema.position(column)]
    return held.failed, held.cells


def assert_directories_equal_a_recompute(db, lfm) -> None:
    """The live statistics of every medical table against a from-scratch
    ``recompute`` that reads and decodes every stored payload."""
    for name, column in LONGFIELD_COLUMNS:
        table = db.catalog.table(name)
        reference = TableStats(table.schema)
        reference.recompute(table, lfm.read, spatial=True)
        pos = table.schema.position(column)
        live, scratch = table.stats._spatial.get(pos), reference._spatial.get(pos)
        if not table.row_count:
            assert live is None and scratch is None  # nothing stored yet
            continue
        assert live.failed == scratch.failed == (column != "region")
        assert live.cells == scratch.cells
        assert live.counts == scratch.counts
        assert live.empty_rows == scratch.empty_rows
        if column == "region":  # rows, aggregates, and the box column
            _assert_stats_equal(table.stats, reference, table)


class _Calls:
    """Counts calls of one attribute while patched in (``monkeypatch``)."""

    def __init__(self, monkeypatch, owner, name: str):
        self.count = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.count += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def box_column(db, table: str) -> tuple:
    """The box column the spatial index over ``table.region`` probes."""
    return db.catalog.table(table).spatial_index_on("region")._boxes()


def load_and_check_boxes(system, loader, patient, study) -> None:
    """Load ``study``: the band index's box column must be the prior one
    plus exactly the cells the load's new rows added, and the atlas
    index's column must be the very object the prior version held."""
    db = system.db
    old_rows = {id(row) for row in db.catalog.table("intensityBand").scan()}
    bands_before = set(box_column(db, "intensityBand")[0])
    atlas_before = box_column(db, "atlasStructure")
    load(system, loader, patient, study)
    bands = db.catalog.table("intensityBand")
    pos = bands.schema.position("region")
    cells = bands.stats._spatial[pos].cells
    new_cells = {row[pos] for row in bands.scan() if id(row) not in old_rows
                 and cells.get(row[pos]) is not None}
    boxed = box_column(db, "intensityBand")[0]
    assert new_cells and not new_cells & bands_before
    assert set(boxed) == bands_before | new_cells
    assert len(boxed) == len(bands_before) + len(new_cells)
    assert box_column(db, "atlasStructure") is atlas_before


class TestOneLoadOneUnit:
    def test_one_commit_one_flush_one_publish_new_band_cells_boxed(
            self, monkeypatch):
        system, loader, patient = atlas_only()
        publishes = _Calls(monkeypatch, VersionManager, "publish")
        commits = metrics.counter("wal.commits").value
        flushes = metrics.counter("wal.flushes").value
        load_and_check_boxes(system, loader, patient, PET[0])
        assert metrics.counter("wal.commits").value - commits == 1
        assert metrics.counter("wal.flushes").value - flushes == 1
        assert publishes.count == 1
        bands = system.db.catalog.table("intensityBand")
        assert bands.spatial_index_on("region").probe_safe(bands)

    def test_every_load_boxes_its_new_band_cells_only(self):
        system, loader, patient = atlas_only()
        for study in PET[:10]:
            load_and_check_boxes(system, loader, patient, study)

    def test_atlas_and_lone_warp_are_units_too(self):
        _, lfm, db = node_stack(BlockDevice(CAPACITY), wal=True)
        loader = MedicalLoader(db, lfm, encodings=ENCODINGS)
        commits = metrics.counter("wal.commits").value
        seq = db.version_seq
        atlas = loader.load_atlas(PHANTOM)
        assert metrics.counter("wal.commits").value - commits == 1
        assert db.version_seq == seq + 1
        patient = loader.register_patient("unit", "1960-01-01", "F", 34).patient_id
        study = MRI[0]
        study_id = loader.load_raw_study(study.data, study.modality, patient)
        commits = metrics.counter("wal.commits").value
        seq = db.version_seq
        loader.warp_study(study_id, atlas, PHANTOM.grid,
                          warp=study.patient_to_atlas)
        assert metrics.counter("wal.commits").value - commits == 1
        assert db.version_seq == seq + 1


def one_insert_per_band(loader, study_id: int, atlas_id: int, volume) -> None:
    """The reference ``_store_bands``: the same fields stored in the same
    order, each band row inserted by a statement of its own."""
    for band in uniform_bands(volume):
        along = {}
        for encoding in loader.encodings:
            curve_name, codec = ENCODING_SPECS[encoding]
            if curve_name not in along:
                along[curve_name] = band.region.reorder(curve_name)
            region_lf = store_region(loader.db, along[curve_name], codec)
            loader.db.execute(
                "insert into intensityBand values (?, ?, ?, ?, ?, ?)",
                [study_id, atlas_id, band.low, band.high, encoding, region_lf])


class TestOneBandInsert:
    def test_one_statement_stores_what_one_insert_per_band_stores(
            self, monkeypatch):
        """A load's band rows are one INSERT; rows, field ids, payloads,
        directory and every journal and data byte are those of a load
        that inserts each band row alone."""
        def two_loads():
            schedule = FaultSchedule(seed=0, crash_after_writes=None)
            system, loader, patient, fdata, fjournal = faulty_stack(schedule)
            statements.clear()
            load(system, loader, patient, PET[1])
            return system, fdata.snapshot(), fjournal.snapshot()

        statements: list[str] = []
        with monkeypatch.context() as patched:
            patched.setattr(MedicalLoader, "_store_bands", one_insert_per_band)
            reference, ref_data, ref_journal = two_loads()
        execute = Database.execute

        def recorded(db, sql, *args, **kwargs):
            statements.append(sql)
            return execute(db, sql, *args, **kwargs)

        monkeypatch.setattr(Database, "execute", recorded)
        system, data, journal = two_loads()
        inserts = [sql for sql in statements
                   if sql.startswith("insert into intensityBand")]
        assert len(inserts) == 1
        assert inserts[0].count("(?, ?, ?, ?, ?, ?)") == 8 * len(ENCODINGS)
        monkeypatch.undo()
        select = "select * from intensityBand"
        assert (system.db.execute(select).rows
                == reference.db.execute(select).rows)  # field ids included
        assert (payload_hashes(system, "intensityBand", "region")
                == payload_hashes(reference, "intensityBand", "region"))
        assert (directory(system.db, "intensityBand", "region")
                == directory(reference.db, "intensityBand", "region"))
        assert (box_column(system.db, "intensityBand")[0]
                == box_column(reference.db, "intensityBand")[0])
        assert journal == ref_journal and data == ref_data


class TestFailedLoadLeavesNothingBehind:
    def test_wal_rolls_back_rows_fields_bytes_and_ids(self):
        system, good, patient = atlas_only()
        load(system, good, patient, PET[0])
        db, lfm = system.db, system.lfm
        bad = MedicalLoader(db, lfm, encodings=("hilbert-naive", "nope"))
        bad.seed_ids("study", 2)
        rows, state = row_counts(db), lfm.export_state()
        allocated, seq = lfm.allocated_bytes, db.version_seq
        # Fails in _store_bands, after both volumes and a band are stored.
        with pytest.raises(MedicalError, match="unknown band encoding"):
            load(system, bad, patient, PET[1])
        assert row_counts(db) == rows
        assert lfm.export_state() == state
        assert lfm.allocated_bytes == allocated
        assert db.version_seq == seq  # nothing was published
        assert bad._next_ids["study"] == 2
        assert db._stored_cells == {}  # the rolled-back bands' cells went too
        for name in STUDY_TABLES:
            table = db.catalog.table(name)
            assert table.stats.fresh(table)
        # The retried load gets the id the failed one gave back, and the
        # store answers as if the failure never happened.
        good.seed_ids("study", bad._next_ids["study"])
        assert load(system, good, patient, PET[1]) == 2
        reference, ref_loader, ref_patient = atlas_only()
        for study in PET[:2]:
            load(reference, ref_loader, ref_patient, study)
        for table, column in (("warpedVolume", "data"),
                              ("intensityBand", "region")):
            assert (payload_hashes(system, table, column)
                    == payload_hashes(reference, table, column))
        assert lfm.allocated_bytes == reference.lfm.allocated_bytes
        # ... the directories too: no cell of the rolled-back load answers
        # for a field id the retry was issued again.
        assert (directory(db, "intensityBand", "region")
                == directory(reference.db, "intensityBand", "region"))
        assert_directories_equal_a_recompute(db, lfm)

    def test_a_rolled_back_cell_never_answers_for_a_reissued_field(self):
        lfm, db, _ = indexed_empty()
        grid = PHANTOM.grid
        first = Region.from_box(grid, (0, 0, 0), (2, 2, 2))
        second = Region.from_box(grid, (8, 8, 8), (10, 10, 10))
        assert first.run_count == second.run_count  # so: equal payload lengths
        with pytest.raises(RuntimeError, match="abort"):
            with db.transaction():
                gone = store_region(db, first)
                assert db.stored_cells == {gone: stats_module.region_cell(
                    first, gone.length)}
                raise RuntimeError("abort")
        assert db._stored_cells == {} and db.stored_cells is None
        with db.transaction():
            again = lfm.create(second.to_bytes("naive"))  # not watched
            assert again == gone  # same id, same length: the same handle
            db.execute("insert into intensityBand values (1, 1, 0, 31, 'x', ?)",
                       [again])
        assert db._stored_cells == {}  # emptied on commit as on rollback
        _, cells = directory(db, "intensityBand", "region")
        assert cells[again].lower == (8, 8, 8)
        assert_directories_equal_a_recompute(db, lfm)

    def test_raw_device_keeps_what_was_stored(self):
        # No journal, no rollback: the half-loaded study's long fields stay
        # allocated, referenced by nothing, and its id stays taken — but
        # its rows go, as on every device (see MedicalLoader._unit).
        system, _, patient = atlas_only(wal=False)
        db, lfm = system.db, system.lfm
        bad = MedicalLoader(db, lfm, encodings=("nope",))
        rows, fields = row_counts(db), lfm.field_count
        with pytest.raises(MedicalError):
            load(system, bad, patient, PET[0])
        assert row_counts(db) == rows
        assert db.execute("select count(*) from rawVolume").scalar() == 0
        assert lfm.field_count > fields
        assert bad._next_ids["study"] == 2


class TestNoReadBack:
    def test_load_study_equals_load_raw_then_warp(self):
        whole, loader, patient = atlas_only()
        parts, parts_loader, parts_patient = atlas_only()
        for study in (PET[0], MRI[0]):
            load(whole, loader, patient, study)
            study_id = parts_loader.load_raw_study(
                study.data, study.modality, parts_patient)
            parts_loader.warp_study(
                study_id, parts.atlas, parts.phantom.grid,
                warp=study.patient_to_atlas)
        # What load_study does not do is read back the volume it had just
        # stored: one read fewer per study, of exactly the raw bytes.
        saved = parts.lfm.stats - whole.lfm.stats
        assert saved.read_calls == 2
        assert saved.bytes_read == PET[0].data.size + MRI[0].data.size
        for table, column in (("rawVolume", "data"), ("warpedVolume", "data"),
                              ("intensityBand", "region")):
            hashes = payload_hashes(whole, table, column)
            assert hashes and hashes == payload_hashes(parts, table, column)


    def test_the_fast_path_builds_the_directory_the_slow_path_reads(
            self, monkeypatch):
        """Stored through ``store_region`` or with a plain ``lfm.create``
        + INSERT (which reads every band back): same bytes in the same
        places, same directory — and only the second reads anything."""
        def build():
            lfm, db, loader = indexed_empty()
            reads = [lfm.stats.read_calls]
            atlas = loader.load_atlas(PHANTOM)
            reads.append(lfm.stats.read_calls)
            patient = loader.register_patient("unit", "1960-01-01", "F", 34)
            for study in (PET[0], MRI[0]):
                loader.load_study(study.data, study.modality,
                                  patient.patient_id, atlas, PHANTOM.grid,
                                  warp=study.patient_to_atlas)
                reads.append(lfm.stats.read_calls)
            return lfm, db, [b - a for a, b in zip(reads, reads[1:])]

        lfm, db, reads = build()
        # The atlas reads its first mesh, the first study its raw and its
        # warped volume — each once, to learn that the ANALYZEd column
        # holds no REGION.  No region is read back, and the second study
        # reads nothing at all.
        assert reads == [1, 2, 0]
        assert db._stored_cells == {}
        assert_directories_equal_a_recompute(db, lfm)

        from repro.medical import loader as loader_module
        monkeypatch.setattr(
            loader_module, "store_region",
            lambda db, region, codec: db.lfm.create(region.to_bytes(codec)))
        slow_lfm, slow_db, slow_reads = build()
        structures, bands = len(PHANTOM.structures), 8 * len(ENCODINGS)
        assert slow_reads == [1 + structures, 2 + bands, bands]
        for table, column in LONGFIELD_COLUMNS:
            handles = [db_.execute(f"select {column} from {table}").column(column)
                       for db_ in (db, slow_db)]
            assert handles[0] and handles[0] == handles[1]  # ids and lengths
            assert ([hashlib.sha256(lfm.read(h)).hexdigest() for h in handles[0]]
                    == [hashlib.sha256(slow_lfm.read(h)).hexdigest()
                        for h in handles[1]])
            assert directory(db, table, column) == directory(slow_db, table, column)
        assert lfm.allocated_bytes == slow_lfm.allocated_bytes
        assert lfm.export_state() == slow_lfm.export_state()

    def test_atlas_boxes_are_the_directory_boxes(self):
        _, db, loader = indexed_empty()
        loader.load_atlas(PHANTOM)
        _, cells = directory(db, "atlasStructure", "region")
        rows = db.execute(
            "select region, bbMinX, bbMinY, bbMinZ, bbMaxX, bbMaxY, bbMaxZ "
            "from atlasStructure").rows
        assert len(rows) == len(PHANTOM.structures) == len(cells)
        for handle, *box in rows:
            assert (*cells[handle].lower, *cells[handle].upper) == tuple(box)

    def test_an_empty_band_is_the_none_cell_on_both_paths(self):
        lfm, db, _ = indexed_empty()
        empty = Region.empty(PHANTOM.grid)
        with db.transaction():
            watched = store_region(db, empty)
            assert db.stored_cells == {watched: None}
            db.execute("insert into intensityBand values (1, 1, 0, 31, 'x', ?)",
                       [watched])
        unwatched = store_region(db, empty)  # no transaction: nothing kept
        assert db.stored_cells is None and db._stored_cells == {}
        before = lfm.stats.read_calls
        db.execute("insert into intensityBand values (1, 1, 32, 63, 'x', ?)",
                   [unwatched])
        assert lfm.stats.read_calls == before + 1  # the fallback read it
        failed, cells = directory(db, "intensityBand", "region")
        assert not failed and cells == {watched: None, unwatched: None}
        assert_directories_equal_a_recompute(db, lfm)


# --------------------------------------------------------------------- #
# crash atomicity: every extent / journal write of three load_study calls
# --------------------------------------------------------------------- #


def faulty_stack(schedule: FaultSchedule):
    """The atlas-only system of :func:`atlas_only` over fault-injected
    data and journal devices sharing ``schedule``."""
    fdata = FaultyDevice(BlockDevice(CAPACITY), schedule, name="data")
    fjournal = FaultyDevice(BlockDevice(CAPACITY), schedule, name="journal")
    lfm = LongFieldManager(WriteAheadLog(fdata, fjournal, recover=False))
    system = _system_over(lfm, image=None)
    loader = MedicalLoader(system.db, lfm, encodings=ENCODINGS)
    patient = loader.register_patient("unit", "1960-01-01", "F", 34).patient_id
    load(system, loader, patient, PET[0])
    return system, loader, patient, fdata, fjournal


def _system_over(lfm: LongFieldManager, image: dict | None) -> QbismSystem:
    """A QbismSystem over ``lfm``: freshly loaded with the atlas (and
    indexed), or — given a catalog image — restored from it."""
    db = Database(lfm=lfm)
    register_spatial_functions(db)
    if image is None:
        create_medical_schema(db)
        atlas = MedicalLoader(db, lfm).load_atlas(PHANTOM)
        index_and_analyze(db)
    else:
        restore_catalog(db, image)
        atlas = REFERENCE.atlas
    cost_model = CostModel1994()
    return QbismSystem(
        device=lfm.device, lfm=lfm, db=db, server=MedicalServer(db),
        rpc=RpcChannel(), dx=DataExplorer(cost_model), cost_model=cost_model,
        atlas=atlas, phantom=PHANTOM,
    )


def study_answers(system, study_id: int) -> dict:
    """Paper-style answers about one study: name -> (page I/Os, SHA-256)."""
    lower, upper = (4, 4, 4), (13, 13, 13)
    outcomes = {
        "full": system.query_full_study(study_id),
        "box": system.query_box(study_id, lower, upper),
        "structure": system.query_structure(study_id, "ntal"),
        "band": system.query_band(study_id, 224, 255),
        "mixed": system.query_mixed(study_id, "ntal1", 224, 255),
    }
    return {name: (o.timing.lfm_page_ios,
                   hashlib.sha256(o.result.payload).hexdigest())
            for name, o in outcomes.items()}


#: the loads a crash point may land in: a crash in one must leave the
#: ones before it whole
CRASH_LOADS = (PET[1], PET[2], MRI[0])


def _state(system, loader, schedule, fjournal) -> dict:
    return {
        "writes": schedule.writes_seen,
        "journal_writes": fjournal.inner.stats.write_calls,
        "rows": row_counts(system.db),
        "fields": system.lfm.export_state(),
        "allocated": system.lfm.allocated_bytes,
        "catalog": export_catalog(system.db.catalog),
        "ids": dict(loader._next_ids),
    }


def _reference_run():
    """Fault-free: the states before the loads under test and after each,
    with the write calls they issue and the answers each loaded study
    gives."""
    schedule = FaultSchedule(seed=0, crash_after_writes=None)
    system, loader, patient, _, fjournal = faulty_stack(schedule)
    states = [_state(system, loader, schedule, fjournal)]
    for study in CRASH_LOADS:
        study_id = load(system, loader, patient, study)
        states.append({**_state(system, loader, schedule, fjournal),
                       "answers": study_answers(system, study_id),
                       "study_id": study_id})
    return system, states


REFERENCE, STATES = _reference_run()
#: every write of the loads: one per long field each stores, then its
#: commit record, that load's last write
LOAD_WRITES = STATES[-1]["writes"] - STATES[0]["writes"]


class TestCrashDuringLoad:
    def test_the_load_is_one_journal_record(self):
        for before, after in zip(STATES, STATES[1:]):
            assert after["journal_writes"] - before["journal_writes"] == 1
            assert after["writes"] - before["writes"] > 4

    @pytest.mark.parametrize("torn", ["prefix", "pages", "none"])
    @pytest.mark.parametrize("crash_at", range(1, LOAD_WRITES + 1))
    def test_crash_point_leaves_the_study_whole_or_absent(
            self, crash_at, torn, test_seed):
        first = STATES[0]["writes"]
        schedule = FaultSchedule(
            seed=test_seed, torn=torn, crash_after_writes=first + crash_at)
        system, loader, patient, fdata, fjournal = faulty_stack(schedule)
        assert schedule.writes_seen == first
        done = 0
        with pytest.raises(SimulatedCrash):
            for study in CRASH_LOADS:
                load(system, loader, patient, study)
                done += 1
        before, after = STATES[done], STATES[done + 1]

        # In the crashed process: memory agrees with what the journal holds.
        if system.lfm.export_state() == before["fields"]:
            assert row_counts(system.db) == before["rows"]
            assert system.lfm.allocated_bytes == before["allocated"]
            assert loader._next_ids == before["ids"]
        else:
            assert system.lfm.export_state() == after["fields"]
            assert row_counts(system.db) == after["rows"]

        # Reboot: harvest the wreck, replay the journal.
        data, journal = BlockDevice(CAPACITY), BlockDevice(CAPACITY)
        data.write(0, fdata.snapshot())
        journal.write(0, fjournal.snapshot())
        wal = WriteAheadLog(data, journal, recover=True)
        lfm = LongFieldManager.restore(wal, wal.last_committed_meta)
        fields = lfm.export_state()
        assert fields in (before["fields"], after["fields"]), (
            f"half a study survived ({schedule.describe()})")
        present = fields == after["fields"]
        # The commit record, the load's last write, is the line: before it
        # absent (a torn commit record itself may have landed entirely).
        if first + crash_at < after["writes"]:
            assert not present
        state = after if present else before
        assert lfm.allocated_bytes == state["allocated"]
        # The rows come from the journal too: every write since the stack
        # was created is a recovered commit record, folded onto nothing.
        catalog = fold_records({"tables": []}, wal.recovery.metas)
        del catalog["lfm"]
        assert catalog in (before["catalog"], after["catalog"]), (
            f"half a study's rows survived ({schedule.describe()})")
        assert catalog == state["catalog"], (
            f"the rows disagree with the fields ({schedule.describe()})")
        recovered = _system_over(lfm, catalog)
        assert row_counts(recovered.db) == state["rows"]
        for done_state in STATES[1:done + 1] + [after] * present:
            assert study_answers(recovered, done_state["study_id"]) == \
                done_state["answers"]
