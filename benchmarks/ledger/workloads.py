"""The five cold-path workloads of the performance ledger.

Every workload builds its own system: in-memory ``BlockDevice``, and
where the WAL is on an in-memory journal with ``flush_latency = 0`` — no
``LatencyDevice``, no simulated sleeps; latencies are the sandbox's, not
a disk's.  Load is closed loop: a client issues its next op when the
previous one has answered.  The result cache is off except on
``served_hot_g32``, which is about the cache.

A workload is a sequence of *blocks*.  A block is a fixed list of ops, so
however many blocks fit into ``--seconds`` every run does the same work
per op and the count metrics repeat exactly; only the order inside a
block (and, for ``ingest_g32``, the study data) comes from ``--seed``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from pathlib import Path

import numpy as np

import inputs

#: LFM page I/Os of the nine paper queries, pinned (ROADMAP's anchor to the
#: paper).  Grid 64 uses band 192-255 for Q6; re-derived at this commit.
PAPER_PAGES = {
    64: {"q1": 65, "q2": 65, "q3": 10, "q4": 28, "q5": 3, "q6": 13,
         "t4_hilbert": 14, "t4_z": 18, "t4_octant": 13},
    32: {"q1": 9, "q2": 9, "q3": 10, "q4": 6, "q5": 6, "q6": 5,
         "t4_hilbert": 5, "t4_z": 5, "t4_octant": 5},
}
#: the pins that do not depend on the study's intensities (any study)
DATA_INDEPENDENT = ("q1", "q2", "q3", "q4")

#: ``repro.obs.metrics`` counters the per-layer metrics are made of
REGISTRY_COUNTERS = (
    "wal.commits", "wal.bytes_journaled", "wal.flushes", "wal.grouped_txns",
    "server.result_cache.hits", "server.result_cache.misses",
    "server.result_cache.invalidations",
    "server.stmt_memo.hits", "server.stmt_memo.misses",
)

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results" / "ledger"


def build_system(grid: int, wal: bool, n_pet: int = 5, n_mri: int = 3,
                 device_capacity: int | None = None):
    """The seed-1994 demo database, three band encodings, no fake latency."""
    from repro.core import QbismSystem

    return QbismSystem.build_demo(
        seed=1994, grid_side=grid, n_pet=n_pet, n_mri=n_mri,
        band_encodings=inputs.BAND_ENCODINGS, wal=wal,
        device_capacity=device_capacity)


def paper_queries(system, study_id: int):
    """``(name, run)`` for Q1-Q6 and the three Table 4 rows, in order.

    ``run()`` returns ``(page I/Os, payload bytes)``.
    """
    grid = system.atlas.resolution
    lower, upper = inputs.scaled_box(grid)
    q6_band = inputs.PAPER_BAND if grid == 64 else (224, 255)

    def single(call, *args):
        def run():
            outcome = call(study_id, *args)
            return outcome.timing.lfm_page_ios, outcome.result.payload
        return run

    def table4(encoding):
        def run():
            region, row = system.multi_study_band(
                system.pet_study_ids, *inputs.TABLE4_BAND, encoding)
            return row.lfm_page_ios, region.to_bytes("naive")
        return run

    return [
        ("q1", single(system.query_full_study)),
        ("q2", single(system.query_box, lower, upper)),
        ("q3", single(system.query_structure, "ntal")),
        ("q4", single(system.query_structure, "ntal1")),
        ("q5", single(system.query_band, 224, 255)),
        ("q6", single(system.query_mixed, "ntal1", *q6_band)),
        ("t4_hilbert", table4("hilbert-naive")),
        ("t4_z", table4("z-naive")),
        ("t4_octant", table4("octant")),
    ]


def paper_round(system, study_id: int) -> dict:
    """One round of the nine queries: name -> (page I/Os, payload SHA-256)."""
    return {name: (pages, hashlib.sha256(payload).hexdigest())
            for name, run in paper_queries(system, study_id)
            for pages, payload in [run()]}


def naive_paper_round(system, study_id: int) -> dict:
    """The same round under the naive planner: the answer oracle."""
    system.db.planner = "naive"
    try:
        return paper_round(system, study_id)
    finally:
        system.db.planner = "cost"


def pin_problems(got: dict, pins: dict, names=None) -> list[str]:
    return [f"{name}: {got[name][0]} page I/Os, pinned {pins[name]}"
            for name in (names or pins) if got[name][0] != pins[name]]


def raw_user_bytes(db) -> int:
    return sum(w * h * d for w, h, d in db.execute(
        "select width, height, depth from rawVolume").rows)


class Workload:
    """Base: one system, ``clients`` closed-loop clients, blocks of ops."""

    name = ""
    clients = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.problems: list[str] = []  #: failed checks outside the op loop
        self.system = None
        self.user_bytes = 0

    def setup(self) -> None:
        """Build the system, compute reference answers, warm up once."""
        raise NotImplementedError

    def begin_block(self, client: int, block: int) -> None:
        """Untimed preparation of a block (not measured, not counted)."""

    def ops(self, client: int, block: int):
        """The block's ops as ``(kind, run, check)``: ``run()`` is timed,
        ``check(result)`` says whether the answer is right."""
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks; failures go to :attr:`problems`."""

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def counters(self) -> dict:
        """Cumulative counters: the current system's LFM page reads (the
        paper's metric) and the process-wide ``repro.obs.metrics`` counts."""
        from repro.obs import metrics

        out = {name: metrics.counter(name).value for name in REGISTRY_COUNTERS}
        out["lfm_pages_read"] = self.system.lfm.stats.pages_read
        return out

    def stored_bytes_per_user_byte(self) -> float:
        return self.system.lfm.allocated_bytes / self.user_bytes

    def warm_up(self) -> None:
        """One unrecorded block of client 0; a wrong answer is a problem."""
        self.begin_block(0, -1)
        for kind, run, check in self.ops(0, -1):
            if not check(run()):
                self.problems.append(f"warm-up {kind} op answered wrong")


class PaperG64(Workload):
    """The paper's own nine queries through ``QbismSystem`` at grid 64."""

    name = "paper_g64"
    grid = 64
    rounds = 6  # per block: ~0.8 s, long enough for a steady block median

    def setup(self):
        self.system = build_system(16 if self.smoke else self.grid, wal=False)
        self.user_bytes = raw_user_bytes(self.system.db)
        self.study = self.system.pet_study_ids[0]
        self.reference = naive_paper_round(self.system, self.study)
        self.queries = paper_queries(self.system, self.study)
        self.pins = PAPER_PAGES.get(self.system.atlas.resolution)
        self.warm_up()

    def ops(self, client, block):
        for _ in range(1 if self.smoke else self.rounds):
            yield "round", self._round, self._check

    def _round(self):
        return [(name, *run()) for name, run in self.queries]

    def _check(self, answers) -> bool:
        return all(
            hashlib.sha256(payload).hexdigest() == self.reference[name][1]
            and (self.pins is None or pages == self.pins[name])
            for name, pages, payload in answers)


class _Universe(Workload):
    """Shared by the three grid-32 statement workloads."""

    grid = 32
    wal = False

    def setup(self):
        self.system = build_system(self.grid, wal=self.wal)
        db = self.system.db
        self.user_bytes = raw_user_bytes(db)
        self.problems += pin_problems(
            paper_round(self.system, self.system.pet_study_ids[0]),
            PAPER_PAGES[self.grid])
        universe = inputs.statement_universe(db)
        if self.smoke:
            universe = universe[::16]
        # the naive planner is the engine's differential oracle
        self.universe = [(sql, db.execute(sql, planner="naive").rows)
                         for sql in universe]
        self.start()
        self.warm_up()

    def start(self) -> None:
        """Whatever serves the statements (nothing for direct execution)."""

    def read_op(self, execute, index: int):
        sql, expected = self.universe[index]
        return ("read", lambda: execute(sql),
                lambda result: result.rows == expected)


class PoolDirectG32(_Universe):
    """Every universe statement, shuffled, straight into ``Database.execute``."""

    name = "pool_direct_g32"

    def ops(self, client, block):
        order = list(range(len(self.universe)))
        random.Random(f"{self.seed}/{block}").shuffle(order)
        execute = self.system.db.execute
        for index in order:
            yield self.read_op(execute, index)


class _Served(_Universe):
    """``clients`` sessions on one ``QueryServer(workers=2)`` over a WAL
    system."""

    clients = 2
    wal = True
    result_cache = False

    def start(self):
        from repro.server import QueryServer

        self.server = QueryServer(self.system.db, workers=2,
                                  result_cache=self.result_cache)
        self.sessions = [self.server.connect(name=f"ledger-{k}")
                         for k in range(self.clients)]
        self.initial_patients = self._patients()
        self.acked = [0] * self.clients

    def _patients(self) -> int:
        return self.system.db.execute("select count(*) from patient").scalar()

    def write_op(self, client: int):
        self.acked[client] += 1
        sql = inputs.insert_patient_sql(
            (client + 1) * 10_000_000 + self.acked[client])
        execute = self.sessions[client].execute
        return ("write", lambda: execute(sql),
                lambda result: result.rowcount == 1)

    def finish(self):
        expected = self.initial_patients + sum(self.acked)
        got = self._patients()
        if got != expected:
            self.problems.append(
                f"patient has {got} rows, expected {expected} "
                f"(initial + acknowledged INSERTs)")

    def close(self):
        self.server.close()


class ServedMixedG32(_Served):
    """Cache off; per block the two clients share one shuffled pass over the
    universe (each statement once), with 1 INSERT after every 9 reads."""

    name = "served_mixed_g32"

    def ops(self, client, block):
        order = list(range(len(self.universe)))
        random.Random(f"{self.seed}/{block}").shuffle(order)
        execute = self.sessions[client].execute
        for position, index in enumerate(order[client::self.clients], 1):
            yield self.read_op(execute, index)
            if position % 9 == 0:
                yield self.write_op(client)


class ServedHotG32(_Served):
    """Result cache on (256 entries); Zipf reads, 1 op in 50 an INSERT.

    One client: with two, a hit waits for the GIL whenever the other
    client's miss holds it, and the median op sits on the cliff between
    the waiting and the undelayed hits (the 4% of the ops around it span
    11% of the latency, against 4% with one client), where no run repeats.
    ``served_mixed_g32`` keeps the two-client contention.
    """

    name = "served_hot_g32"
    clients = 1
    result_cache = True
    block_ops = 1000

    def start(self):
        super().start()
        self.samplers = [
            inputs.ZipfSampler(len(self.universe),
                               random.Random(f"{self.seed}/{client}"))
            for client in range(self.clients)]

    def ops(self, client, block):
        execute = self.sessions[client].execute
        draw = self.samplers[client].draw
        for position in range(1, (50 if self.smoke else self.block_ops) + 1):
            if position % 50 == 0:
                yield self.write_op(client)
            else:
                yield self.read_op(execute, draw())


class IngestG32(Workload):
    """``MedicalLoader.load_study`` into a WAL database, then reopen it.

    A block is a fresh atlas-only database and :attr:`loads` studies into
    it, so every block sees the same growth from the 1st to the last load.
    """

    name = "ingest_g32"
    grid = 32
    loads = 18
    capacity = 32 << 20

    def setup(self):
        if self.smoke:
            self.loads = 3
        self._fresh()
        self.studies = inputs.ingest_studies(self.system.phantom, self.seed)
        self.warm_up()

    def _fresh(self):
        from repro.medical.loader import MedicalLoader

        self.system = build_system(self.grid, wal=True, n_pet=0, n_mri=0,
                                   device_capacity=self.capacity)
        self.loader = MedicalLoader(self.system.db, self.system.lfm,
                                    encodings=inputs.BAND_ENCODINGS)
        self.patient = self.loader.register_patient(
            "ledger", "1990-01-01", "F", 33).patient_id
        self.loaded: list[tuple[int, str, np.ndarray]] = []

    def begin_block(self, client, block):
        self._fresh()

    def ops(self, client, block):
        for k in range(2 if block < 0 else self.loads):  # warm-up: 1 PET, 1 MRI
            modality, data, warp = self.studies[k % len(self.studies)]
            yield ("load",
                   lambda m=modality, d=data, w=warp: self._load(m, d, w),
                   lambda study_id, k=k: study_id == k + 1)

    def _load(self, modality, data, warp):
        system = self.system
        study_id = self.loader.load_study(
            data, modality, self.patient, system.atlas, system.phantom.grid,
            warp=warp)
        self.loaded.append((study_id, modality, data))
        return study_id

    def stored_bytes_per_user_byte(self):
        return (self.system.lfm.allocated_bytes
                / sum(data.nbytes for _, _, data in self.loaded))

    def finish(self):
        """Save, reopen, and compare the reopened store with the live one."""
        from repro.core import QbismSystem
        from repro.medical.loader import MedicalLoader

        live = self.system
        live.pet_study_ids = [
            sid for sid, modality, _ in self.loaded if modality == "PET"][:5]
        path = RESULTS_DIR / f"reopen-{self.seed}"
        try:
            live.save(path)
            reopened = QbismSystem.load(path)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        reader = MedicalLoader(reopened.db, reopened.lfm)
        for study_id, _, data in self.loaded:
            if not np.array_equal(reader.read_raw_study(study_id), data):
                self.problems.append(f"raw study {study_id} differs after reopen")
        for (sid, before), (_, after) in zip(
                _warped(live), _warped(reopened)):
            if before != after:
                self.problems.append(f"warped study {sid} differs after reopen")
        study = live.pet_study_ids[0]
        before = paper_round(live, study)
        after = paper_round(reopened, study)
        self.problems += pin_problems(after, PAPER_PAGES[self.grid],
                                      DATA_INDEPENDENT)
        if before != after:
            self.problems.append("paper queries differ after reopen")


def _warped(system):
    rows = system.db.execute(
        "select studyId, data from warpedVolume order by studyId").rows
    return [(sid, hashlib.sha256(system.lfm.read(handle)).hexdigest())
            for sid, handle in rows]


WORKLOADS = {cls.name: cls for cls in (
    PaperG64, PoolDirectG32, ServedMixedG32, ServedHotG32, IngestG32)}
