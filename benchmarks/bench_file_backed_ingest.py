"""Commit cost on a file-backed store: study loads into ``load_database(path, wal=True)``.

Every ledger workload runs on in-memory devices, where ``BlockDevice.sync``
does nothing.  This script measures what the ledger cannot: ``ingest_g32``'s
loads (grid 32, the same seeded studies, 18 a block) into a saved,
atlas-only database reopened over its files, so the data image and the
journal are ``mmap``'d files and every ``sync`` is a real ``msync``.  Each
block starts from a fresh copy of the saved directory; after its loads the
store is closed without a save, reopened from its files, and every loaded
study's raw volume is checked byte for byte.  Prints one JSON line: the
median per-load wall ms of each block and their median, and the syncs and
sync ms per load.

Run::

    python3 benchmarks/bench_file_backed_ingest.py [--root TREE] [--blocks 3] [--dir DIR]

``--root`` is the checkout whose ``src`` is measured (default: this one);
its ``benchmarks/ledger`` supplies the studies, so two checkouts with the
same ledger compare run for run.  ``--dir`` is where the stores go (default:
a temporary directory); put it on the file system to be measured.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

LOADS = 18


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--blocks", type=int, default=3)
    parser.add_argument("--dir", default=None)
    args = parser.parse_args(argv)
    sys.path[:0] = [f"{args.root}/benchmarks/ledger", f"{args.root}/src"]
    import inputs
    import numpy as np

    from repro.core import QbismSystem
    from repro.db import register_spatial_functions
    from repro.db.persist import load_database
    from repro.medical.loader import MedicalLoader
    from repro.storage import BlockDevice

    syncs = {"n": 0, "ms": 0.0}
    plain_sync = BlockDevice.sync

    def timed_sync(self, offset, length):
        started = time.perf_counter()
        plain_sync(self, offset, length)
        syncs["n"] += 1
        syncs["ms"] += (time.perf_counter() - started) * 1e3

    BlockDevice.sync = timed_sync

    base = QbismSystem.build_demo(
        seed=1994, grid_side=32, n_pet=0, n_mri=0,
        band_encodings=inputs.BAND_ENCODINGS, wal=True, device_capacity=32 << 20)
    studies = inputs.ingest_studies(base.phantom, 1994)
    work = Path(tempfile.mkdtemp(dir=args.dir, prefix="file-backed-ingest-"))
    block_ms, sync_counts, sync_ms, problems = [], [], [], 0
    try:
        base.save(work / "template")
        for block in range(args.blocks):
            path = work / f"block{block}"
            shutil.copytree(work / "template", path)
            # room for the page-journaling format's records too
            db = load_database(path, wal=True, journal_capacity=16 << 20)
            register_spatial_functions(db)
            loader = MedicalLoader(db, db.lfm, encodings=inputs.BAND_ENCODINGS)
            patient = loader.register_patient(
                "ledger", "1990-01-01", "F", 33).patient_id
            times, loaded = [], []
            n0, ms0 = syncs["n"], syncs["ms"]
            for k in range(LOADS):
                modality, data, warp = studies[k % len(studies)]
                started = time.perf_counter()
                study_id = loader.load_study(
                    data, modality, patient, base.atlas, base.phantom.grid,
                    warp=warp)
                times.append((time.perf_counter() - started) * 1e3)
                loaded.append((study_id, data))
            block_ms.append(statistics.median(times))
            sync_counts.append((syncs["n"] - n0) / LOADS)
            sync_ms.append((syncs["ms"] - ms0) / LOADS)
            db.lfm.device.close()
            reopened = load_database(path, wal=True, journal_capacity=16 << 20)
            reader = MedicalLoader(reopened, reopened.lfm)
            problems += sum(not np.array_equal(reader.read_raw_study(sid), data)
                            for sid, data in loaded)
            reopened.lfm.device.close()
            shutil.rmtree(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "root": args.root,
        "load_ms_by_block": [round(ms, 3) for ms in block_ms],
        "load_ms": round(statistics.median(block_ms), 3),
        "syncs_per_load": statistics.median(sync_counts),
        "sync_ms_per_load": round(statistics.median(sync_ms), 3),
        "studies_differing_after_reopen": problems,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
