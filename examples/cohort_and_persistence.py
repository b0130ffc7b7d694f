#!/usr/bin/env python3
"""Cohort queries, spatial indexing, and persistence — the system extensions.

Demonstrates the features this reproduction adds around the paper's core:

1. the §1 flagship cohort query ("PET studies of women aged 30-60 with
   high activity in the hippocampus") via `find_studies`,
2. relational indexes and their effect on rows scanned,
3. the §7 spatial index: locating structures a probe box intersects,
4. saving the whole database to disk and reopening it.

Run:  python examples/cohort_and_persistence.py [save_dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core import QbismSystem
from repro.medical import MedicalLoader


def main() -> None:
    save_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp()) / "qbism"

    print("Building the database (64^3 atlas, 5 PET studies)...")
    system = QbismSystem.build_demo(seed=11, grid_side=64, n_pet=5, n_mri=0)

    # -- 1. the cohort query --------------------------------------------- #
    print("\n[1] PET studies of women aged 30-60 with hippocampal activity > 120:")
    result = system.server.find_studies(
        "hippocampus_l", min_mean_intensity=120.0, sex="F", min_age=30, max_age=60
    )
    if result.rows:
        for study_id, name, age, sex, mean in result.rows:
            print(f"    study {study_id}: {name} ({sex}, {age}) — mean {mean:.1f}")
    else:
        print("    (no study matches; relaxing the demographic filter)")
        for study_id, name, age, sex, mean in system.server.find_studies(
            "hippocampus_l", 0.0
        ).rows:
            print(f"    study {study_id}: {name} ({sex}, {age}) — mean {mean:.1f}")
    print("    the whole filter ran inside the DBMS: joins + dataMean(extractVoxels(...))")

    # -- 2. relational indexes ------------------------------------------- #
    print("\n[2] Hash indexes on the join columns:")
    sql = (
        "select count(*) from warpedVolume wv, intensityBand b "
        "where wv.studyId = b.studyId and b.encoding = 'hilbert-naive'"
    )
    before = system.db.execute(sql)
    loader = MedicalLoader(system.db, system.lfm)
    loader.create_standard_indexes()
    after = system.db.execute(sql)
    print(f"    rows scanned for a study-band join: "
          f"{before.work.rows_scanned} -> {after.work.rows_scanned}")
    print("    " + system.db.explain(sql).splitlines()[1].strip())

    # -- 3. the spatial index -------------------------------------------- #
    print("\n[3] Which structures does a biopsy probe box intersect?")
    box = ((18, 18, 16), (30, 30, 26))
    names, indexed = system.server.structures_intersecting_box(*box)
    _, naive = system.server.structures_intersecting_box(*box, use_index=False)
    print(f"    box {box[0]}..{box[1]} hits: {', '.join(names)}")
    print(f"    page I/Os with bounding-box prefilter: {indexed.io.pages_read}; "
          f"without: {naive.io.pages_read}")

    # -- 4. persistence ---------------------------------------------------- #
    print(f"\n[4] Saving the database to {save_dir} and reopening it...")
    system.save(save_dir)
    reopened = QbismSystem.load(save_dir)
    outcome = reopened.query_structure(reopened.pet_study_ids[0], "thalamus",
                                       render_mode=None)
    print(f"    reopened system answers queries: thalamus has "
          f"{outcome.data.voxel_count} voxels, mean {outcome.data.mean():.1f}")
    print(f"    on-disk size: "
          f"{sum(f.stat().st_size for f in save_dir.iterdir()) >> 20} MiB")


if __name__ == "__main__":
    main()
