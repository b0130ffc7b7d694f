#!/usr/bin/env python3
"""The §2.1 scenario: an interactive brain-mapping session, step by step.

Reproduces the sample session the paper motivates — each step is one
database query, and every image the DX front end would show is written out
as a PGM file so you can open the results:

1. select a set of structures from the atlas and render them,
2. texture-map a patient's PET study onto a structure's surface,
3. histogram-segment the intensity range and find other regions in range,
4. compare a region against the same region of another PET study,
5. simulate targeting a beam and list the structures it intersects,
6. compare one study against its demographic subpopulation.

Run:  python examples/brain_mapping_session.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.core import QbismSystem, QuerySpec
from repro.regions import Region
from repro.viz import render_surface, render_textured_surface, to_pgm


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("session_output")
    out_dir.mkdir(exist_ok=True)

    print("Loading the database (64^3 atlas, 4 PET studies)...")
    system = QbismSystem.build_demo(seed=7, grid_side=64, n_pet=4, n_mri=0)
    study, other_study = system.pet_study_ids[:2]
    grid = system.phantom.grid

    # -- Step 1: render structures of a neural system ------------------- #
    print("\n[1] Structures of the 'motor' system, rendered from the atlas")
    rows = system.db.execute(
        """
        select ns.structureName
        from neuralSystem sy, systemStructure ss, neuralStructure ns
        where sy.systemName = 'motor' and sy.systemId = ss.systemId
              and ss.structureId = ns.structureId
        order by ns.structureName
        """
    )
    motor = [name for (name,) in rows]
    print(f"    members: {', '.join(motor)}")
    scene = system.phantom.structures[motor[0]]
    for name in motor[1:]:
        scene = scene.union(system.phantom.structures[name])
    path = to_pgm(render_surface(scene, axis=2), out_dir / "step1_motor_system.pgm")
    print(f"    wrote {path}")

    # -- Step 2: texture-map the PET study onto a structure ------------- #
    print("\n[2] PET data mapped onto the hemisphere surface (Figure 6c)")
    outcome = system.query_structure(study, "ntal1", render_mode="textured")
    path = to_pgm(outcome.image, out_dir / "step2_textured_hemisphere.pgm")
    print(f"    {outcome.data.voxel_count} voxels extracted; wrote {path}")

    # -- Step 3: histogram segmentation + in-range regions -------------- #
    print("\n[3] Histogram of the study, then every region in the hot band")
    full = system.query_full_study(study, render_mode=None)
    counts, edges = full.data.histogram(bins=8, value_range=(0, 256))
    for count, lo in zip(counts, edges[:-1]):
        bar = "#" * int(60 * count / counts.max())
        print(f"    {int(lo):>4}..{int(lo) + 31:<4} {count:>8}  {bar}")
    hot = system.query_band(study, 224, 255, render_mode=None)
    print(f"    hot band 224-255: {hot.data.voxel_count} voxels "
          f"in {hot.data.region.run_count} runs")

    # -- Step 4: compare a region across two studies -------------------- #
    print("\n[4] Same structure, two studies: mean activity in the thalamus")
    a = system.query_structure(study, "thalamus", render_mode=None)
    b = system.query_structure(other_study, "thalamus", render_mode=None)
    print(f"    study {study}: mean {a.data.mean():.1f}; "
          f"study {other_study}: mean {b.data.mean():.1f}")
    diff = a.data.values.astype(float) - b.data.values.astype(float)
    print(f"    voxel-wise |difference|: mean {np.abs(diff).mean():.1f}, "
          f"max {np.abs(diff).max():.0f}")

    # -- Step 5: beam targeting ----------------------------------------- #
    print("\n[5] Targeting a beam at the thalamus: which structures does it cross?")
    target = system.phantom.structures["thalamus"].centroid()
    # A cylinder of radius 1.5 voxels through (0, 0, target z), aimed in
    # the target's axial plane: voxels whose distance to the axis is <= 1.5.
    x, y, z = np.meshgrid(*(np.arange(side) for side in grid.shape), indexing="ij", sparse=True)
    aim = np.array(target[:2], dtype=float) / np.hypot(target[0], target[1])
    along = x * aim[0] + y * aim[1]
    beam = Region.from_mask(x * x + y * y + (z - target[2]) ** 2 - along * along <= 1.5 ** 2, grid)
    hits = []
    for name, region in sorted(system.phantom.structures.items()):
        overlap = beam.intersection(region).voxel_count
        if overlap:
            hits.append(f"{name} ({overlap} voxels)")
    print("    " + ("; ".join(hits) if hits else "no structures intersected"))
    path = to_pgm(render_surface(beam.union(scene), axis=2), out_dir / "step5_beam.pgm")
    print(f"    wrote {path}")

    # -- Step 6: compare with a subpopulation ---------------------------- #
    print("\n[6] The study against its subpopulation: voxel-wise average")
    mean_data, _ = system.server.average_in_structure(
        system.pet_study_ids, "thalamus"
    )
    subject = a.data.values.astype(float)
    z = (subject - mean_data.values) / (mean_data.values.std() + 1e-9)
    print(f"    subject-vs-population z-score: mean {z.mean():+.2f}, "
          f"extremes {z.min():+.2f}..{z.max():+.2f}")

    print(f"\nSession images are in {out_dir}/")


if __name__ == "__main__":
    main()
