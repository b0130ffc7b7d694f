"""Ablation A6: the §7 spatial-indexing extension, quantified.

"Which structures does this probe intersect?" over the atlas population,
answered two ways: the cost-based planner probing the spatial index's
box column over ``atlasStructure.region`` (only candidate REGION payloads are
read for the exact test), versus the naive plan reading and exactly
testing *every* structure REGION (the prototype's behaviour).  The paper
proposed spatial indexing as future work; here we measure what it buys
at 128^3.

Beyond the human-readable text block, the run writes
``BENCH_ablation_spatial_index.json`` through
:func:`repro.bench.workloads.write_bench_json`, the writer of the Table 3/4
documents, so the index-on/index-off page I/Os sit in the same schema.
"""

from __future__ import annotations

import numpy as np
from conftest import bench_grid_side, emit

from repro.bench.workloads import write_bench_json

#: measured columns of the ablation document
ABLATION_COLUMNS = ("page_ios", "exact_tests")

N_PROBES = 20


def test_spatial_index_prefilter(paper_system, results_dir, benchmark):
    side = paper_system.atlas.resolution
    rng = np.random.default_rng(17)

    def random_probe():
        lo = rng.integers(0, side - side // 8, 3)
        hi = lo + rng.integers(2, max(3, side // 6), 3)
        return tuple(int(v) for v in lo), tuple(int(min(v, side)) for v in hi)

    probes = [random_probe() for _ in range(N_PROBES)]
    benchmark(paper_system.server.structures_intersecting_box, *probes[0])

    total = {"indexed": 0, "naive": 0}
    exact_tests = {"indexed": 0, "naive": 0}
    mismatches = 0
    for lower, upper in probes:
        names_i, r_i = paper_system.server.structures_intersecting_box(lower, upper)
        names_n, r_n = paper_system.server.structures_intersecting_box(
            lower, upper, use_index=False
        )
        if names_i != names_n:
            mismatches += 1
        total["indexed"] += r_i.io.pages_read
        total["naive"] += r_n.io.pages_read
        exact_tests["indexed"] += r_i.work.udf_calls
        exact_tests["naive"] += r_n.work.udf_calls

    io_ratio = total["indexed"] / total["naive"] if total["naive"] else 1.0
    text = "\n".join(
        [
            f"grid side: {bench_grid_side()}; {N_PROBES} random probe boxes "
            f"over {len(paper_system.structure_names())} structures",
            f"{'method':>10}  {'page I/Os':>9}  {'exact tests':>11}",
            f"{'naive':>10}  {total['naive']:>9}  {exact_tests['naive']:>11}",
            f"{'indexed':>10}  {total['indexed']:>9}  {exact_tests['indexed']:>11}",
            f"index-on/index-off page-I/O ratio: {io_ratio:.3f} "
            f"(I/O saved: {1 - io_ratio:.0%})",
        ]
    )
    emit(results_dir, "ablation_spatial_index", text)

    write_bench_json(
        results_dir / "BENCH_ablation_spatial_index.json", "ablation_spatial_index",
        paper_system, ABLATION_COLUMNS,
        {
            "naive": (("naive plan (every REGION read + tested)",
                       total["naive"], exact_tests["naive"]), ()),
            "indexed": (("spatial-index probe (candidates only)",
                         total["indexed"], exact_tests["indexed"]), ()),
        },
        n_probes=N_PROBES,
    )

    assert mismatches == 0, "index changed query answers"
    assert total["indexed"] <= total["naive"]
    assert exact_tests["indexed"] <= exact_tests["naive"]
    # the index must actually prefilter at full bench scale, not tie
    assert io_ratio < 1.0
