"""§4.2 / §4.1 run-count ratios (and the [9] rectangle ratio).

The paper measures, over its atlas-structure and intensity-band REGIONs,

    (#h-runs) : (#z-runs) : (#oblong octants) : (#octants)
        = 1 : 1.27 : 1.61 : 2.42        (scatter plots ~linear)

and cites the analytic 1 : 1.20 for random 3-D rectangles from Faloutsos &
Roseman.  §4.1 restates the first ratio as "the Z ordering yields about 27%
more runs".  This benchmark regenerates both series: the anatomy/band sweep
from the loaded database, and a random-rectangle sweep.
"""

from __future__ import annotations

import numpy as np
from conftest import bench_grid_side, emit

from repro.bench import PAPER_RUN_RATIOS, ratio_line
from repro.curves import GridSpec
from repro.regions import Region

METHOD_NAMES = ("h-runs", "z-runs", "oblong", "octants")


def collect_counts(region: Region) -> tuple[int, int, int, int]:
    z_region = region.reorder("morton")
    return (
        region.run_count,
        z_region.run_count,
        int(z_region.oblong_octants()[0].size),
        int(z_region.octants()[0].size),
    )


def load_regions(system) -> dict[str, Region]:
    """All atlas structures plus every stored Hilbert band REGION."""
    regions = dict(system.phantom.structures)
    result = system.db.execute(
        "select studyId, low, region from intensityBand where encoding = 'hilbert-naive'"
    )
    for study_id, low, handle in result:
        region = Region.from_bytes(system.lfm.read(handle))
        if region.voxel_count:
            regions[f"band-{study_id}-{low}"] = region
    return regions


def test_run_ratios_brain_regions(paper_system, results_dir, benchmark):
    regions = load_regions(paper_system)
    sample = regions["ntal1"]
    benchmark(collect_counts, sample)

    counts = np.array([collect_counts(r) for r in regions.values()], dtype=np.float64)
    totals = counts.sum(axis=0)
    lines = [
        f"grid side: {bench_grid_side()} (paper: 128); {len(regions)} REGIONs "
        "(structures + stored bands)",
        ratio_line("paper  ", PAPER_RUN_RATIOS, METHOD_NAMES),
        ratio_line("measured", totals, METHOD_NAMES),
    ]
    # The paper's scatter plots are near-linear: report correlation of each
    # method's counts against h-run counts.
    for i, name in enumerate(METHOD_NAMES[1:], start=1):
        r = np.corrcoef(counts[:, 0], counts[:, i])[0, 1]
        lines.append(f"corr(h-runs, {name}) = {r:.3f}  (paper: 0.97-1.00)")
    excess = totals[1] / totals[0] - 1.0
    lines.append(f"z-run excess over h-runs: {excess:.0%}  (paper §4.1: ~27%)")
    emit(results_dir, "run_ratios_brain", "\n".join(lines))

    # Orderings the paper reports must hold in aggregate.
    assert totals[0] < totals[1] < totals[2] < totals[3]
    # And h-runs win for the overwhelming majority of individual regions
    # (individual odd shapes can flip the order by a small margin).
    wins = (counts[:, 0] <= counts[:, 1]).mean()
    assert wins > 0.9, f"Hilbert only beat Z on {wins:.0%} of regions"


def test_run_ratios_random_rectangles(results_dir, benchmark):
    """The [9] result: h-runs : z-runs ~ 1 : 1.2 over random 3-D rectangles."""
    side = min(64, bench_grid_side())
    grid = GridSpec((side,) * 3)
    rng = np.random.default_rng(9)

    def one_rectangle():
        lower = rng.integers(0, side - 2, 3)
        upper = lower + 1 + rng.integers(1, side // 2, 3)
        upper = np.minimum(upper, side)
        region = Region.from_box(grid, tuple(lower), tuple(upper))
        return region.run_count, region.reorder("morton").run_count

    benchmark(one_rectangle)

    counts = np.array([one_rectangle() for _ in range(150)], dtype=np.float64)
    totals = counts.sum(axis=0)
    ratio = totals[1] / totals[0]
    text = "\n".join(
        [
            f"150 random rectangles in {side}^3",
            ratio_line("paper [9]", (1.0, 1.20), ("h-runs", "z-runs")),
            ratio_line("measured ", totals, ("h-runs", "z-runs")),
        ]
    )
    emit(results_dir, "run_ratios_rectangles", text)
    # Small rectangles on coarse grids inflate the ratio; the paper's 1.20
    # is the analytic average over all rectangles.
    assert 1.0 <= ratio < 2.0
