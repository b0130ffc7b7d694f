"""Table 3: full-system run-time measurements for single-study queries.

Reproduces every row of the paper's Table 3 — Q1 (entire study), Q2
(71x71x71 rectangular solid), Q3/Q4 (anatomical structures), Q5 (intensity
band 224-255), Q6 (band inside structure) — and prints them interleaved
with the paper's numbers.  The I/O, run, voxel, and message columns are
measured from this implementation; elapsed columns come from the calibrated
1994 cost model.

The shape that must hold (and does): the full-study query dominates
everything, early spatial filtering cuts I/O and network traffic by an
order of magnitude, and Q6 costs less than either of its parts.
"""

from __future__ import annotations

from conftest import bench_grid_side, emit

from repro.bench import PAPER_TABLE3
from repro.bench.workloads import TABLE3_COLUMNS, run_table3, write_bench_json
from repro.core import format_table3


def test_table3(paper_system, results_dir, benchmark):
    sid = paper_system.pet_study_ids[0]
    # Micro-benchmark the paper's Q6 (the most complex single-study plan).
    benchmark(paper_system.query_mixed, sid, "ntal1", 224, 255, render_mode=None)

    q = {k: o.timing for k, o in run_table3(paper_system).items()}
    paper = {k: PAPER_TABLE3[k] for k in q}
    model_ratio = q["Q1"].starburst_real / q["Q1"].starburst_cpu
    emit(
        results_dir,
        "table3_single_study",
        f"grid side: {bench_grid_side()} (paper: 128); each row is followed by the paper's\n"
        + format_table3(list(q.values()), list(paper.values()))
        + f"\nQ1 SB real / SB cpu = {model_ratio:.1f}: a property of the calibrated "
        "1994 cost model, not a measurement",
    )
    write_bench_json(results_dir / "BENCH_table3.json", "table3", paper_system,
                     TABLE3_COLUMNS, {k: (t.as_row(), paper[k]) for k, t in q.items()})

    # The paper's conclusions, asserted on this run:
    # 1. the full-study query dominates every filtered query end to end;
    for key in ("Q2", "Q3", "Q4", "Q5", "Q6"):
        assert q[key].total_seconds < q["Q1"].total_seconds
        assert q[key].net_messages < q["Q1"].net_messages
    # 2. Q6 needs fewer I/Os than Q4 and Q5 combined;
    assert q["Q6"].lfm_page_ios < q["Q4"].lfm_page_ios + q["Q5"].lfm_page_ios
    # 3. at paper scale the DB is I/O bound.  Both Starburst columns come
    #    from the calibrated 1994 cost model, which prices each page read at
    #    the 1994 disk, so this is a property of that model, not a
    #    measurement (at toy scales the model's fixed CPU base dominates,
    #    so only checked at >= 64).
    if bench_grid_side() >= 64:
        assert model_ratio > 3
