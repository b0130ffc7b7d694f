"""Self-test of the performance ledger (smoke sizes; about a minute).

    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: workloads whose per-op counts do not depend on the seed or on timing
EXACT = ("paper_g64", "pool_direct_g32", "served_mixed_g32")


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_is_inside_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(NAMES) == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.units()


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        spans = ROOT / "benchmarks/results/ledger" / f"{workload}.spans.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"id", "name", "layer", "start", "end",
                              "parent", "op", "thread"}


@pytest.mark.parametrize("workload", EXACT)
def test_count_metrics_repeat_exactly_across_seeds(workload):
    one, other = smoke(workload, 0, seed=1), smoke(workload, 0, seed=2)
    for name in ("lfm_pages_read_per_op", "stored_bytes_per_user_byte"):
        assert one["metrics"][name] == other["metrics"][name]


def test_layer_self_times_add_up_to_the_op_wall():
    workload = WORKLOADS["pool_direct_g32"](seed=3, smoke=True)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, _ = run.measure(workload, 0.0, tracer)
    finally:
        tracer.uninstall()
    self_of = tracing.self_times(tracer.spans)
    in_ops = sum(self_of[s.id] for s in tracer.spans if s.op is not None)
    op_wall = sum(s.seconds for s in tracer.spans if s.name == "op")
    assert in_ops == pytest.approx(op_wall, rel=1e-9)
    unattributed = sum(self_of[s.id] for s in tracer.spans if s.name == "op")
    assert unattributed < 0.10 * op_wall
    names = {s.name for s in tracer.spans}
    assert {"db.sql.parse", "db.semantic.check", "db.planner.plan",
            "db.executor.execute", "db.database.execute"} <= names
    assert len(records) == len(workload.universe)


def test_no_wrapper_survives_even_in_a_module_imported_while_tracing():
    sys.modules.pop("repro.server.server", None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import repro.db.database
        assert hasattr(repro.db.database.parse, "__wrapped__")
        # imports parse by value while it is wrapped
        import repro.server.server
        assert hasattr(repro.server.server.parse, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracing.Tracer.survivors() == []
    assert not hasattr(repro.server.server.parse, "__wrapped__")


def test_a_wrong_reference_answer_is_a_failed_op():
    workload = WORKLOADS["pool_direct_g32"](seed=3, smoke=True)
    workload.setup()
    sql, expected = workload.universe[0]
    workload.universe[0] = (sql, expected + [("not", "the", "answer")])
    records, _ = run.measure(workload, 0.0)
    assert sum(1 for op in records if not op.ok) == 1


def test_timings_are_converted_to_the_nominal_speed():
    def op(client, start, seconds, ok=True):
        return run.Op("read", seconds, ok, client, 0, None, start)

    def half_speed(starts, ends):  # every interval is worth half its length
        return (np.asarray(ends) - np.asarray(starts)) / 2

    records = ([op(0, k * 0.004, 0.004) for k in range(10)]
               + [op(1, k * 0.002, 0.002) for k in range(10)])
    records[15] = op(1, 0.010, 0.002, ok=False)  # a failed op earns no rate
    rate, median, cpu = run.timing_metrics(records, {0: (1.0, 1.08)}, half_speed)
    assert rate == pytest.approx(10 / 0.020 + 9 / 0.010)
    assert median == pytest.approx(0.0015)
    assert cpu == pytest.approx(0.04 / 20)


def test_the_speed_sampler_integrates_the_machines_rate():
    sampler = probe.SpeedSampler()
    sampler._at = [0.0, 1.0]
    sampler._took = [probe.TICK_NOMINAL_S, 2 * probe.TICK_NOMINAL_S]
    # before the first tick the machine ran at nominal speed, after the
    # second at half of it
    assert sampler.nominal_seconds([-1.0, 2.0], [-0.5, 4.0]) == pytest.approx([0.5, 1.0])
    between = sampler.nominal_seconds([0.0], [1.0])[0]
    assert 0.5 < between < 1.0


def test_compare_verdicts(tmp_path):
    def runs(path, op_ms, pages):
        with open(path, "w") as out:
            for k, value in enumerate(op_ms):
                out.write(json.dumps({
                    "workload": "pool_direct_g32", "seed": k, "trace": 0,
                    "correct": True, "attempted": 10, "failed": 0,
                    "metrics": {
                        "op_ms_p50": {"value": value, "unit": "ms"},
                        "lfm_pages_read_per_op": {"value": pages, "unit": "count"},
                    }}) + "\n")
        return str(path)

    steady = [1.00, 1.01, 0.99, 1.02, 0.98]
    before = runs(tmp_path / "before.jsonl", steady, 3.0)
    assert compare.main([before, before]) == 0
    slower = runs(tmp_path / "slower.jsonl", [v * 1.4 for v in steady], 3.0)
    assert compare.main([before, slower]) == 1
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.1) == "within bound"
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [0.5] * 5, "lower", 0.1) == "improved"
    more_pages = runs(tmp_path / "pages.jsonl", steady, 3.9)
    assert compare.main([before, more_pages]) == 1


def test_exits_nonzero_without_a_result_where_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()
