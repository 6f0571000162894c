"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_divopt()

import tracing  # noqa: E402
import workloads  # noqa: E402
from divopt import lp, ranking  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 2


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    """Shrink every workload to TINY fixtures."""
    for name, w in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(w, fixtures=TINY))


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(workload, trace):
    result, report = run.measure(workload, 7, 0, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], float | int) and math.isfinite(entry["value"])
    assert report["digests_agree"] and not report["failures"]
    if not trace:
        assert set(report["setup_phase_s_median"]) == {"generate", "io", "oracles"}
        assert len(report["reference_loop_ms"]) == report["setup_repeats"] - 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_main_prints_every_metric_with_its_unit_last(capsys, trace):
    args = ["--workload", "dispersion", "--seed", "3", "--seconds", "0", "--trace", trace]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert report["seed"] == 3 and report["solves_per_pass"] == TINY
    assert report["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_a_second_seed_runs_clean_on_other_inputs():
    first, rep1 = run.measure("dcg-rounding", 1, 0, False)
    second, rep2 = run.measure("dcg-rounding", 2, 0, False)
    assert first["correct"] and second["correct"]
    assert rep1["digest"] != rep2["digest"]


@pytest.mark.parametrize("workload", ["dcg-rounding", "diversify"])
def test_digest_is_the_same_with_tracing_on_and_off(workload):
    _, plain = run.measure(workload, 5, 0, False)
    traced_result, traced = run.measure(workload, 5, 0, True)
    assert traced_result["correct"]
    assert plain["digest"] == traced["digest"]


def test_tracer_restores_the_original_functions():
    before = (ranking.round_lp, lp.solve_lp, ranking.KnapsackCut.__dict__["to_constraint"])
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracing.SOLVE_TARGETS):
            assert ranking.round_lp is not before[0]
            raise RuntimeError
    after = (ranking.round_lp, lp.solve_lp, ranking.KnapsackCut.__dict__["to_constraint"])
    assert after == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    table = tracer.layer_table()
    assert table["inner"]["calls"] == 3 and table["outer"]["calls"] == 1
    assert table["outer"]["self_ns"] == table["outer"]["total_ns"] - table["inner"]["total_ns"]


def test_tableau_cells_counts_the_simplex_tableau():
    prog = lp.LinearProgram(2, [1.0, 1.0], upper=[1.0, math.inf])
    prog.add_constraint([1.0, 1.0], "==", 1.0)
    prog.add_constraint([1.0, -1.0], "<=", 0.5)
    # rows: 2 (split equality) + 1 (<=) + 1 (finite upper bound) = 4;
    # columns: 2 structural + 4 slack + 1 artificial + rhs = 8.
    assert tracing.tableau_cells(prog) == 5 * 8


def test_check_rejects_repeated_indices():
    w = workloads.WORKLOADS["dispersion"]
    fx = workloads.Fixture(0, None, n=5, p=3, optimum=1.0, baseline=0.0)
    bad = workloads.Outcome(0.5, (0, 0, 1))
    assert "distinct" in workloads.check(w, fx, bad)


def test_an_exception_counts_as_a_failed_solve(monkeypatch):
    def boom(fx, seed):
        raise ValueError("boom")

    broken = dataclasses.replace(workloads.WORKLOADS["dispersion"], solve=boom)
    monkeypatch.setitem(workloads.WORKLOADS, "dispersion", broken)
    result, report = run.measure("dispersion", 1, 0, False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert "ValueError: boom" in report["failures"][0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "dispersion", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
