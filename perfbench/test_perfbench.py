"""Self-checks of the benchmark, on tiny instances of each workload.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("solver.minimize.nfev", "solver.lbfgs_iters", "solver.sweeps",
          "solver.unconverged")


def run(workload, trace, seed=0, cwd=ROOT, script=RUN):
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: [result(run(w, 1, seed)) for seed in (0, 1)] for w in WORKLOADS}


def check_metrics(lines, res, declared):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] is not None
        # the human-readable line carries the same metric with its unit
        assert any(line.startswith("metric ") and f" {m['name']} = " in line
                   and line.split(" = ")[1].split()[1] == m["unit"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, res = result(run(workload, 0))
    check_metrics(lines, res, SPEC["end_to_end"])
    assert any("op_p50_s" in line and "(n=" in line for line in lines)
    assert any(" fail_ratio = " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(traced, workload):
    for lines, res in traced[workload]:
        check_metrics(lines, res, SPEC["per_layer"])
        assert res["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert res["metrics"]["blas.single_thread_speedup"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced, workload):
    (_, first), (_, second) = traced[workload]
    names = [n for n in first["metrics"]
             if n.endswith((".calls", ".bytes")) or n in COUNTS]
    assert names
    for n in names:
        assert first["metrics"][n]["value"] == second["metrics"][n]["value"], n


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
