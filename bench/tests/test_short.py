"""Short mode: every workload for one round of operations, untraced and
traced, and the refusal to run without the program's sources."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tracer
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(cwd, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round(workload, trace):
    proc = _run(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, run_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    run = json.loads(run_line)["run"]
    assert run["seed"] == 11 and run["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        if workload != "spectrum-cli":
            assert layers["quadrature.gauss_legendre.misses"] == 0
        if workload == "mesh-export":
            assert layers["solver.assemble.calls"] == layers["solver.eigh.calls"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "family-report", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    # op 0: refine [0, 10] holding two solve_channel spans of 3 and 4;
    # a set-up span (op -2) is left out of the per-operation figures
    names = list(tracer.LAYER_NAMES)
    idx = {n: i for i, n in enumerate(names)}
    tables = {
        "names": np.asarray(names),
        "name": np.asarray([idx["solver.refine"], idx["solver.solve_channel"],
                            idx["solver.solve_channel"], idx["solver.refine"]]),
        "start": np.asarray([0.0, 1.0, 5.0, 0.0]),
        "end": np.asarray([10.0, 4.0, 9.0, 1.0]),
        "parent": np.asarray([-1, 0, 0, -1]),
        "op": np.asarray([0, 0, 0, tracer.SETUP]),
        "count": np.asarray([1.0, 0.0, 0.0, 1.0]),
        "misses": np.asarray([0.0]),
    }
    out = tracer.layer_metrics(tables, n_ops=1)
    assert out["solver.refine.self_s"] == 3.0
    assert out["solver.solve_channel.self_s"] == 7.0
    assert out["solver.refine.calls"] == 1.0
    assert out["solver.refine.retries"] == 1.0
    assert out["solver.refine.kept_ratio"] == 0.5
