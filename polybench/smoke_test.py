"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest polybench/smoke_test.py -q

Runs ``run.py`` as a benchmark harness would (a fresh process from the repository
root) and checks that

* each workload's untraced and traced runs pass their output checks and
  print exactly the metrics ``BENCHMARK.json`` names, with their units;
* a corrupted job output (one polygon row dropped, or one caption byte
  changed for ``image_roundtrip``) counts as a failed job;
* without the engine beside it the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("grid_tiled", "skew_tiled", "image_roundtrip", "stitch_adaptive")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*extra: str, cwd: str = ROOT, timeout: float = 175.0):
    cmd = [sys.executable, "polybench/run.py", "--seed", "7", "--seconds", "2", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert context["attempted"] == result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_run_passes_and_names_every_metric(workload, trace):
    res = result_of(run("--workload", workload, "--trace", str(trace), "--size", "smoke"))
    assert res["correct"] and res["failed"] == 0, res
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values()), res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    res = result_of(run("--workload", workload, "--size", "smoke", "--corrupt"))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1


def test_missing_engine_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "polybench"),
        tmp_path / "polybench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run("--workload", "grid_tiled", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_layer_metric_has_a_prediction():
    sys.path.insert(0, ROOT)
    from polybench.layers import PER_LAYER, PREDICTIONS

    for name in PER_LAYER:
        assert any(name.startswith(prefix) for prefix in PREDICTIONS), name
