"""Smoke test of the benchmark: every workload at toy sizes, in both modes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_declares_what_the_full_run_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == run.per_layer_names(workloads.FULL)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace):
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
               "--trace", str(trace), "--scale", "toy")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, p.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    if trace:
        expected = [(n, u) for n, u, _ in run.per_layer_names(workloads.TOY)]
        assert "digest check: equal" in p.stdout
    else:
        expected = list(run.END_TO_END)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tmp-*"))
    p = _bench("--workload", "couple", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
