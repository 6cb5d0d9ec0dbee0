"""Self-test of the benchmark: a minimal-length pass of every workload.

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a correct run exits 0, and that a corrupted reference digest
fails the correctness gate with exit code 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace=0, references=None, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    if references is not None:
        cmd += ["--references", references]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def assert_emits(result, specs):
    metrics = result["metrics"]
    assert set(metrics) == {spec["name"] for spec in specs}
    for spec in specs:
        entry = metrics[spec["name"]]
        assert entry["unit"] == spec["unit"], spec["name"]
        assert isinstance(entry["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_emitted(workload):
    proc, result = run_bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_emits(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0


def test_per_layer_metrics_emitted():
    proc, result = run_bench("ckks_ops", trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert_emits(result, SPEC["per_layer"])
    assert result["metrics"]["infer.math.ntt_calls"]["value"] > 0
    assert "tracing overhead" in proc.stdout


def test_corrupted_digest_trips_gate(tmp_path):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    digest = references["serve_des"]["cnn"]["digest"]
    references["serve_des"]["cnn"]["digest"] = "0" * len(digest)
    path = tmp_path / "references.json"
    path.write_text(json.dumps(references))
    proc, result = run_bench("serve_des", references=str(path))
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "report digest" in proc.stdout
