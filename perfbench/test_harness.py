"""Smoke test of the benchmark harness at tiny inputs.

    python3 -m pytest perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced and untraced samples agree, that two seeds give the same
answers and the same work counts, that wrong answers are caught, and that
the harness refuses to run without the genus0 sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.loads(Path(ROOT, "BENCHMARK.json").read_text())


def _run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(workload, seed):
    spec = {"root": ROOT, "spawned": time.monotonic(), "workload": workload,
            "size": "tiny", "seed": seed, "trace": True}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    got = _run(workload, trace)
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in got["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(isinstance(v["value"], (int, float)) for v in got["metrics"].values())


@pytest.mark.parametrize("workload", ["psi_products", "kappa_splitting"])
def test_seeds_change_the_order_not_the_work(workload):
    one, two = _child(workload, 1), _child(workload, 2)
    assert one["answer"] == two["answer"]
    for span, field in (("taut.psi_monomial", "calls"),
                        ("keelring.mul_divisor", "computed")):
        assert one["spans"][span][field] == two["spans"][span][field]


@pytest.mark.parametrize("workload, answer", [
    ("tensor_square", {"status": 0, "stdout": '{"passed": true}\n'}),
    ("tensor_square", {"status": 1, "stdout": ""}),
    ("betti_certify", {"status": 0, "stdout": '{"betti": [1, 4, 1]}'}),
    ("psi_products", {}),
    ("kappa_splitting", {"1": {"passed": True, "failures": [], "checked": 12}}),
])
def test_wrong_answers_are_caught(workload, answer):
    assert workloads.check(workload, "tiny", answer) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "betti_certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
