"""Tests of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(workload, seed, trace, cwd=ROOT):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_smoke_matches_goldens_and_prints_every_end_to_end_metric():
    out = _result(_bench("smoke", 7, 0))
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == len(WORKLOADS["smoke"].ops)
    assert set(out["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_other_seed_checks_the_sampled_bound_instead_of_the_golden():
    out = _result(_bench("smoke", 12345, 0))
    assert out["correct"] and out["failed"] == 0


def test_traced_run_matches_goldens_and_prints_every_per_layer_metric():
    out = _result(_bench("smoke", 7, 1))
    assert out["correct"] and out["failed"] == 0
    metrics = {k: m["value"] for k, m in out["metrics"].items()}
    assert set(metrics) == _declared("per_layer")
    assert metrics["distance.codewords"] == 2**7 - 1 + 1000 + 2**4 - 1  # [14,7], sampled, [7,4]
    assert metrics["cyclo.minimal_polynomial_calls"] > 0
    assert metrics["gf.mul_calls"] > 0


def test_tampered_golden_is_a_failed_operation(tmp_path):
    goldens = json.loads(run.GOLDENS.read_text())["ops"]
    goldens["smoke.factor"]["stdout_sha256"] = "0" * 64
    runner = run.Runner(tmp_path, 7, goldens)
    ops = {op.name: op for op in WORKLOADS["smoke"].ops}
    assert runner.run(ops["smoke.factor"], trace=False).status == "stdout differs from golden"
    assert runner.run(ops["smoke.inner7"], trace=False).ok


def test_timed_out_operation_is_recorded_and_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.0)
    runner = run.Runner(tmp_path, 7, json.loads(run.GOLDENS.read_text())["ops"])
    rec = runner.run(WORKLOADS["smoke"].ops[2], trace=False)
    assert rec.status == "timeout" and runner.records == [rec]


def test_missing_input_is_a_failed_operation(tmp_path):
    runner = run.Runner(tmp_path, 7, json.loads(run.GOLDENS.read_text())["ops"])
    rec = runner.run(WORKLOADS["smoke"].ops[3], trace=False)
    assert rec.status == "missing input E1m3.cert"


def test_sampled_bound_below_the_floor_is_a_failed_operation():
    golden = json.loads(run.GOLDENS.read_text())["ops"]["smoke.sampled14"]
    op = next(op for op in WORKLOADS["smoke"].ops if op.name == "smoke.sampled14")
    old = f"distance_value = {golden['value']}\n"
    outputs = {
        "rc": 0,
        "stdout": "d ≤ 3 (sampled, 1000 trials, seed 5)\n",
        "files": {"E1m3s.cert": golden["file_text"].replace(old, "distance_value = 3\n")},
    }
    assert run.check_golden(op, outputs, golden, 5) == "sampled bound 3 below floor_min 4"


def test_refuses_to_run_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("smoke", 7, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
