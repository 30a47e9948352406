"""Smoke test of the benchmark runner at a few hundred tasks.

Not part of the tier-1 suite; run it with

    python3 -m pytest perfbench -q

It checks that both workloads run clean on two seeds, traced and untraced,
and print every metric BENCHMARK.json lists, with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 180


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    return proc


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, seed, trace):
    info, out = result(workload, seed, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, info["failures"]
    assert out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        for name in ("pipeline_s", "setup_s", "infer_s", "predict_s", "score_s", "peak_rss_mb"):
            assert out["metrics"][name]["value"] > 0, name
    env = info["env"]
    assert env["seed"] == seed and env["nproc"] >= 1 and env["numpy"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        _, out = result(workload, 2, 1)
        counts.append({k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["core.read_tasks.records"] > 0


def test_every_per_layer_metric_is_measured_somewhere():
    # a name BENCHMARK.json lists but the tracer never produces reads 0 everywhere
    outs = [result(w["name"], 0, 1)[1]["metrics"] for w in SPEC["workloads"]]
    silent = [m["name"] for m in SPEC["per_layer"]
              if not any(out[m["name"]]["value"] for out in outs)]
    assert not silent


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "pipeline", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
