"""Self-test of the benchmark: every workload at reduced size, same code path.

    python3 -m pytest bench/test_bench.py -q

Checks that BENCHMARK.json is well formed, that each workload emits every
metric BENCHMARK.json names with its unit in both modes, that two runs
with the same seed give identical accuracy figures, and that the benchmark
fails without a result when the library sources are absent.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def check_metrics(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_determinism(workload):
    info_a, result_a = parse(run(workload, 5, 0))
    info_b, result_b = parse(run(workload, 5, 0))
    check_metrics(result_a, SPEC["end_to_end"])
    check_metrics(result_b, SPEC["end_to_end"])
    # Iteration i of either run has the same inputs, so the same figures.
    common = min(len(info_a["accuracy"]), len(info_b["accuracy"]))
    assert common >= 1 and all(info_a["accuracy"])
    assert info_a["accuracy"][:common] == info_b["accuracy"][:common]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    info, result = parse(run(workload, 5, 1))
    check_metrics(result, SPEC["per_layer"])
    assert info["traced_iterations"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
