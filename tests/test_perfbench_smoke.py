"""One short run of the benchmark per workload: the benchmark's own checks
(exact values by scipy's maximum flow, witnesses within the bound, no perfect
matching below it) must pass on the current sources."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(workload) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", ["pd-bottleneck", "bottleneck-linf", "bottleneck-l2"])
def test_benchmark_run_is_correct(workload):
    assert run_benchmark(workload)["failed"] == 0


def test_match_real_run_is_correct():
    # a round is four matchings and one `geomatch match --mode real` on 1200
    # elements with weights near 1e-11, which `--numeric auto` runs exactly
    assert run_benchmark("match-real")["failed"] == 0
