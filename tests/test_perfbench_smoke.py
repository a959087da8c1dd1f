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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_benchmark(workload, trace=0) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", ["pd-bottleneck", "bottleneck-linf", "bottleneck-l2"])
def test_benchmark_run_is_correct(workload):
    assert run_benchmark(workload)["failed"] == 0


def test_match_real_run_is_correct():
    # a round is four matchings and one `geomatch match --mode real` on 1200
    # elements with weights near 1e-11, which it matches and prints exactly
    assert run_benchmark("match-real")["failed"] == 0


def assert_traced_run_reports_every_layer(workload):
    result = run_benchmark(workload, trace=1)
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer"]} | {"trace.traced_s", "trace.untraced_s"}
    assert set(result["metrics"]) == want


def test_traced_match_real_run_reports_every_layer():
    # the traced pass wraps the implicit engine's per-phase functions and
    # reads counts off their arguments and results
    assert_traced_run_reports_every_layer("match-real")


@pytest.mark.parametrize("workload", ["pd-bottleneck", "bottleneck-linf", "bottleneck-l2"])
def test_traced_bottleneck_run_reports_every_layer(workload):
    # the traced pass wraps the searches, their decisions' flow calls and
    # integer_scale by their names in geomatch.bottleneck
    assert_traced_run_reports_every_layer(workload)
