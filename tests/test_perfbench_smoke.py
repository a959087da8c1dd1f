"""One short run of the benchmark per bottleneck workload: the benchmark's
own checks (witnesses within the bound, no perfect matching below it, by
scipy) must pass on the current sources."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pd-bottleneck", "bottleneck-linf"])
def test_benchmark_run_is_correct(workload):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
