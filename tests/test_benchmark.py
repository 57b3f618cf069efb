"""The benchmark's traced runs of every workload finish and check out: with
spans around every layer, each job's output is still correct and none
fails."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["counting", "algebra", "free-probability"])
def test_traced_run_is_correct(workload, tmp_path):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, HOME=str(tmp_path)))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
