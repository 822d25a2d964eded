"""The benchmark harness at toy size, as fresh processes.

Each run checks its own outputs: the decomposition identity, path counts
from independent counters, and betweenness against the summed shares of the
all-pairs reports (which reads every entry of every report). A run reports
``"correct": true`` on the last line of its output only when every check
held. Raw results go to the ignored ``.perfbench/`` directory.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["dense-allpairs", "sparse-large", "cli-dietary"])
def test_perfbench_smoke_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
