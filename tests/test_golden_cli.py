"""CLI output is byte-identical to the recorded goldens.

``perfbench/golden_cli.json`` maps each benchmark CLI command to its stdout,
recorded under ``PYTHONHASHSEED=0``. Each command runs here as a fresh
``python -m pathweights.cli`` process under the same seed, so drift in
determinant bits, path order or formatting fails the suite. ``fit`` reads a
sample the benchmark writes at run time and is left to the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", [c for c in GOLDEN if not c.startswith("fit ")])
def test_cli_output_matches_golden(command):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pathweights.cli", *command.split()], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN[command]
