"""Smoke test for the Python demos: each runs to completion and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("world_tour.py", []),
    ("train_and_search.py", ["--epochs", "1"]),
    ("descriptor_invariance.py", []),
    ("scan_kernels.py", ["--reps", "1"]),
])
def test_demo_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
