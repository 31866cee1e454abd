"""Smoke tests for the demos: each runs to completion and prints."""

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


# the model geometry `rangeloop train` writes for the script's config.kv
WORKFLOW_MODEL_KV = """\
h=8
w=32
stage=8,2,2
stage=8,2,2
stage=8,2,2
spp_kernel=5
spp_depth=3
spp_mode=concat
olm_blocks=1
olm_e=0
olm_n=2
olm_conv_kernel=3
vlad_k=2
mlp_hidden=8
out_dim=8
"""


def test_cli_workflow_script(tmp_path):
    """demos/cli_workflow.sh, unedited, end to end: a ``rangeloop`` shim first
    on PATH runs the CLI module from this checkout."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "rangeloop"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m rangeloop.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["sh", str(ROOT / "demos" / "cli_workflow.sh"),
                           str(tmp_path / "work")],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "workflow complete" in proc.stdout
    assert (tmp_path / "work" / "ckpt" / "final.omck").is_file()
    assert (tmp_path / "work" / "ckpt" / "model.kv").read_text() == WORKFLOW_MODEL_KV
