"""The demo scripts run to completion against the current library."""

import os
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = [
    "01_sparse_coding.py",
    "02_mask_estimation.py",
    "03_dictionary_learning.py",
    "04_classification.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_runs(tmp_path):
    # the demo calls the occlucode console script; a shim on PATH runs the
    # CLI module of this checkout, whether or not the package is installed
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "occlucode"
    shim.write_text(
        f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m occlucode.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1",
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(
        ["sh", os.path.join(ROOT, "demos", "05_cli_pipeline.sh")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    run = tmp_path / "pipeline_run"
    for out in ("results/results.csv", "roc/roc.csv", "sweep/sweep.csv"):
        assert (run / out).is_file()
    sweep = (run / "sweep" / "sweep.csv").read_text().split()
    assert len(sweep) == 1 + 4  # header and the sizes 2, 5, 12, 24
