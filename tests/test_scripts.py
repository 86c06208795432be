"""Smoke tests of the experiment scripts."""

import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def test_synthetic_experiment_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_synthetic_experiment.py"),
         "--size", "48", "--patches", "100", "--sweeps", "1", "--sigma", "15",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("psnr_fused=") for line in proc.stdout.splitlines())
    assert (tmp_path / "fused.pgm").exists()

