"""The fast demos run end to end: each exits 0 with no traceback.

Demos 04 and 05 take tens of seconds and are left to a manual run."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_kernels_and_identities.py",
    "02_field_samples_and_girsanov.py",
    "03_maximum_law_and_prefactor.py",
    "06_scaling_and_diagnostics.py",
])
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
