"""Smoke tests: every demo script runs to completion, warning-free."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
