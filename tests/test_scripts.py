"""Smoke test: each experiment script in scripts/ runs to completion at toy size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("gamma_sweep.py", ["--gammas", "0.6", "--seeds", "1", "--steps", "5", "--d", "3"]),
    ("shifted_ablation.py", ["--seeds", "1", "--steps", "5", "--d", "3"]),
    ("ngram_ablation.py", ["--runs", "2", "--max-tokens", "10"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
