"""Smoke tests: the command-line scripts run to completion.

``scripts/resolution_table.py`` computes reduced Khovanov homology of the
whole resolution family and takes several seconds, so it is not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_markov_audit_runs_clean():
    proc = run_script("markov_audit.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "5 trials, 0 failure(s)" in proc.stdout


def test_bm_sweep_runs():
    proc = run_script("bm_sweep.py")
    assert proc.returncode == 0, proc.stderr
    assert "(1, 1, 1, 1)" in proc.stdout
