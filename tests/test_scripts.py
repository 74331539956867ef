"""Smoke tests of the scripts in scripts/: each runs end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_reproduce_bounds_headline():
    proc = run_script("reproduce_bounds.py")
    assert proc.returncode == 0, proc.stderr
    assert "slopes <= 12" in proc.stdout

