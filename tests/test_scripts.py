"""Smoke runs of the experiment scripts under scripts/."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--max-size", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_class_census_script():
    out = run_script("class_census.py")
    assert "MISMATCH" not in out
    rows = [line.split()[:4] for line in out.splitlines()[1:]]
    assert rows == [["1", "6", "6", "6"], ["2", "30", "30", "30"]]


def test_closure_scan_script():
    out = run_script("closure_scan.py")
    union, intersection = out.split("== intersection ==")
    assert "n=2: 30 sets, 465 pairs, closed" in union
    line = next(x for x in intersection.splitlines() if x.strip().startswith("n=2:"))
    assert "30 sets, 465 pairs, NOT closed" in line
