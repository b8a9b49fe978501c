"""Run the fast demos end to end, so an API change cannot break them
unnoticed.

Each demo runs in its own interpreter with ``src`` on the path and must
exit 0 under ``-W error``, so a warning fails it as it fails the suite.
Demo 03 (proxy calibration sweep) is left out: it takes about 5 s,
against 1 to 2 s for the others.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_sketch_and_solve.py",
    "02_learned_sketches.py",
    "04_complexity_tracer.py",
    "05_shattering_families.py",
    "06_two_level_multigrid.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
