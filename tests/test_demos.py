"""Smoke test: the quick demos run to completion.

Each demo runs in its own interpreter, as a user would start it, and must
exit with code 0.  Demo 04 (~9 s) and demo 06 (~44 s) are left out to keep
tier-1 short; 06 repeats second-variation work the acceptance tests cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_charts_and_quadrature.py",
    "02_hopf_map_geometry.py",
    "03_phwc_and_induced_structure.py",
    "05_equivalences_and_weyl.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
