"""Smoke tests: every demo imports and runs to completion.

Every demo is loaded without running its ``main``, so a library name a demo
imports that no longer exists fails here.  Every demo also runs in its
own interpreter, as a user would start it, and must exit with code 0.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_charts_and_quadrature.py",
    "02_hopf_map_geometry.py",
    "03_phwc_and_induced_structure.py",
    "04_energies_and_criticality.py",
    "05_equivalences_and_weyl.py",
    "06_second_variation.py",
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


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports(demo):
    namespace = runpy.run_path(str(ROOT / "demos" / demo), run_name="demo_import")
    assert callable(namespace["main"])
