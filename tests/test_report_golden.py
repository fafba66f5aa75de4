"""Report bodies pinned to their recorded values.

Every check's ``run_checks`` body on hopf-s3 at seed 1, recorded in
``golden/run_checks_hopf-s3_seed1.json``.  Keys, strings, booleans and
integers must match exactly; floats within 1e-10 relative, which admits a
change of summation order and nothing more.
"""

import json
from pathlib import Path

from phwc_lab.report import RunConfig, run_checks

GOLDEN = Path(__file__).parent / "golden" / "run_checks_hopf-s3_seed1.json"
REL_TOL = 1e-10


def _mismatches(got, want, path="body"):
    """Paths at which ``got`` differs from ``want`` under the rules above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_hopf_s3_bodies_match_golden():
    body = json.loads(json.dumps(run_checks(RunConfig(scenario_id="hopf-s3", seed=1))))
    want = json.loads(GOLDEN.read_text())
    assert _mismatches(body, want) == []
