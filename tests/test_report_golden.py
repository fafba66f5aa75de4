"""Report bodies pinned to their recorded values.

Every check's ``run_checks`` body on each catalog scenario at seed 1,
recorded in ``golden/run_checks_<scenario>[_order<k>]_seed1.json``.  Keys,
strings, booleans and integers must match exactly; floats within 1e-10
relative, which admits a change of summation order and nothing more.

hopf-s7 runs at quadrature order 3 to keep the suite short.  At that order
its ``hessian`` check does not match its expected verdict: the fixed
neutrality tolerance (2e-2) is below the order-3 quadrature error, so the
recorded body has ``all_verdicts_match: false``.  The file pins that
mismatch as it stands; it does not hide it.

The ``hessian`` check of hopf-s5 over all six Killing generators orthogonal
to the Reeb field (``hessian_generators=0``, the benchmark's ``killing-s5``
configuration) is pinned in ``golden/run_checks_hopf-s5_hessian_all_generators_seed1.json``
under the same rules.

Every scenario's identity table, ``run_identities(sid, n_points=100,
seed=1)``, recorded in ``golden/identities_<scenario>_seed1.json`` as the
`identities --json` subcommand writes it.  These must match byte for byte:
sharing an evaluation between suites or checks moves no bit of a residual.
Changing how a derivative is taken does: the hopf-s3, hopf-s5, hopf-s7 and
warped-hopf tables were re-recorded (six rows each) when the suites moved
from central-difference second derivatives of a copy of the map to the exact
second jets of the scenario's own map, which the checks read.  The
pushforward_parallelism, semiconformal_divergence, codifferential_expansion
and tension_agreement rows of the six non-flat tables, and the run bodies'
equivalence, semiconformal divergence_identity, tension_two_routes, weyl and
stability cond_a/cond_b values, were re-recorded when the induced F's
partials, delta(phi*Omega) and O'Neill's A became exact, and ``config``
lost ``fd_step``: no run entry differentiates by a step.  The
pullback_metric_derivative, vertical_codifferential and stress_energy rows of
every table were re-recorded when the suites' last stencils went (the exact
jet of phi^*h, the frame-free eigenframe trace, the exact delta(phi*Omega)),
and vertical_codifferential went from the first 60 points to all 100.
"""

import json
from pathlib import Path

import pytest

from phwc_lab.report import RunConfig, run_checks, run_identities
from phwc_lab.scenarios import scenario_ids

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-10
# scenario -> quadrature order (None: the catalog order)
CASES = {
    "flat-holo": None,
    "hopf-s3": None,
    "hopf-s3-s2": None,
    "hopf-s5": None,
    "hopf-s7": 3,
    "product-proj": None,
    "warped-hopf": None,
}


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


@pytest.mark.parametrize("scenario", sorted(CASES))
def test_bodies_match_golden(scenario):
    order = CASES[scenario]
    stem = scenario if order is None else f"{scenario}_order{order}"
    cfg = RunConfig(scenario_id=scenario, seed=1, quadrature_order=order)
    body = json.loads(json.dumps(run_checks(cfg)))
    want = json.loads((GOLDEN / f"run_checks_{stem}_seed1.json").read_text())
    assert _mismatches(body, want) == []


def test_all_generator_hessian_body_matches_golden():
    cfg = RunConfig(scenario_id="hopf-s5", checks=("hessian",), seed=1, hessian_generators=0)
    body = json.loads(json.dumps(run_checks(cfg)))
    want = json.loads((GOLDEN / "run_checks_hopf-s5_hessian_all_generators_seed1.json").read_text())
    assert _mismatches(body, want) == []


@pytest.mark.parametrize("scenario", scenario_ids())
def test_identity_tables_match_golden(scenario):
    rows = run_identities(scenario, n_points=100, seed=1)
    got = json.dumps(rows, sort_keys=True, indent=1) + "\n"
    assert got == (GOLDEN / f"identities_{scenario}_seed1.json").read_text()
