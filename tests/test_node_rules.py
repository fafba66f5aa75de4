"""The node residuals and the energies over the torus rules.

On a domain with periodic axes the ``phwc``, ``tension``, ``criticality``
and ``energy`` checks evaluate on the two torus rules of
``geometry.torus_rules`` instead of the full Gauss-Legendre rule.  These
tests hold them to the full rule and to closed forms, and show that their
``torus_invariance`` entries fail on a residual that depends on theta.
"""

import math

import numpy as np
import pytest

from phwc_lab import variational
from phwc_lab.report import ENERGIES, RunConfig, run_checks
from phwc_lab.scenarios import build_scenario
from phwc_lab.geometry import torus_rules
from phwc_lab.validation import RESIDUALS, TOLERANCES
from phwc_lab.variational import dirichlet_energy, fh_energy, fh_infinity_energy

NODE_ENTRIES = {
    "phwc": "phwc_commutator_nodes",
    "tension": "tension_nodes",
    "criticality": "criticality_nodes",
}
CHECKS = (*NODE_ENTRIES, "energy")


@pytest.fixture(scope="module", params=["hopf-s3", "hopf-s3-s2", "product-proj", "warped-hopf"])
def case(request):
    cfg = RunConfig(scenario_id=request.param, checks=CHECKS)
    return build_scenario(request.param), cfg, run_checks(cfg)["checks"]


def test_node_maxima_match_the_full_rule(case):
    sc, _, checks = case
    for name, key in NODE_ENTRIES.items():
        entry = checks[name]["residuals"][key]
        full = float(np.max(RESIDUALS[name].values(sc, sc.domain.quadrature.nodes)))
        assert abs(entry["max"] - full) < entry["tolerance"]
        assert entry["pass"] == (full < entry["tolerance"])
        assert checks[name]["residuals"]["torus_invariance"]["pass"]


def test_energies_match_the_full_rule(case):
    sc, cfg, checks = case
    full = fh_energy(sc.map, sc.J, cfg.alpha, p_exponent=cfg.p)
    for key in ENERGIES:
        want = getattr(full, key)
        assert abs(checks["energy"]["verdicts"][key] - want) <= 1e-12 * abs(want)
    assert checks["energy"]["residuals"]["torus_invariance"]["pass"]


@pytest.mark.parametrize("n", [2, 3])
def test_hopf_energies_meet_the_closed_forms(n):
    # catalog polar orders 6 (S^5) and 5 (S^7); measured 5.2e-10 and 4.0e-4.
    # The volume itself: tests/test_geometry.py::TestTorusRule
    sc = build_scenario(f"hopf-s{2 * n + 1}", validate=False)
    vol = 2 * np.pi ** (n + 1) / math.factorial(n)
    for rule in torus_rules(sc.domain):
        dirichlet = dirichlet_energy(sc.map, rule=rule)
        assert abs(dirichlet / (n * vol) - 1) < TOLERANCES["closed_form"]
        fh_infinity = fh_infinity_energy(sc.map, sc.J, rule=rule)
        assert abs(fh_infinity / (0.5 * n * vol) - 1) < TOLERANCES["closed_form"]


def test_without_periodic_axes_the_full_rule_is_kept():
    body = run_checks(RunConfig(scenario_id="flat-holo", checks=CHECKS))
    for check in body["checks"].values():
        assert "torus_invariance" not in check["residuals"]


# warped-hopf's first periodic axis, theta_0 of its S^3 chart
THETA0 = 1


def _theta_dependent(fn):
    """``fn`` (last argument: the points) times 1 + 0.1 cos theta_0."""
    return lambda *args: fn(*args) * (1 + 0.1 * np.cos(args[-1][:, THETA0]))


@pytest.mark.parametrize("name", ["tension", "criticality"])
def test_a_theta_dependent_residual_fails_torus_invariance(monkeypatch, name):
    # warped-hopf expects both residuals to fail, so the node entry keeps
    # its expected verdict and only torus_invariance can flip the match
    sid = "warped-hopf"
    sc = build_scenario(sid)  # registered before the residual is changed
    assert sc.domain.box.periodic[0] == THETA0
    cfg = RunConfig(scenario_id=sid, checks=(name,))
    assert run_checks(cfg)["checks"][name]["verdicts"]["matches_expected"]
    row = RESIDUALS[name]
    monkeypatch.setitem(RESIDUALS, name, row._replace(values=_theta_dependent(row.values)))
    check = run_checks(cfg)["checks"][name]
    assert check["residuals"][NODE_ENTRIES[name]]["pass"] is False
    assert check["residuals"]["torus_invariance"]["pass"] is False
    assert check["verdicts"]["matches_expected"] is False


def test_a_theta_dependent_energy_density_fails_torus_invariance(monkeypatch):
    sid = "warped-hopf"
    sc = build_scenario(sid)
    assert sc.domain.box.periodic[0] == THETA0
    cfg = RunConfig(scenario_id=sid, checks=("energy",))
    assert run_checks(cfg)["checks"]["energy"]["verdicts"]["matches_expected"]
    density = variational.energy_density
    monkeypatch.setattr(variational, "energy_density", _theta_dependent(density))
    check = run_checks(cfg)["checks"]["energy"]
    assert check["residuals"]["alpha_limit_identity"]["pass"]
    assert check["residuals"]["torus_invariance"]["pass"] is False
    assert check["verdicts"]["matches_expected"] is False


def test_a_theta_dependent_phwc_residual_fails_torus_invariance(monkeypatch):
    # a theta dependence of 1e-3 under a run tolerance of 1e-2 passes the
    # node entry; only torus_invariance can flip the match
    sid = "warped-hopf"
    build_scenario(sid)
    cfg = RunConfig(scenario_id=sid, checks=("phwc",), tolerances={"phwc": 1e-2})
    row = RESIDUALS["phwc"]
    monkeypatch.setitem(
        RESIDUALS, "phwc",
        row._replace(values=lambda sc, x: row.values(sc, x) + 1e-3 * np.cos(x[:, THETA0]) ** 2),
    )
    check = run_checks(cfg)["checks"]["phwc"]
    assert check["residuals"]["phwc_commutator_nodes"]["pass"]
    assert check["residuals"]["torus_invariance"]["pass"] is False
    assert check["verdicts"]["matches_expected"] is False
