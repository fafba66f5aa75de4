"""Identity-suite rows pinned to their recorded values.

The rows of ``run_identities`` for the five small catalog scenarios at seed 1
and 100 points.  A change to how a suite evaluates its points must keep every
verdict, point count and note, and every ``max_residual`` within 1e-13
absolute.  The hopf-s3 and warped-hopf rows were re-recorded when the suites
moved from central-difference second derivatives to the exact second jets of
the scenario's own map, and the pushforward_parallelism,
semiconformal_divergence, codifferential_expansion and tension_agreement rows
when the induced F's partials and delta(phi*Omega) became exact.  The
pullback_metric_derivative, vertical_codifferential and stress_energy rows
were re-recorded when their last stencils went: the exact jet of phi^*h, the
frame-free eigenframe trace and the exact delta(phi*Omega) on all 100 points
(the vertical_codifferential row had read the first 60).  Both sides of every
identity now come from exact jets, and the rows read roundoff.
"""

import numpy as np
import pytest

from phwc_lab import autodiff, scenarios
from phwc_lab.maps import fibre_splitting
from phwc_lab.report import RunConfig, run_checks, run_identities
from phwc_lab.scenarios import build_scenario, scenario_ids
from phwc_lab.stability import vertical_codifferential_formula
from phwc_lab.suites import SAMPLE_MARGIN, identity_suites

# (suite, scenario, points, max_residual, tolerance, passed, note)
GOLDEN_ROWS = [
    ("pullback_metric_derivative", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("pushforward_parallelism", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("semiconformal_divergence", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("codifferential_expansion", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("vertical_codifferential", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("tension_agreement", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("stress_energy", "flat-holo", 100, 0.0, 0.0001, True, ""),
    ("pullback_metric_derivative", "hopf-s3", 100, 4.363176486776865e-14, 0.0001, True, ""),
    ("pushforward_parallelism", "hopf-s3", 100, 4.740913939653304e-14, 0.0001, True, ""),
    ("semiconformal_divergence", "hopf-s3", 100, 4.082845198590155e-14, 0.0001, True, ""),
    ("codifferential_expansion", "hopf-s3", 100, 5.42008076923649e-14, 0.0001, True, ""),
    ("vertical_codifferential", "hopf-s3", 100, 2.220446049250313e-15, 0.0001, True, ""),
    ("sasakian_bracket", "hopf-s3", 100, 1.7763568394002505e-15, 0.0001, True, ""),
    ("tension_agreement", "hopf-s3", 100, 4.351619476672176e-14, 0.0001, True, ""),
    ("stress_energy", "hopf-s3", 100, 5.751132908746289e-15, 0.0001, True, ""),
    ("pullback_metric_derivative", "hopf-s3-s2", 100, 8.881784197001252e-16, 0.0001, True, ""),
    ("pushforward_parallelism", "hopf-s3-s2", 100, 7.793832791651159e-15, 0.0001, True, ""),
    ("semiconformal_divergence", "hopf-s3-s2", 100, 7.882583474838611e-15, 0.0001, True, ""),
    ("codifferential_expansion", "hopf-s3-s2", 100, 7.564043896682558e-15, 0.0001, True, ""),
    ("vertical_codifferential", "hopf-s3-s2", 100, 2.220446049250313e-15, 0.0001, True, ""),
    ("sasakian_bracket", "hopf-s3-s2", 100, 1.7763568394002505e-15, 0.0001, True, ""),
    ("tension_agreement", "hopf-s3-s2", 100, 7.993605777301127e-15, 0.0001, True, ""),
    ("stress_energy", "hopf-s3-s2", 100, 2.303946991008372e-15, 0.0001, True, ""),
    ("pullback_metric_derivative", "product-proj", 100, 4.5196971172523804e-17, 0.0001, True, ""),
    ("pushforward_parallelism", "product-proj", 100, 8.899063632419957e-15, 0.0001, True, ""),
    ("semiconformal_divergence", "product-proj", 100, 9.511749000407646e-15, 0.0001, True, ""),
    ("codifferential_expansion", "product-proj", 100, 1.0617986924076195e-14, 0.0001, True, ""),
    ("vertical_codifferential", "product-proj", 100, 0.0, 0.0001, True, ""),
    ("tension_agreement", "product-proj", 100, 9.511749000407646e-15, 0.0001, True, ""),
    ("stress_energy", "product-proj", 100, 4.2585450277779854e-16, 0.0001, True, ""),
    ("pullback_metric_derivative", "warped-hopf", 100, 5.287437154777308e-14, 0.0001, True, ""),
    ("pushforward_parallelism", "warped-hopf", 100, 9.189605674370475e-14, 0.0001, True, ""),
    ("semiconformal_divergence", "warped-hopf", 100, 5.876542147720786e-14, 0.0001, True, ""),
    ("codifferential_expansion", "warped-hopf", 100, 1.5197479498302208e-13, 0.0001, True, ""),
    ("vertical_codifferential", "warped-hopf", 100, 4.440892098500626e-15, 0.0001, True, ""),
    ("tension_agreement", "warped-hopf", 100, 8.597182678683631e-14, 0.0001, True, ""),
    ("stress_energy", "warped-hopf", 100, 1.1102230246251565e-14, 0.0001, True, ""),
]

SCENARIOS = ("flat-holo", "hopf-s3", "hopf-s3-s2", "product-proj", "warped-hopf")


@pytest.mark.parametrize("sid", SCENARIOS)
def test_identity_rows_match_golden(sid):
    rows = run_identities(sid, n_points=100, seed=1)
    want = [g for g in GOLDEN_ROWS if g[1] == sid]
    assert [r["suite"] for r in rows] == [g[0] for g in want]
    for r, (suite, scenario, points, max_residual, tol, passed, note) in zip(rows, want):
        assert (r["suite"], r["scenario"], r["points"]) == (suite, scenario, points)
        assert (r["tolerance"], r["passed"], r["note"]) == (tol, passed, note)
        assert abs(r["max_residual"] - max_residual) <= 1e-13, (suite, r["max_residual"])


@pytest.mark.parametrize("sid, certifies", [
    ("hopf-s3", True), ("warped-hopf", True), ("flat-holo", False), ("product-proj", False),
])
def test_vertical_codifferential_rows_that_certify(sid, certifies):
    # the first 20 of the suite's points at seed 1, with its vertical vectors:
    # only a non-zero left side tests the eigenframe formula; on an integrable
    # horizontal distribution both sides vanish and the row passes vacuously
    sc = build_scenario(sid, validate=False)
    pts = sc.domain.random_points(np.random.default_rng(1), 20, margin=0.05)
    Vs = np.array([fibre_splitting(sc.map, p).vertical[:, 0] for p in pts])
    lhs, rhs = vertical_codifferential_formula(sc.map, sc.J, Vs, pts)
    if certifies:
        assert np.min(np.abs(lhs)) > 0.5
        assert np.max(np.abs(lhs - rhs)) < 1e-4
    else:
        assert np.all(lhs == 0.0) and np.all(rhs == 0.0)


@pytest.mark.parametrize("sid", scenario_ids())
def test_vertical_codifferential_splits_the_fibres_once(sid, monkeypatch):
    from phwc_lab import suites

    calls = []
    real = suites.fibre_splitting
    monkeypatch.setattr(suites, "fibre_splitting", lambda *a, **k: calls.append(1) or real(*a, **k))
    sc = build_scenario(sid, validate=False)
    rows = suites.identity_suites(sc, n_points=100, seed=1)
    assert len(calls) == 1
    (row,) = [r for r in rows if r.suite == "vertical_codifferential"]
    assert row.n_points == 100


def test_no_stencil_in_a_catalog_sweep_pass(monkeypatch):
    # what one pass of the catalog-sweep benchmark runs: a validated build,
    # every check and the identity suites at 100 points, on its five
    # scenarios.  Every derivative is exact: no central-difference stencil
    # runs (31 ran, 17 040 rows, while the suites differenced their direct
    # sides and eigenframes)
    monkeypatch.setattr(scenarios, "_CACHE", {})
    real, rows = autodiff._stencil, []
    monkeypatch.setattr(
        autodiff, "_stencil", lambda f, x, h: rows.append(2 * np.size(x)) or real(f, x, h)
    )
    for sid in SCENARIOS:
        build_scenario(sid, validate=True)
        run_checks(RunConfig(sid, seed=1))
        run_identities(sid, n_points=100, seed=1)
    assert rows == []


def test_the_suites_take_the_exact_second_jet_of_the_scenario_map(monkeypatch):
    # phi's second jet at the suite points is one Jet2 evaluation, the one
    # the checks read: no first jet of phi, on the 2m*N-row stencil batch or
    # any other, is asked for inside it (memo hit or not), and its second
    # derivatives are the exact ones
    sc = build_scenario("hopf-s5")
    expr, n = sc.map.expr, 100
    real_jet, real_second = autodiff.tensor_jet, autodiff._second
    inside, jets_inside, seconds = [False], [], []

    def jet(fn, x, *args):
        if fn is expr and inside[0]:
            jets_inside.append(len(x))
        return real_jet(fn, x, *args)

    def second(fn, x, *args):
        inside[0] = True
        try:
            out = real_second(fn, x, *args)
        finally:
            inside[0] = False
        if fn is expr:
            seconds.append((np.array(x), out))
        return out

    monkeypatch.setattr(autodiff, "tensor_jet", jet)
    monkeypatch.setattr(autodiff, "_second", second)
    identity_suites(sc, n, seed=1)
    pts = sc.domain.random_points(np.random.default_rng(1), n, margin=SAMPLE_MARGIN)
    assert jets_inside == []
    (out,) = [out for x, out in seconds if np.array_equal(x, pts)]
    exact = autodiff._forward_eval(expr, pts, autodiff.Jet2)[3]
    assert np.array_equal(out[2], exact.reshape(out[2].shape))
