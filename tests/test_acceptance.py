"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 3 sets the second variation of Killing-generated variations of the
generalized Hopf maps S^{2n+1} -> CP^n against the instability value
4(1-n) |X_v|^2 quoted from the literature.  Such variations flow along
isometries of the domain, so the energy is constant along them and, at a
critical map, their second variation is exactly 0.  The test asserts that
neutrality, checks the implemented Hessian against an independent second
difference of the energy, and asserts that 4(1-n) is refuted for n >= 2.  The
reduced integrand of the literature derivation does evaluate to
4(1-n) |X_v|^2 (criterion 3 supplementary), which isolates the defect to the
dropped exterior-derivative term.  Analysis: docs/criterion-3.md.
"""

import time

import numpy as np
import pytest

from oracles import random_variation_fields, variation_from_killing
from phwc_lab import autodiff
from phwc_lab.autodiff import field_partials
from phwc_lab.geometry import torus_rules, two_form_norm2
from phwc_lab.maps import tension_field_direct
from phwc_lab.report import RunConfig, report_json, run_checks
from phwc_lab.scenarios import build_scenario
from phwc_lab.stability import (
    hessian_matrix,
    hessian_suite,
    killing_fields_sphere,
    killing_span,
)
from phwc_lab.structures import phwc_residual
from phwc_lab.suites import identity_suites
from phwc_lab.variational import (
    criticality_residual,
    f_div_f,
    fh_energy,
    criticality_equivalence,
    weyl_compat_residual,
    z_field,
)


def announce(number, ok, detail):
    print(f"\nACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def hopf():
    return build_scenario("hopf-s3")  # order 24, registration-validated


@pytest.fixture(scope="module")
def warped():
    return build_scenario("warped-hopf")


def _norms(M, x, v):
    g = M.metric_at(x, check=False)
    return np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))


def test_criterion_1_hopf_pointwise_residuals():
    t0 = time.perf_counter()
    sc = build_scenario("hopf-s3")
    nodes = sc.domain.quadrature.nodes
    assert len(nodes) == 24**3
    r_phwc = float(np.max(phwc_residual(sc.map, sc.J, nodes)))
    jet = sc.map.second_jet(nodes)
    tau = tension_field_direct(sc.map, nodes)
    r_tau = float(np.max(_norms(sc.codomain, jet.y, tau)))
    r_crit = float(np.max(criticality_residual(sc.map, sc.J, nodes)))
    elapsed = time.perf_counter() - t0
    ok = r_phwc < 1e-9 and r_tau < 1e-5 and r_crit < 1e-4 and elapsed < 60.0
    announce(
        1,
        ok,
        f"hopf-s3 at all 24^3 nodes: phwc {r_phwc:.2e} < 1e-9, "
        f"tension {r_tau:.2e} < 1e-5, criticality {r_crit:.2e} < 1e-4, {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_2_z_field_vertical_value():
    results = []
    for sid, n in (("hopf-s3", 1), ("hopf-s5", 2)):
        sc = build_scenario(sid)
        rng = np.random.default_rng(0)
        pts = sc.domain.random_points(rng, 60, margin=0.04)
        z = z_field(sc.map, sc.J, pts)
        g = sc.domain.metric_at(pts, check=False)
        xi = sc.contact.xi_at(pts)
        vert = np.einsum("ni,nij,nj->n", z, g, xi)
        results.append(float(np.max(np.abs(vert + 2 * n))))
    ok = all(r < 1e-3 for r in results)
    announce(2, ok, f"Z vertical component = -2n within 1e-3: gaps {results}")
    assert ok


@pytest.fixture(scope="module")
def killing_hessians():
    # one evaluation per scenario gives the Hessian, |v|^2, the reduced
    # integrand and the Sasakian expansion of every filtered generator (the
    # diagonals of the Killing span's forms), on the hessian check's first
    # torus rule (one node per theta axis); the energy second-difference
    # oracle keeps the full rule
    out = {}
    for sid, n, order in (("hopf-s5", 2, 6), ("hopf-s7", 3, 4)):
        sc = build_scenario(sid, quad_order=order, validate=False)
        fam = killing_fields_sphere(n)
        gens = fam.perpendicular()
        fields = [variation_from_killing(sc.map, A) for A in gens]
        rules = torus_rules(sc.domain)[:1]
        [forms] = hessian_matrix(sc.map, sc.J, killing_span(sc.map, gens), rules, sc.contact)
        hess, norm2, reduced, sasakian = (np.diag(f) for f in forms)
        out[sid] = {
            "n": n, "scenario": sc, "fields": fields,
            "suite": list(zip(hess, norm2)),
            "sasakian": list(sasakian),
            "reduced": list(reduced / norm2),
        }
    return out


def test_criterion_3_sasakian_hessian_agreement(killing_hessians):
    worst = 0.0
    for sid, data in killing_hessians.items():
        for hs, (hv, n2) in zip(data["sasakian"], data["suite"]):
            # both values are ~0 at scale n2; agreement measured against the
            # larger of |hessian| and 1% of the natural scale
            gap = abs(hs - hv) / max(abs(hv), 0.01 * n2)
            worst = max(worst, gap)
    ok = worst < 1e-2
    announce(3, ok, f"sasakian_hessian vs hessian agreement: worst {worst:.2e} < 1e-2")
    assert ok


def test_criterion_3_supplementary_reduced_integrand(killing_hessians):
    worst = 0.0
    for sid, data in killing_hessians.items():
        target = 4.0 * (1 - data["n"])
        for r in data["reduced"]:
            worst = max(worst, abs(r - target) / abs(target))
    ok = worst < 1e-2
    announce(
        3,
        ok,
        "supplementary: final-proof reduced integrand = 4(1-n)|X|^2 within 1% "
        f"(worst {worst:.2e}) for every filtered generator",
    )
    assert ok


def _energy_second_difference(sc, v):
    """Hess(v, v) as a second difference of E^inf along the curve y + t v.

    The chart-linear curve has velocity v at the quadrature nodes; at a
    critical map the acceleration term drops out, so the Richardson second
    difference (steps 2e-3, 1e-3) equals the second variation.  It does not
    call stability.hessian.
    """
    M = sc.domain
    nodes = M.quadrature.nodes
    jet = sc.map.jet(nodes)
    vv = v.v_at(nodes)
    dv = field_partials(v.v_at, nodes, autodiff.FD_STEP)

    def energy(t):
        d = jet.dphi + t * dv
        pb = np.swapaxes(d, -1, -2) @ sc.J.omega_at(jet.y + t * vv) @ d
        return 0.5 * M.integrate(two_form_norm2(M, nodes, pb))

    e0 = energy(0.0)
    second = lambda d: (energy(d) - 2 * e0 + energy(-d)) / d**2
    return (4 * second(1e-3) - second(2e-3)) / 3


# |Hess/|X_v|^2| bound at the fixture's quadrature orders (measured maxima
# 2.2e-4 on hopf-s5 at order 6 and 0.19 on hopf-s7 at order 4)
NEUTRALITY_BOUND = {"hopf-s5": 1e-3, "hopf-s7": 0.25}


def test_criterion_3_instability_value(killing_hessians):
    """Killing variations are neutral, and the literature value 4(1-n) is refuted.

    Killing-generated variations flow along isometries of the domain, so the
    energy is constant along them and the true second variation vanishes.
    Measured Hess/|X_v|^2: hopf-s5 (order 6) [1.1e-4, 1.1e-4, -2.2e-4, 1.1e-4,
    1.1e-4, -2.2e-4]; hopf-s7 (order 4) at most 0.19 in magnitude, 1.3e-2 at
    the catalog order 5 (the gap is quadrature error and shrinks with the
    order).  On hopf-s5 the energy second difference gives ratios between
    -1.1e-4 and +1.1e-4, four orders of magnitude away from 4(1-n) = -4.
    The reduced integrand gives exactly 4(1-n), so a Hessian that dropped
    the d(phi* iota_v Omega) term would fail here.  See docs/criterion-3.md.
    """
    targets = {sid: 4 * (1 - data["n"]) for sid, data in killing_hessians.items()}
    ratios = {
        sid: [hv / n2 for hv, n2 in data["suite"]]
        for sid, data in killing_hessians.items()
    }
    neutral = all(abs(r) < NEUTRALITY_BOUND[sid] for sid, rs in ratios.items() for r in rs)
    refuted = all(
        abs(r - targets[sid]) > 0.9 * abs(targets[sid])
        for sid, rs in ratios.items()
        for r in rs
    )
    s5 = killing_hessians["hopf-s5"]
    oracle = [
        _energy_second_difference(s5["scenario"], v) / n2
        for v, (_, n2) in zip(s5["fields"], s5["suite"])
    ]
    agrees = all(abs(o - r) < 1e-3 for o, r in zip(oracle, ratios["hopf-s5"]))
    ok = neutral and agrees and refuted
    shown = {sid: [round(float(r), 6) for r in rs] for sid, rs in ratios.items()}
    detail = (
        f"Killing variations neutral (|hessian/|X_v|^2| < {NEUTRALITY_BOUND}): "
        f"{neutral} {shown}; hopf-s5 energy second difference within 1e-3: "
        f"{agrees} {[round(float(o), 6) for o in oracle]}; "
        f"4(1-n) {targets} refuted: {refuted}"
    )
    announce(3, ok, detail)
    assert ok, (
        "Criterion 3: Killing variations must be energy-neutral (isometry "
        "invariance) and the literature value 4(1-n) refuted; " + detail +
        ". A Hessian that dropped the d(phi* iota_v Omega) term reproduces "
        "4(1-n); see docs/criterion-3.md."
    )


def test_criterion_4_hopf_stability_sampled():
    sc = build_scenario("hopf-s3", quad_order=12, validate=False)
    rng = np.random.default_rng(0)
    fields = random_variation_fields(sc.map, 50, rng)
    suite = hessian_suite(sc.map, sc.J, fields)
    worst = min(hv / n2 for hv, n2 in suite)
    ok = worst >= -1e-3
    announce(4, ok, f"50 seeded variations on hopf-s3: min Hess/|v|^2 = {worst:.3e} >= -1e-3")
    assert ok


CRIT5_SUITES = (
    "pullback_metric_derivative",
    "pushforward_parallelism",
    "semiconformal_divergence",
    "codifferential_expansion",
    "vertical_codifferential",
    "sasakian_bracket",
)


def test_criterion_5_identity_suites():
    failures = []
    for sid in ("hopf-s3", "hopf-s5", "hopf-s7", "hopf-s3-s2", "flat-holo", "product-proj", "warped-hopf"):
        sc = build_scenario(sid)
        for r in identity_suites(sc, n_points=100):
            if r.suite in CRIT5_SUITES and not r.passed:
                failures.append((sid, r.suite, r.max_residual))
    ok = not failures
    announce(5, ok, f"two-route identities < 1e-4 at >= 100 points per scenario; failures: {failures}")
    assert ok


def test_criterion_6_two_imply_the_third(warped, hopf):
    rng = np.random.default_rng(0)
    pts_h = hopf.domain.random_points(rng, 100, margin=0.04)
    rep_hopf = criticality_equivalence(hopf.map, hopf.J, pts_h)
    hopf_ok = all(
        float(np.max(rep_hopf[k])) < 1e-4
        for k in ("cosymplectic", "criticality", "pullback_sum", "proof_identity")
    )
    pts_w = warped.domain.random_points(rng, 100, margin=0.04)
    rep_warped = criticality_equivalence(warped.map, warped.J, pts_w)
    proof_holds = float(np.max(rep_warped["proof_identity"])) < 1e-4
    over = [k for k in ("cosymplectic", "criticality", "pullback_sum") if float(np.max(rep_warped[k])) > 1e-2]
    holding = sum(float(np.max(rep_warped[k])) < 1e-4 for k in ("cosymplectic", "criticality", "pullback_sum"))
    warped_ok = proof_holds and len(over) >= 1 and holding != 2
    ok = hopf_ok and warped_ok
    announce(
        6,
        ok,
        f"hopf-s3 all three < 1e-4: {hopf_ok}; warped-hopf proof identity holds "
        f"while {over} exceed 1e-2 (consistent: {holding} of 3 hold)",
    )
    assert ok


def test_criterion_7_weyl_compatibility(warped):
    from phwc_lab.structures import induced_f_structure

    rng = np.random.default_rng(0)
    pts = warped.domain.random_points(rng, 100, margin=0.04)
    F = induced_f_structure(warped.map, warped.J)
    compat = weyl_compat_residual(warped.domain, F, pts)
    v = f_div_f(F, pts)
    lc = float(np.max(_norms(warped.domain, pts, v)))
    ok = compat < 1e-4 and lc > 1e-2
    announce(7, ok, f"warped-hopf: |F div^D F| {compat:.2e} < 1e-4 while |F div F| {lc:.2e} > 1e-2")
    assert ok


def test_criterion_8_energy_values(hopf):
    rep = fh_energy(hopf.map, hopf.J, alpha=1e6)
    dgap = abs(rep.dirichlet - 2 * np.pi**2) / (2 * np.pi**2)
    igap = abs(rep.fh_infinity - np.pi**2) / np.pi**2
    exact = abs(rep.fh_alpha / rep.alpha - rep.fh_infinity - rep.dirichlet / rep.alpha)
    ok = dgap < 1e-3 and igap < 1e-3 and exact < 1e-12 * rep.dirichlet
    announce(
        8,
        ok,
        f"Dirichlet {rep.dirichlet:.6f} vs 2pi^2 ({dgap:.1e}), "
        f"E_inf {rep.fh_infinity:.6f} vs pi^2 ({igap:.1e}), exact alpha identity {exact:.1e}",
    )
    assert ok


def test_criterion_9_report_determinism():
    cfg = RunConfig(scenario_id="hopf-s3", checks=("phwc", "energy", "criticality"))
    s1 = report_json({"body": run_checks(cfg)})
    s2 = report_json({"body": run_checks(cfg)})
    ok = s1 == s2
    announce(9, ok, f"byte-identical report bodies on repeated runs ({len(s1)} bytes)")
    assert ok
