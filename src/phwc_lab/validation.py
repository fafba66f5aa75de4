"""Registration-time validation: expected scenario properties are re-derived.

Pointwise expectations run at seeded interior samples; the stability class
is probed on a reduced-order rebuild so construction stays cheap.  The full
tolerance suites live in the check runners and the test suite.
"""

from __future__ import annotations

import numpy as np

from .maps import dilation_hwc, mean_curvature_fibres, tension_field_direct
from .structures import phwc_residual
from .variational import criticality_residual
from .geometry import covariant_derivative_vector

__all__ = ["validate_scenario", "ScenarioValidationError"]

PROBE_ORDERS = {"hopf-s3": 8, "hopf-s5": 5, "hopf-s7": 4}
PROBE_FIELDS = 4
# the Killing Hessian is a cancellation of two terms of size ~4n|X|^2; the
# probe asserts it is small against the instability magnitude the reduced
# formula would claim, which dominates the probe-order quadrature error
NEUTRAL_FRACTION = 0.05


class ScenarioValidationError(ValueError):
    """A declared expectation failed its re-derivation."""


def _norms(M, x, v):
    g = M.metric_at(x, check=False)
    return np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))


def validate_scenario(sc, samples=40, seed=0):
    rng = np.random.default_rng(seed)
    pts = sc.domain.random_points(rng, samples, margin=0.03)
    problems = []

    # charts: positive definiteness along the way
    sc.domain.metric_at(pts)
    images = sc.map.value(pts)
    sc.codomain.metric_at(images)

    # map lands in the codomain chart and has constant rank
    sc.map.validate_on_quadrature()
    rank, _ = sc.map.rank_profile()

    # structure invariants
    if sc.J is not None:
        sc.J.check_invariants(images)
        sc.J.check_kaehler(images)
    if sc.contact is not None:
        sc.contact.check_invariants(pts)
        _check_sasakian(sc, pts, problems)

    tol = sc.tolerances
    exp = sc.expected

    if "is_phwc" in exp:
        r = float(np.max(phwc_residual(sc.map, sc.J, pts)))
        _expect(problems, "is_phwc", exp["is_phwc"], r, tol["phwc"], witness=1e-3)

    if "is_semiconformal" in exp:
        _, resid = dilation_hwc(sc.map, pts)
        _expect(
            problems,
            "is_semiconformal",
            exp["is_semiconformal"],
            float(np.max(resid)),
            tol["semiconformal"],
            witness=1e-3,
        )

    if "is_critical" in exp and sc.J is not None:
        r = float(np.max(criticality_residual(sc.map, sc.J, pts)))
        _expect(
            problems,
            "is_critical",
            exp["is_critical"],
            r,
            tol["criticality"],
            witness=tol["criticality_witness"],
        )

    if "minimal_fibres" in exp:
        mu = mean_curvature_fibres(sc.map, pts)
        r = float(np.max(_norms(sc.domain, pts, mu)))
        _expect(
            problems,
            "minimal_fibres",
            exp["minimal_fibres"],
            r,
            tol["mean_curvature"],
            witness=tol["mean_curvature_witness"],
        )

    if exp.get("is_critical") and exp.get("minimal_fibres"):
        # harmonicity comes with the package for the built-in critical maps
        tau = tension_field_direct(sc.map, pts)
        r = float(np.max(_norms(sc.codomain, images, tau)))
        if r > tol["tension"]:
            problems.append(f"tension residual {r:.3e} > {tol['tension']:g}")

    _probe_stability(sc, problems)

    if problems:
        raise ScenarioValidationError(
            f"scenario {sc.id!r} failed registration validation: " + "; ".join(problems)
        )
    return True


def _expect(problems, name, expected_true, value, tolerance, witness):
    if expected_true and value > tolerance:
        problems.append(f"{name}: residual {value:.3e} > {tolerance:g}")
    if not expected_true and value < witness:
        problems.append(f"{name}=False but residual {value:.3e} < witness {witness:g}")


def _check_sasakian(sc, pts, problems):
    """phi X = -nabla_X xi and g = phi^*h + eta (x) eta on Boothby-Wang built-ins."""
    from .maps import pullback_metric

    contact = sc.contact
    M = sc.domain
    rng = np.random.default_rng(1)
    Xc = rng.normal(size=(len(pts), M.dim))
    X = lambda p: np.broadcast_to(Xc[: len(p)], (len(p), M.dim))
    nab = covariant_derivative_vector(M, X, lambda p: contact.xi_at(p), pts)
    phiX = np.einsum("...ij,...j->...i", contact.phi_at(pts), Xc)
    r = float(np.max(_norms(M, pts, phiX + nab)))
    if r > 1e-5:
        problems.append(f"sasakian identity phi X = -nabla_X xi fails ({r:.2e})")

    T = pullback_metric(sc.map, pts)
    eta = contact.eta_at(pts)
    g = M.metric_at(pts, check=False)
    r = float(np.max(np.abs(g - T - np.einsum("...i,...j->...ij", eta, eta))))
    if r > 1e-9:
        problems.append(f"metric split g = phi^*h + eta@eta fails ({r:.2e})")


def _probe_stability(sc, problems):
    from .scenarios import build_scenario
    from .stability import (
        hessian_suite,
        killing_fields_sphere,
        killing_hessian_family,
        random_variation_fields,
        stability_conditions,
    )

    cls = sc.expected.get("stability_class")
    if cls is None:
        return
    if cls == "stable-conditions":
        rng = np.random.default_rng(0)
        pts = sc.domain.random_points(rng, 12, margin=0.05)
        rep = stability_conditions(sc.map, sc.J, pts)
        if not rep["weakly_stable_sufficient"]:
            problems.append(
                "no sufficient stability condition holds "
                f"(cond_a {rep['cond_a_integrability']:.2e}, cond_b {rep['cond_b_structure']:.2e})"
            )
        return

    reduced = build_scenario(sc.id, quad_order=PROBE_ORDERS.get(sc.id, 6), validate=False)
    if cls == "stable-sampled":
        rng = np.random.default_rng(0)
        fields = random_variation_fields(reduced.map, PROBE_FIELDS, rng)
        floor = sc.tolerances.get("hessian_floor", 1e-3)
        for hv, n2 in hessian_suite(reduced.map, reduced.J, fields):
            if hv < -floor * n2:
                problems.append(f"sampled Hessian {hv:.3e} < -{floor:g} * |v|^2 ({n2:.3e})")
                break
    elif cls == "killing-neutral":
        fam = killing_fields_sphere(reduced.n_complex)
        if not fam.perp_indices:
            problems.append("no Killing generator orthogonal to xi found")
            return
        gens = fam.perpendicular()[:1]
        (hv, n2, red, _), = killing_hessian_family(reduced.map, reduced.contact, reduced.J, gens)
        target = 4.0 * (1 - reduced.n_complex)
        if abs(hv) > NEUTRAL_FRACTION * abs(target) * n2:
            problems.append(f"Killing Hessian {hv:.3e} not neutral at scale {n2:.3e}")
        if abs(red / n2 - target) > 0.01 * abs(target):
            problems.append(f"reduced integrand ratio {red / n2:.4f} != {target:g}")
    else:
        problems.append(f"unknown stability class {cls!r}")
