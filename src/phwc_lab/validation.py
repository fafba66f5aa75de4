"""Registration-time validation, the tolerance table and the shared residuals.

Pointwise expectations run at seeded interior samples, which the
sufficient stability conditions of a stable-conditions scenario read too.
A stable-sampled scenario is probed on the stability check's own forms
(``stability.span_forms`` at ``default_stability_order``), so the check's
evaluations are memo hits; a killing-neutral one on a reduced-order rule
(``PROBE_ORDERS``) so construction stays cheap.  The residuals behind the
scenario expectations (``RESIDUALS``) are the same functions the ``run``
checks evaluate on their node sets, and every tolerance either side
compares against is declared once, in ``TOLERANCES``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import NotCritical, RankDeficient
from .maps import dilation_hwc, mean_curvature_fibres, tension_field_direct
from .structures import phwc_residual
from .variational import criticality_residual
from .geometry import covariant_derivative_vector, metric_norms, torus_offsets

__all__ = [
    "validate_scenario", "ScenarioValidationError", "TOLERANCES", "RUN_TOLERANCES",
    "SUITE_TOLERANCES", "RESIDUALS", "tolerance",
]

PROBE_ORDERS = {"hopf-s5": 5, "hopf-s7": 4}

# Identity suites (``suites.identity_suites``): one row each, in run order.
SUITE_TOLERANCES = {
    "pullback_metric_derivative": 1e-4,
    "pushforward_parallelism": 1e-4,
    "semiconformal_divergence": 1e-4,
    "codifferential_expansion": 1e-4,
    "vertical_codifferential": 1e-4,
    "sasakian_bracket": 1e-4,
    "tension_agreement": 1e-4,
    "stress_energy": 1e-4,
}

# Every residual tolerance, by name.  docs/report-schema.md lists the
# residual entries that read each name.
TOLERANCES = {
    # the expectations of RESIDUALS; a run may override these (RUN_TOLERANCES)
    "phwc": 1e-9,
    "semiconformal": 1e-9,
    "tension": 1e-5,
    "criticality": 1e-4,
    "mean_curvature": 1e-6,
    # an expected-False residual must exceed its witness
    "criticality_witness": 1e-2,
    "phwc_witness": 1e-3,
    "semiconformal_witness": 1e-3,
    "mean_curvature_witness": 1e-3,
    # Hess >= -floor * |v|^2_L2 for stable verdicts
    "hessian_floor": 1e-3,
    # fixed tolerances of the run checks
    "structure_invariants": 1e-10,
    "kaehler": 1e-8,
    "f_structure": 1e-8,
    "identity": 1e-4,  # two routes to one quantity
    "condition": 1e-4,  # a geometric condition that holds or fails
    "alpha_limit": 1e-12,  # times max(1, Dirichlet energy)
    "closed_form": 1e-3,  # relative
    "z_vertical": 1e-3,
    "cosymplectic_witness": 1e-2,  # a non-cosymplectic control must exceed it
    "killing_neutrality": 2e-2,
    "reduced_ratio": 1e-2,  # relative to 4(1-n)
    "sasakian_agreement": 1e-2,
    # the hessian check's two torus rules, relative to |v|^2_L2
    "torus_invariance": 1e-6,
    # registration only
    "sasakian_identity": 1e-5,
    "metric_split": 1e-9,
    # the Killing Hessian is a cancellation of two terms of size ~4n|X|^2; the
    # probe asserts it is small against the instability magnitude the reduced
    # formula would claim, which dominates the probe-order quadrature error
    "probe_neutrality": 0.05,
    **SUITE_TOLERANCES,
}

# The names a run reads and so may override (RunConfig.tolerances, --tol).
RUN_TOLERANCES = (
    "phwc", "semiconformal", "tension", "criticality", "mean_curvature",
    "criticality_witness", "hessian_floor",
)


def tolerance(name, sc=None, run=None):
    """Tolerance ``name``: the run's override, else the scenario's, else the table's."""
    for overrides in (run, sc.tolerances if sc is not None else None):
        if overrides and name in overrides:
            return float(overrides[name])
    return TOLERANCES[name]


class ScenarioValidationError(ValueError):
    """A declared expectation failed its re-derivation."""


def _tension_norms(sc, x):
    tau = tension_field_direct(sc.map, x)
    return metric_norms(sc.codomain, sc.map.jet(x).y, tau)


class Residual(NamedTuple):
    """A pointwise residual behind one scenario expectation.

    ``values(sc, x)`` is the residual at each point of ``x``; it is below
    tolerance ``tol`` where ``expected`` holds.  Where ``expected`` is
    declared False it must exceed tolerance ``witness`` somewhere (None:
    the False case is not checked at registration).
    """

    expected: str
    values: Callable
    tol: str
    witness: str | None


# Keyed by tolerance name; validate_scenario runs them in this order.
RESIDUALS = {
    row.tol: row
    for row in (
        Residual("is_phwc", lambda sc, x: phwc_residual(sc.map, sc.J, x), "phwc", "phwc_witness"),
        Residual(
            "is_semiconformal", lambda sc, x: dilation_hwc(sc.map, x)[1],
            "semiconformal", "semiconformal_witness",
        ),
        Residual(
            "is_critical", lambda sc, x: criticality_residual(sc.map, sc.J, x),
            "criticality", "criticality_witness",
        ),
        Residual(
            "minimal_fibres",
            lambda sc, x: metric_norms(sc.domain, x, mean_curvature_fibres(sc.map, x)),
            "mean_curvature", "mean_curvature_witness",
        ),
        # harmonicity comes with minimal fibres for the built-in maps
        Residual("minimal_fibres", _tension_norms, "tension", None),
    )
}


def validate_scenario(sc):
    """ScenarioValidationError unless every declared expectation of ``sc`` re-derives."""
    pts = sc.domain.random_points(np.random.default_rng(0), 40, margin=0.03)
    problems = []

    # charts: positive definiteness along the way
    sc.domain.metric_at(pts)
    images = sc.map.value(pts)
    sc.codomain.metric_at(images)

    # map lands in the codomain chart and has constant rank, on the node
    # rules and on the samples (which cover every theta)
    nodes = np.concatenate([r.nodes for r in sc.domain.node_rules])
    sc.map.require_in_codomain(np.concatenate([nodes, pts]))
    rank, _ = sc.map.rank_profile()
    if np.any(sc.map.ranks(pts)[0] != rank):
        raise RankDeficient(
            f"map {sc.map.name!r}: rank at the samples differs from {rank} on the nodes"
        )

    # structure invariants, against the tolerances of the run's structure check
    if sc.J is not None:
        invariants = sc.J.check_invariants(images)
        _require_below(sc, "structure_invariants", invariants, sc.J.name, problems)
        sc.J.check_kaehler(images)
    if sc.contact is not None:
        invariants = sc.contact.check_invariants(pts)
        _require_below(sc, "structure_invariants", invariants, sc.contact.name, problems)
        _check_sasakian(sc, pts, problems)

    for row in RESIDUALS.values():
        want = sc.expected.get(row.expected)
        if want is None or (not want and row.witness is None):
            continue
        r = float(np.max(row.values(sc, pts)))
        if want:
            tol = tolerance(row.tol, sc)
            if r > tol:
                problems.append(f"{row.expected}: {row.tol} residual {r:.3e} > {tol:g}")
        else:
            witness = tolerance(row.witness, sc)
            if r < witness:
                problems.append(
                    f"{row.expected}=False but {row.tol} residual {r:.3e} < witness {witness:g}"
                )

    try:
        _probe_stability(sc, pts, problems)
    except NotCritical as exc:
        problems.append(f"stability probe: {exc}")

    if problems:
        raise ScenarioValidationError(
            f"scenario {sc.id!r} failed registration validation: " + "; ".join(problems)
        )
    return True


def _require_below(sc, name, r, what, problems):
    """A problem if residual ``r`` of ``what`` exceeds tolerance ``name``."""
    tol = tolerance(name, sc)
    if r > tol:
        problems.append(f"{what}: {name} residual {r:.3e} > {tol:g}")


def _check_sasakian(sc, pts, problems):
    """phi X = -nabla_X xi and g = phi^*h + eta (x) eta on Boothby-Wang built-ins."""
    from .maps import pullback_metric

    contact = sc.contact
    M = sc.domain
    rng = np.random.default_rng(1)
    Xc = rng.normal(size=(len(pts), M.dim))
    X = lambda p: np.broadcast_to(Xc[: len(p)], (len(p), M.dim))
    nab = covariant_derivative_vector(M, X, contact.xi_at, pts, dY=contact.xi_jet(pts)[1])
    phiX = np.einsum("...ij,...j->...i", contact.phi_at(pts), Xc)
    r = float(np.max(metric_norms(M, pts, phiX + nab)))
    _require_below(sc, "sasakian_identity", r, "phi X = -nabla_X xi", problems)

    T = pullback_metric(sc.map, pts)
    eta = contact.eta_at(pts)
    g = M.metric_at(pts, check=False)
    r = float(np.max(np.abs(g - T - np.einsum("...i,...j->...ij", eta, eta))))
    _require_below(sc, "metric_split", r, "g = phi^*h + eta@eta", problems)


def _probe_stability(sc, pts, problems):
    """The scenario's stability class re-derived; ``pts`` are registration's samples."""
    from .stability import (
        hessian_matrix,
        killing_fields_sphere,
        killing_span,
        polynomial_span,
        span_forms,
        span_spectrum,
        stability_conditions,
    )

    cls = sc.expected.get("stability_class")
    if cls is None:
        return
    if cls == "stable-conditions":
        rep = stability_conditions(sc.map, sc.J, pts)
        if not rep["weakly_stable_sufficient"]:
            problems.append(
                "no sufficient stability condition holds "
                f"(cond_a {rep['cond_a_integrability']:.2e}, cond_b {rep['cond_b_structure']:.2e})"
            )
        return

    if cls == "stable-sampled":
        H, G, _, _ = span_forms(sc.map, sc.J, polynomial_span(sc.map))
        floor = tolerance("hessian_floor", sc)
        low = float(span_spectrum(H, G)[0])
        if low < -floor:
            problems.append(f"span minimum of Hess/|v|^2 {low:.3e} < -{floor:g}")
    elif cls == "killing-neutral":
        span = killing_span(sc.map, killing_fields_sphere(sc.n_complex).perpendicular()[:1])
        order = PROBE_ORDERS.get(sc.id, 6)
        rule = sc.domain.rule(order, offsets=torus_offsets(sc.domain)[0])
        [forms] = hessian_matrix(sc.map, sc.J, span, [rule], sc.contact)
        hv, n2, red, _ = (float(f[0, 0]) for f in forms)
        target = 4.0 * (1 - sc.n_complex)
        if abs(hv) > tolerance("probe_neutrality", sc) * abs(target) * n2:
            problems.append(f"Killing Hessian {hv:.3e} not neutral at scale {n2:.3e}")
        if abs(red / n2 - target) > tolerance("reduced_ratio", sc) * abs(target):
            problems.append(f"reduced integrand ratio {red / n2:.4f} != {target:g}")
    else:
        problems.append(f"unknown stability class {cls!r}")
