"""Check runners, run configuration and report documents.

A run produces a single JSON document: a deterministic ``body`` (identical
config and seed => byte-identical serialization) plus a ``meta`` section
holding wall time, which the determinism contract excludes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError
from .geometry import TWO_FORM_CONVENTION
from .maps import tension_field_direct
from .scenarios import build_scenario, scenario_ids
from .structures import f_div_f, induced_f_structure, phwc_residual_coordinates
from .suites import identity_suites
from .validation import RESIDUALS, RUN_TOLERANCES, metric_norms, tolerance
from .variational import (
    compatible_weyl_theta,
    fh_energy,
    criticality_equivalence,
    semiconformal_criticality,
    tension_phwc,
    weyl_compat_residual,
    z_field,
)

__all__ = ["RunConfig", "run_checks", "report_document", "report_json", "report_csv", "CHECK_NAMES"]

CHECK_NAMES = (
    "phwc",
    "structure",
    "tension",
    "energy",
    "criticality",
    "equivalence",
    "semiconformal",
    "weyl",
    "hessian",
    "stability",
)

SCHEMA = "phwc-lab-report/1"


@dataclass
class RunConfig:
    """Validated knobs of one check run."""

    scenario_id: str
    checks: tuple = CHECK_NAMES
    quadrature_order: int | None = None
    fd_step: float = 1e-5
    alpha: float = 1.0e6
    p: float = 4.0
    seed: int = 0
    sample_points: int = 60
    tolerances: dict = dc_field(default_factory=dict)
    stability_fields: int = 50
    stability_order: int | None = None  # stability check rule order; None: min(12, domain's)
    hessian_generators: int = 2  # Killing generators per hessian check; 0 = all

    def __post_init__(self):
        bad = [c for c in self.checks if c not in CHECK_NAMES]
        if bad:
            raise ConfigError(f"unknown checks: {', '.join(bad)}")
        bad = sorted(set(self.tolerances) - set(RUN_TOLERANCES))
        if bad:
            raise ConfigError(
                f"unknown tolerances: {', '.join(bad)}; known: {', '.join(RUN_TOLERANCES)}"
            )
        if self.quadrature_order is not None and not (2 <= self.quadrature_order <= 64):
            raise ConfigError("quadrature_order must be in [2, 64]")
        order = self.stability_order
        if order is not None and not (isinstance(order, int) and 2 <= order <= 64):
            raise ConfigError("stability_order must be None or an integer in [2, 64]")
        if not (1e-8 <= self.fd_step <= 1e-2):
            raise ConfigError("fd_step must be in [1e-8, 1e-2]")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.p <= 1:
            raise ConfigError("p must be > 1")
        if not (4 <= self.sample_points <= 20000):
            raise ConfigError("sample_points must be in [4, 20000]")
        if not (1 <= self.stability_fields <= 500):
            raise ConfigError("stability_fields must be in [1, 500]")
        if not (0 <= self.hessian_generators <= 64):
            raise ConfigError("hessian_generators must be in [0, 64]")

    @classmethod
    def from_mapping(cls, data):
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "checks" in data:
            data = dict(data)
            data["checks"] = tuple(data["checks"])
        return cls(**data)

    def effective(self, sc):
        return {
            "scenario_id": self.scenario_id,
            "checks": list(self.checks),
            "quadrature_order": sc.domain.quad_orders
            if self.quadrature_order is None
            else self.quadrature_order,
            "fd_step": self.fd_step,
            "alpha": self.alpha,
            "p": self.p,
            "seed": self.seed,
            "sample_points": self.sample_points,
            "stability_fields": self.stability_fields,
            "stability_order": self.stability_order,
            "hessian_generators": self.hessian_generators,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def _residual_entry(sc, cfg, name, values, points=(), scale=1.0, inclusive=False):
    """Largest of ``values`` against tolerance ``name`` times ``scale``.

    ``inclusive``: the entry passes at equality with the tolerance.
    """
    tol = tolerance(name, sc, cfg.tolerances) * scale
    values = np.atleast_1d(np.asarray(values, dtype=float))
    k = int(np.argmax(values))
    return {
        "max": float(values[k]),
        "argmax_point": [float(c) for c in np.atleast_2d(points)[k]],
        "tolerance": float(tol),
        "pass": bool(values[k] <= tol if inclusive else values[k] < tol),
    }


def _row_entry(sc, cfg, name, x):
    """Residual entry of the shared residual ``RESIDUALS[name]`` over ``x``."""
    return _residual_entry(sc, cfg, name, RESIDUALS[name].values(sc, x), x)


def _node_rules(sc):
    """The rules of the node residuals and the energies.

    On a domain with periodic axes: its two torus rules
    (``stability.torus_rules``), one node per periodic axis at two offsets.
    That rule is exact only for what does not depend on theta, so each
    check reports the two rules' agreement as ``torus_invariance``.  A
    domain without periodic axes keeps its full rule.
    """
    from .stability import torus_rules

    M = sc.domain
    return torus_rules(M) if M.box.periodic else [M.quadrature]


def _node_entries(sc, cfg, name, key):
    """Entry ``key`` of ``RESIDUALS[name]`` over every node of the node rules.

    With two rules, adds ``torus_invariance``: the largest absolute gap
    between the rules at nodes that share their non-periodic coordinates.
    """
    rules = _node_rules(sc)
    nodes = np.concatenate([r.nodes for r in rules])
    values = RESIDUALS[name].values(sc, nodes)
    res = {key: _residual_entry(sc, cfg, name, values, nodes)}
    if len(rules) == 2:
        first, second = np.split(values, 2)
        res["torus_invariance"] = _residual_entry(
            sc, cfg, "torus_invariance", np.abs(first - second), rules[0].nodes
        )
    return res


def _torus_invariant(res):
    return res.get("torus_invariance", {"pass": True})["pass"]


# --------------------------------------------------------------------------
# individual checks; each returns (residuals: dict, verdicts: dict)


def _check_phwc(sc, cfg, pts):
    res = _node_entries(sc, cfg, "phwc", "phwc_commutator_nodes")
    if sc.codomain.complex_pairs:
        res["phwc_coordinates_samples"] = _residual_entry(
            sc, cfg, "phwc", phwc_residual_coordinates(sc.map, pts), pts, scale=10
        )
    ok = res["phwc_commutator_nodes"]["pass"]
    match = ok == sc.expected.get("is_phwc") and _torus_invariant(res)
    return res, {"is_phwc": ok, "matches_expected": match}


def _check_structure(sc, cfg, pts):
    res, verd = {}, {}
    images = sc.map.value(pts)
    first = pts[:1]
    res["J_invariants"] = _residual_entry(
        sc, cfg, "structure_invariants", sc.J.check_invariants(images), first
    )
    res["J_kaehler_nabla"] = _residual_entry(sc, cfg, "kaehler", sc.J.check_kaehler(images), first)
    if sc.contact is not None:
        res["contact_invariants"] = _residual_entry(
            sc, cfg, "structure_invariants", sc.contact.check_invariants(pts), first
        )
    F = induced_f_structure(sc.map, sc.J)
    res["induced_f_invariants"] = _residual_entry(
        sc, cfg, "f_structure", F.check_invariants(pts), first
    )
    rank_dphi, _ = sc.map.rank_profile()
    rank_formula = sc.J.rank + rank_dphi - sc.codomain.dim
    verd["rank_formula_holds"] = F.rank == rank_formula
    verd["induced_rank"] = F.rank
    allok = all(r["pass"] for r in res.values()) and verd["rank_formula_holds"]
    verd["matches_expected"] = bool(allok)
    return res, verd


def _check_tension(sc, cfg, pts):
    res = _node_entries(sc, cfg, "tension", "tension_nodes")
    tau_a = tension_field_direct(sc.map, pts)
    tau_b = tension_phwc(sc.map, sc.J, pts)
    res["tension_two_routes"] = _residual_entry(
        sc, cfg, "identity", metric_norms(sc.codomain, sc.map.value(pts), tau_a - tau_b), pts
    )
    harmonic = res["tension_nodes"]["pass"]
    expected = sc.expected.get(RESIDUALS["tension"].expected)
    match = harmonic == expected and _torus_invariant(res)
    return res, {"is_harmonic": harmonic, "matches_expected": match}


# the energies the energy check compares between its two torus rules
ENERGIES = ("dirichlet", "fh_infinity", "p_energy")


def _check_energy(sc, cfg, pts):
    rep, *other = (
        fh_energy(sc.map, sc.J, cfg.alpha, p_exponent=cfg.p, rule=rule)
        for rule in _node_rules(sc)
    )
    limit_gap = abs(rep.fh_alpha / cfg.alpha - rep.fh_infinity - rep.dirichlet / cfg.alpha)
    res = {
        "alpha_limit_identity": _residual_entry(
            sc, cfg, "alpha_limit", limit_gap, scale=max(1.0, rep.dirichlet)
        )
    }
    if other:
        pairs = [(getattr(rep, k), getattr(other[0], k)) for k in ENERGIES]
        drift = max(abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny) for a, b in pairs)
        res["torus_invariance"] = _residual_entry(sc, cfg, "torus_invariance", drift)
    verd = {
        "dirichlet": rep.dirichlet,
        "fh_alpha": rep.fh_alpha,
        "alpha": rep.alpha,
        "fh_infinity": rep.fh_infinity,
        "p_energy": rep.p_energy,
        "p": rep.p,
    }
    if sc.id in ("hopf-s3", "hopf-s3-s2"):
        dir_ref, inf_ref = 2 * np.pi**2, np.pi**2
        res["dirichlet_closed_form"] = _residual_entry(
            sc, cfg, "closed_form", abs(rep.dirichlet - dir_ref) / dir_ref
        )
        res["fh_infinity_closed_form"] = _residual_entry(
            sc, cfg, "closed_form", abs(rep.fh_infinity - inf_ref) / inf_ref
        )
    verd["matches_expected"] = all(r["pass"] for r in res.values())
    return res, verd


def _check_criticality(sc, cfg, pts):
    row = RESIDUALS["criticality"]
    res = _node_entries(sc, cfg, "criticality", "criticality_nodes")
    verd = {}
    if sc.contact is not None:
        z = z_field(sc.map, sc.J, pts)
        xi = sc.contact.xi_at(pts)
        g = sc.domain.metric_at(pts, check=False)
        vert = np.einsum("...i,...ij,...j->...", z, g, xi)
        n = sc.n_complex
        res["z_vertical_component"] = _residual_entry(
            sc, cfg, "z_vertical", np.abs(vert + 2 * n), pts
        )
        verd["z_vertical_target"] = -2.0 * n
    critical = res["criticality_nodes"]["pass"]
    expected = sc.expected.get(row.expected)
    if expected is False:
        witness = tolerance(row.witness, sc, cfg.tolerances)
        verd["noncritical_witness"] = bool(res["criticality_nodes"]["max"] > witness)
        match = (not critical) and verd["noncritical_witness"]
    else:
        match = critical == expected
    if sc.contact is not None:
        match = match and res["z_vertical_component"]["pass"]
    match = match and _torus_invariant(res)
    verd.update({"is_critical": critical, "matches_expected": bool(match)})
    return res, verd


def _check_equivalence(sc, cfg, pts):
    rep = criticality_equivalence(sc.map, sc.J, pts)
    res = {
        key: _residual_entry(sc, cfg, "condition", rep[key], pts)
        for key in ("cosymplectic", "criticality", "pullback_sum")
    }
    res["proof_identity"] = _residual_entry(sc, cfg, "identity", rep["proof_identity"], pts)
    holds = [res[k]["pass"] for k in ("cosymplectic", "criticality", "pullback_sum")]
    verd = {
        "proof_identity_holds": res["proof_identity"]["pass"],
        "conditions_holding": int(sum(holds)),
    }
    # two of the three imply the third: never exactly two should hold
    verd["two_imply_third_consistent"] = verd["conditions_holding"] != 2
    expected = sc.expected.get("is_critical")
    want = 3 if expected else 0
    verd["matches_expected"] = bool(
        res["proof_identity"]["pass"]
        and verd["two_imply_third_consistent"]
        and (verd["conditions_holding"] == want)
    )
    return res, verd


def _check_semiconformal(sc, cfg, pts):
    crit, divergence_identity = semiconformal_criticality(sc.map, sc.J, pts)
    res = {
        "dilation": _row_entry(sc, cfg, "semiconformal", pts),
        "criticality_combination": _residual_entry(sc, cfg, "condition", crit, pts),
        "divergence_identity": _residual_entry(sc, cfg, "identity", divergence_identity, pts),
        "mean_curvature": _row_entry(sc, cfg, "mean_curvature", pts),
    }
    expected = sc.expected.get("is_critical")
    minimal = sc.expected.get(RESIDUALS["mean_curvature"].expected)
    ok = (
        res["dilation"]["pass"]
        and res["divergence_identity"]["pass"]
        and (res["criticality_combination"]["pass"] == bool(expected))
        and res["mean_curvature"]["pass"] == minimal
    )
    return res, {
        "is_semiconformal": res["dilation"]["pass"],
        "is_4harmonic_critical": res["criticality_combination"]["pass"],
        "matches_expected": bool(ok),
    }


def _check_weyl(sc, cfg, pts):
    F = induced_f_structure(sc.map, sc.J)
    theta = compatible_weyl_theta(sc.domain, F)
    compat = weyl_compat_residual(sc.domain, F, pts, theta=theta)
    lc_norm = metric_norms(sc.domain, pts, f_div_f(F, pts))
    res = {
        "weyl_compatible_divergence": _residual_entry(sc, cfg, "identity", compat),
        "levi_civita_divergence": _residual_entry(sc, cfg, "condition", lc_norm, pts),
    }
    ok = res["weyl_compatible_divergence"]["pass"]
    if not sc.expected.get("is_critical"):
        # the negative control must show a genuinely non-cosymplectic structure
        witness = tolerance("cosymplectic_witness", sc, cfg.tolerances)
        ok = ok and float(np.max(lc_norm)) > witness
    return res, {
        "levi_civita_max": float(np.max(lc_norm)),
        "matches_expected": bool(ok),
    }


def _check_hessian(sc, cfg, pts):
    from .stability import hessian_matrix, killing_fields_sphere, killing_span, torus_rules

    res, verd = {}, {}
    if sc.contact is None:
        return res, {"matches_expected": True, "note": "no Sasakian structure; see stability"}
    n = sc.n_complex
    fam = killing_fields_sphere(n)
    gens = fam.perpendicular()
    verd["killing_basis_size"] = len(fam.generators)
    verd["killing_perp_count"] = len(gens)
    if cfg.hessian_generators:
        gens = gens[: cfg.hessian_generators]
    # one theta node per periodic axis, at two offsets whose agreement is
    # the evidence that the integrands do not depend on theta; each
    # generator's values are the diagonals of the span's forms
    span = killing_span(sc.map, gens)
    family, shifted = (
        np.array([np.diag(f) for f in hessian_matrix(sc.map, sc.J, span, rule, sc.contact)])
        for rule in torus_rules(sc.domain)
    )
    hess, norm2, reduced, sasakian = family
    ratios = hess / norm2
    verd["killing_hessian_ratios"] = [float(r) for r in ratios]
    neutral = np.max(np.abs(ratios))
    res["killing_hessian_neutrality"] = _residual_entry(sc, cfg, "killing_neutrality", neutral)
    drift = np.max(np.abs(family - shifted) / norm2)
    res["torus_invariance"] = _residual_entry(sc, cfg, "torus_invariance", drift)
    target = 4.0 * (1 - n)
    red = reduced / norm2
    verd["reduced_integrand_ratios"] = [float(r) for r in red]
    if n >= 2:
        gap = np.max(np.abs(red - target) / abs(target))
        res["reduced_ratio_vs_4(1-n)"] = _residual_entry(sc, cfg, "reduced_ratio", gap)
    # relative to the Hessian, or to 1 % of |X|^2 where the Hessian is neutral
    agreement = abs(sasakian[0] - hess[0]) / max(abs(hess[0]), 0.01 * norm2[0])
    res["sasakian_vs_general"] = _residual_entry(sc, cfg, "sasakian_agreement", agreement)
    ratio_tol = tolerance("reduced_ratio", sc, cfg.tolerances)
    verd["reported_instability_reproduced"] = bool(
        n >= 2 and all(abs(r - target) / abs(target) < ratio_tol for r in ratios)
    )
    verd["matches_expected"] = all(r["pass"] for r in res.values())
    return res, verd


def _check_stability(sc, cfg, pts):
    from .stability import (
        hessian_matrix,
        polynomial_span,
        rayleigh_quotients,
        span_spectrum,
        stability_conditions,
    )

    res, verd = {}, {}
    rep = stability_conditions(sc.map, sc.J, pts)
    verd["cond_a_integrability"] = rep["cond_a_integrability"]
    verd["cond_b_structure"] = rep["cond_b_structure"]
    verd["weakly_stable_sufficient"] = rep["weakly_stable_sufficient"]
    cls = sc.expected.get("stability_class")
    if cls == "stable-sampled":
        order = cfg.stability_order or min(12, np.max(sc.domain.quad_orders))
        rng = np.random.default_rng(cfg.seed)
        span = polynomial_span(sc.map)
        coeffs = span.random_coefficients(cfg.stability_fields, rng)
        H, G, _, _ = hessian_matrix(sc.map, sc.J, span, rule=sc.domain.rule(orders=order))
        worst = float(np.min(rayleigh_quotients(H, G, coeffs)))
        res["sampled_nonnegativity"] = _residual_entry(
            sc, cfg, "hessian_floor", -worst, inclusive=True
        )
        res["span_nonnegativity"] = _residual_entry(
            sc, cfg, "hessian_floor", -float(span_spectrum(H, G)[0]), inclusive=True
        )
        sampled = res["sampled_nonnegativity"]["pass"]
        verd["sampled_fields"] = len(coeffs)
        verd["verdict"] = "sampled nonnegativity: " + ("pass" if sampled else "fail")
        verd["matches_expected"] = all(r["pass"] for r in res.values())
    elif cls == "stable-conditions":
        verd["verdict"] = "weakly stable (sufficient condition)"
        verd["matches_expected"] = rep["weakly_stable_sufficient"]
    elif cls == "killing-neutral":
        verd["verdict"] = "killing-neutral (see hessian check)"
        verd["matches_expected"] = True
    else:
        verd["verdict"] = "not classified"
        verd["matches_expected"] = True
    return res, verd


_CHECKS = {
    "phwc": _check_phwc,
    "structure": _check_structure,
    "tension": _check_tension,
    "energy": _check_energy,
    "criticality": _check_criticality,
    "equivalence": _check_equivalence,
    "semiconformal": _check_semiconformal,
    "weyl": _check_weyl,
    "hessian": _check_hessian,
    "stability": _check_stability,
}


def run_checks(cfg):
    """Build the scenario, run the selected checks, return the report body."""
    fd = None if cfg.fd_step == 1e-5 else cfg.fd_step
    sc = build_scenario(cfg.scenario_id, quad_order=cfg.quadrature_order, fd_step=fd)
    rng = np.random.default_rng(cfg.seed)
    pts = sc.domain.random_points(rng, cfg.sample_points, margin=0.03)
    checks = {}
    all_match = True
    for name in cfg.checks:
        residuals, verdicts = _CHECKS[name](sc, cfg, pts)
        checks[name] = {"residuals": residuals, "verdicts": verdicts}
        all_match = all_match and bool(verdicts.get("matches_expected", True))
    body = {
        "schema": SCHEMA,
        "scenario": sc.id,
        "description": sc.description,
        "config": cfg.effective(sc),
        "conventions": {
            "two_form_inner_product": TWO_FORM_CONVENTION,
            "codifferential_sign": "delta w = -sum_a iota_{e_a} nabla_{e_a} w",
        },
        "expected": {k: v for k, v in sc.expected.items()},
        "checks": checks,
        "all_verdicts_match": bool(all_match),
    }
    return body


def run_identities(scenario_id=None, n_points=100, seed=0):
    ids = [scenario_id] if scenario_id else scenario_ids()
    rows = []
    for sid in ids:
        sc = build_scenario(sid)
        rows.extend(r.row() for r in identity_suites(sc, n_points=n_points, seed=seed))
    return rows


def report_document(body, wall_time):
    return {
        "schema": SCHEMA,
        "meta": {"wall_time_seconds": wall_time},
        "body": body,
    }


def report_json(doc):
    """Stable serialization: sorted keys, fixed separators."""
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def report_csv(body):
    """Flatten residual tables into CSV rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "residual", "max", "tolerance", "pass", "argmax_point"])
    for check, data in body["checks"].items():
        for name, entry in data["residuals"].items():
            writer.writerow(
                [
                    check,
                    name,
                    f"{entry['max']:.12e}",
                    f"{entry['tolerance']:g}",
                    entry["pass"],
                    " ".join(f"{c:.9g}" for c in entry["argmax_point"]),
                ]
            )
    return buf.getvalue()
