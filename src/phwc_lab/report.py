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
from .maps import dilation_hwc, mean_curvature_fibres, tension_field_direct
from .scenarios import build_scenario, scenario_ids
from .structures import (
    f_div_f,
    induced_f_structure,
    phwc_residual,
    phwc_residual_coordinates,
)
from .suites import identity_suites
from .variational import (
    compatible_weyl_theta,
    criticality_residual,
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
    stability_order: int | None = None  # reduced quadrature for the 50-field suite
    hessian_generators: int = 2  # Killing generators per hessian check; 0 = all

    def __post_init__(self):
        if self.scenario_id not in scenario_ids():
            # defer to build_scenario's UnknownScenario for the canonical error
            pass
        bad = [c for c in self.checks if c not in CHECK_NAMES]
        if bad:
            raise ConfigError(f"unknown checks: {', '.join(bad)}")
        if self.quadrature_order is not None and not (2 <= self.quadrature_order <= 64):
            raise ConfigError("quadrature_order must be in [2, 64]")
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


def _norms(M, x, v):
    g = M.metric_at(x, check=False)
    return np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))


def _residual_entry(values, points, tol):
    values = np.asarray(values, dtype=float)
    k = int(np.argmax(values))
    return {
        "max": float(values[k]),
        "argmax_point": [float(c) for c in np.atleast_2d(points)[k]],
        "tolerance": float(tol),
        "pass": bool(values[k] < tol),
    }


def _tol(sc, cfg, name, default=None):
    if name in cfg.tolerances:
        return float(cfg.tolerances[name])
    if name in sc.tolerances:
        return float(sc.tolerances[name])
    return default


# --------------------------------------------------------------------------
# individual checks; each returns (residuals: dict, verdicts: dict)


def _check_phwc(sc, cfg, pts):
    nodes = sc.domain.quadrature.nodes
    tol = _tol(sc, cfg, "phwc")
    res = {"phwc_commutator_nodes": _residual_entry(
        phwc_residual(sc.map, sc.J, nodes), nodes, tol)}
    if sc.codomain.complex_pairs:
        res["phwc_coordinates_samples"] = _residual_entry(
            phwc_residual_coordinates(sc.map, pts), pts, tol * 10
        )
    ok = res["phwc_commutator_nodes"]["pass"]
    return res, {"is_phwc": ok, "matches_expected": ok == sc.expected.get("is_phwc")}


def _check_structure(sc, cfg, pts):
    res, verd = {}, {}
    images = sc.map.value(pts)
    res["J_invariants"] = _residual_entry([sc.J.check_invariants(images)], pts[:1], 1e-10)
    res["J_kaehler_nabla"] = _residual_entry([sc.J.check_kaehler(images)], pts[:1], 1e-8)
    if sc.contact is not None:
        res["contact_invariants"] = _residual_entry(
            [sc.contact.check_invariants(pts)], pts[:1], 1e-10
        )
    F = induced_f_structure(sc.map, sc.J)
    res["induced_f_invariants"] = _residual_entry([F.check_invariants(pts, tol=1e-8)], pts[:1], 1e-8)
    rank_dphi, _ = sc.map.rank_profile()
    rank_formula = sc.J.rank + rank_dphi - sc.codomain.dim
    verd["rank_formula_holds"] = F.rank == rank_formula
    verd["induced_rank"] = F.rank
    allok = all(r["pass"] for r in res.values()) and verd["rank_formula_holds"]
    verd["matches_expected"] = bool(allok)
    return res, verd


def _check_tension(sc, cfg, pts):
    nodes = sc.domain.quadrature.nodes
    jet = sc.map.second_jet(nodes)
    tau = tension_field_direct(sc.map, nodes, jet=jet)
    tnorm = _norms(sc.codomain, jet.y, tau)
    tol = _tol(sc, cfg, "tension")
    res = {"tension_nodes": _residual_entry(tnorm, nodes, tol)}
    tau_a = tension_field_direct(sc.map, pts)
    tau_b = tension_phwc(sc.map, sc.J, pts)
    res["tension_two_routes"] = _residual_entry(
        _norms(sc.codomain, sc.map.value(pts), tau_a - tau_b), pts, 1e-4
    )
    expected = sc.expected.get("is_harmonic", sc.expected.get("minimal_fibres"))
    harmonic = res["tension_nodes"]["pass"]
    return res, {"is_harmonic": harmonic, "matches_expected": harmonic == expected}


def _check_energy(sc, cfg, pts):
    rep = fh_energy(sc.map, sc.J, cfg.alpha, p_exponent=cfg.p)
    limit_gap = abs(rep.fh_alpha / cfg.alpha - rep.fh_infinity - rep.dirichlet / cfg.alpha)
    res = {
        "alpha_limit_identity": {
            "max": float(limit_gap),
            "argmax_point": [],
            "tolerance": 1e-12 * max(1.0, rep.dirichlet),
            "pass": bool(limit_gap < 1e-12 * max(1.0, rep.dirichlet)),
        }
    }
    verd = {
        "dirichlet": rep.dirichlet,
        "fh_alpha": rep.fh_alpha,
        "alpha": rep.alpha,
        "fh_infinity": rep.fh_infinity,
        "p_energy": rep.p_energy,
        "p": rep.p,
    }
    matches = res["alpha_limit_identity"]["pass"]
    if sc.id in ("hopf-s3", "hopf-s3-s2"):
        dir_ref, inf_ref = 2 * np.pi**2, np.pi**2
        dgap = abs(rep.dirichlet - dir_ref) / dir_ref
        igap = abs(rep.fh_infinity - inf_ref) / inf_ref
        res["dirichlet_closed_form"] = {
            "max": float(dgap), "argmax_point": [], "tolerance": 1e-3, "pass": bool(dgap < 1e-3)
        }
        res["fh_infinity_closed_form"] = {
            "max": float(igap), "argmax_point": [], "tolerance": 1e-3, "pass": bool(igap < 1e-3)
        }
        matches = matches and dgap < 1e-3 and igap < 1e-3
    verd["matches_expected"] = bool(matches)
    return res, verd


def _check_criticality(sc, cfg, pts):
    nodes = sc.domain.quadrature.nodes
    tol = _tol(sc, cfg, "criticality")
    crit = criticality_residual(sc.map, sc.J, nodes)
    res = {"criticality_nodes": _residual_entry(crit, nodes, tol)}
    verd = {}
    if sc.contact is not None:
        z = z_field(sc.map, sc.J, pts)
        xi = sc.contact.xi_at(pts)
        g = sc.domain.metric_at(pts, check=False)
        vert = np.einsum("...i,...ij,...j->...", z, g, xi)
        n = sc.n_complex
        res["z_vertical_component"] = _residual_entry(np.abs(vert + 2 * n), pts, 1e-3)
        verd["z_vertical_target"] = -2.0 * n
    critical = res["criticality_nodes"]["pass"]
    expected = sc.expected.get("is_critical")
    if expected is False:
        witness = _tol(sc, cfg, "criticality_witness", 1e-2)
        verd["noncritical_witness"] = bool(res["criticality_nodes"]["max"] > witness)
        match = (not critical) and verd["noncritical_witness"]
    else:
        match = critical == expected
    if sc.contact is not None:
        match = match and res["z_vertical_component"]["pass"]
    verd.update({"is_critical": critical, "matches_expected": bool(match)})
    return res, verd


def _check_equivalence(sc, cfg, pts):
    rep = criticality_equivalence(sc.map, sc.J, pts)
    tol = 1e-4
    res = {
        "cosymplectic": _residual_entry(rep["cosymplectic"], pts, tol),
        "criticality": _residual_entry(rep["criticality"], pts, tol),
        "pullback_sum": _residual_entry(rep["pullback_sum"], pts, tol),
        "proof_identity": _residual_entry(rep["proof_identity"], pts, tol),
    }
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
    _, dilation_resid = dilation_hwc(sc.map, pts)
    crit, divergence_identity = semiconformal_criticality(sc.map, sc.J, pts)
    res = {
        "dilation": _residual_entry(dilation_resid, pts, _tol(sc, cfg, "semiconformal")),
        "criticality_combination": _residual_entry(crit, pts, 1e-4),
        "divergence_identity": _residual_entry(divergence_identity, pts, 1e-4),
    }
    mu = mean_curvature_fibres(sc.map, pts)
    res["mean_curvature"] = _residual_entry(
        _norms(sc.domain, pts, mu), pts, _tol(sc, cfg, "mean_curvature")
    )
    expected = sc.expected.get("is_critical")
    ok = (
        res["dilation"]["pass"]
        and res["divergence_identity"]["pass"]
        and (res["criticality_combination"]["pass"] == bool(expected))
        and res["mean_curvature"]["pass"] == sc.expected.get("minimal_fibres")
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
    fdf = f_div_f(F, pts)
    lc_norm = _norms(sc.domain, pts, fdf)
    res = {
        "weyl_compatible_divergence": {
            "max": float(compat), "argmax_point": [], "tolerance": 1e-4,
            "pass": bool(compat < 1e-4),
        },
        "levi_civita_divergence": _residual_entry(lc_norm, pts, 1e-4),
    }
    cosymplectic_expected = bool(sc.expected.get("is_critical"))
    ok = res["weyl_compatible_divergence"]["pass"]
    if not cosymplectic_expected:
        # the negative control must show a genuinely non-cosymplectic structure
        ok = ok and float(np.max(lc_norm)) > 1e-2
    return res, {
        "levi_civita_max": float(np.max(lc_norm)),
        "matches_expected": bool(ok),
    }


def _check_hessian(sc, cfg, pts):
    from .stability import killing_fields_sphere, killing_hessian_family

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
    family = killing_hessian_family(sc.map, sc.contact, sc.J, gens)
    ratios = [f.hessian / f.norm2 for f in family]
    verd["killing_hessian_ratios"] = [float(r) for r in ratios]
    neutral = max(abs(r) for r in ratios) if ratios else 0.0
    res["killing_hessian_neutrality"] = {
        "max": float(neutral), "argmax_point": [], "tolerance": 2e-2,
        "pass": bool(neutral < 2e-2),
    }
    target = 4.0 * (1 - n)
    red = [f.reduced / f.norm2 for f in family]
    verd["reduced_integrand_ratios"] = [float(r) for r in red]
    if n >= 2:
        gap = max(abs(r - target) / abs(target) for r in red)
        res["reduced_ratio_vs_4(1-n)"] = {
            "max": float(gap), "argmax_point": [], "tolerance": 1e-2,
            "pass": bool(gap < 1e-2),
        }
    first = family[0]
    agreement = abs(first.sasakian - first.hessian) / max(abs(first.hessian), 0.01 * first.norm2)
    res["sasakian_vs_general"] = {
        "max": float(agreement), "argmax_point": [], "tolerance": 1e-2,
        "pass": bool(agreement < 1e-2),
    }
    verd["reported_instability_reproduced"] = bool(
        n >= 2 and all(abs(r - target) / abs(target) < 1e-2 for r in ratios)
    )
    verd["matches_expected"] = all(r["pass"] for r in res.values())
    return res, verd


def _check_stability(sc, cfg, pts):
    from .stability import hessian_suite, random_variation_fields, stability_conditions

    res, verd = {}, {}
    rep = stability_conditions(sc.map, sc.J, pts)
    verd["cond_a_integrability"] = rep["cond_a_integrability"]
    verd["cond_b_structure"] = rep["cond_b_structure"]
    verd["weakly_stable_sufficient"] = rep["weakly_stable_sufficient"]
    cls = sc.expected.get("stability_class")
    if cls == "stable-sampled":
        order = cfg.stability_order or min(12, np.max(sc.domain.quad_orders))
        reduced = build_scenario(sc.id, quad_order=int(order), validate=False)
        rng = np.random.default_rng(cfg.seed)
        fields = random_variation_fields(reduced.map, cfg.stability_fields, rng)
        suite = hessian_suite(reduced.map, reduced.J, fields)
        floor = _tol(sc, cfg, "hessian_floor", 1e-3)
        worst = min(hv / n2 for hv, n2 in suite)
        res["sampled_nonnegativity"] = {
            "max": float(-worst), "argmax_point": [], "tolerance": floor,
            "pass": bool(worst >= -floor),
        }
        verd["sampled_fields"] = len(suite)
        verd["verdict"] = "sampled nonnegativity: " + ("pass" if worst >= -floor else "fail")
        verd["matches_expected"] = res["sampled_nonnegativity"]["pass"]
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
