"""Identity suites: every two-route identity checked at seeded random points.

Each suite pits two independently computed sides of an identity against each
other, so a pass certifies both code paths at once.  The suites run on the
scenario's own map, at one point set: its second jets are the exact ones the
checks read, and they share the scenario's memo of evaluations by point set,
so a point set the checks or an earlier suite already asked for is a lookup.
Both sides of every identity come from exact jets, and no suite takes a
step: the direct sides of pullback_metric_derivative and stress_energy read
the exact jet of phi^*h, vertical_codifferential's right side is a
frame-free trace from the induced F's exact jet, and sasakian_bracket reads
xi's exact jet.  What remains of a residual is roundoff.
These back the `identities` CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import TangentVector, metric_norms
from .maps import (
    fibre_splitting,
    nabla_pullback_metric,
    stress_energy_residual,
    tension_field_direct,
)
from .stability import (
    bracket_identity_sasakian,
    vertical_codifferential_formula,
)
from .structures import induced_f_structure
from .validation import SUITE_TOLERANCES
from .variational import (
    cond_1_1_residual,
    criticality_equivalence,
    semiconformal_criticality,
    tension_phwc,
)

__all__ = ["SuiteResult", "identity_suites", "SUITE_TOLERANCES"]

# the samples keep this fraction of the sampling box clear of its boundary
SAMPLE_MARGIN = 0.05


@dataclass
class SuiteResult:
    suite: str
    scenario: str
    n_points: int
    max_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def row(self):
        return {
            "suite": self.suite,
            "scenario": self.scenario,
            "points": self.n_points,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


def identity_suites(sc, n_points=100, seed=0):
    """Run the applicable identity suites for one scenario."""
    rng = np.random.default_rng(seed)
    phi = sc.map
    pts = sc.domain.random_points(rng, n_points, margin=SAMPLE_MARGIN)
    # NotPHWC before any suite runs; most suites ask for the induced F
    induced_f_structure(phi, sc.J)
    out = []

    def emit(name, value, n=n_points, note=""):
        tol = SUITE_TOLERANCES[name]
        out.append(
            SuiteResult(
                suite=name,
                scenario=sc.id,
                n_points=n,
                max_residual=float(value),
                tolerance=tol,
                passed=bool(value < tol),
                note=note,
            )
        )

    X, Y, Z = (
        TangentVector(pts, rng.normal(size=pts.shape)) for _ in range(3)
    )
    lhs = nabla_pullback_metric(phi, X, Y, Z, direct=True)
    rhs = nabla_pullback_metric(phi, X, Y, Z, direct=False)
    emit("pullback_metric_derivative", np.max(np.abs(lhs - rhs)))

    _, ident = cond_1_1_residual(phi, sc.J, pts)
    emit("pushforward_parallelism", np.max(ident))

    _, ident = semiconformal_criticality(phi, sc.J, pts)
    emit("semiconformal_divergence", np.max(ident))

    rep = criticality_equivalence(phi, sc.J, pts)
    emit("codifferential_expansion", np.max(rep["proof_identity"]))

    split = fibre_splitting(phi, pts)  # one batch of one rank
    worst, used, skipped = 0.0, 0, 0
    if split.rank < phi.domain.dim:  # else no vertical directions anywhere
        lhs, rhs = vertical_codifferential_formula(phi, sc.J, split.vertical[..., 0], pts)
        resid = np.abs(lhs - rhs)
        kept = ~np.isnan(resid)
        used, skipped = int(kept.sum()), int((~kept).sum())
        worst = float(np.max(resid[kept], initial=0.0))
    emit(
        "vertical_codifferential",
        worst,
        n=used,
        note=f"{skipped} degenerate points skipped" if skipped else "",
    )

    if sc.contact is not None:
        Xc = rng.normal(size=pts.shape)
        # X is constant in the chart, so its partials are exactly zero
        dX = np.zeros(pts.shape + pts.shape[-1:])
        lhs, rhs = bracket_identity_sasakian(sc.contact, lambda p: Xc, pts, dX=dX)
        emit("sasakian_bracket", np.max(np.abs(lhs - rhs)))

    tau_a = tension_field_direct(phi, pts)
    tau_b = tension_phwc(phi, sc.J, pts)
    gap = metric_norms(phi.codomain, phi.value(pts), tau_a - tau_b)
    emit("tension_agreement", np.max(gap))

    Z = rng.normal(size=pts.shape)
    emit("stress_energy", np.max(stress_energy_residual(phi, pts, Z=Z)))

    return out
