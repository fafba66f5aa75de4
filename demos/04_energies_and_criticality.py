"""Faddeev-Hopf energies and the strong-coupling criticality residual.

The Hopf map hits its closed-form energies exactly; the conformally warped
negative control keeps the PHWC property but loses criticality.
Run:  python demos/04_energies_and_criticality.py
"""

import numpy as np

from phwc_lab.scenarios import build_scenario
from phwc_lab.validation import RESIDUALS, tolerance
from phwc_lab.variational import (
    criticality_residual,
    fh_energy,
    semiconformal_criticality,
    z_field,
)


def main():
    sc = build_scenario("hopf-s3")
    rep = fh_energy(sc.map, sc.J, alpha=1e6)
    print(f"Dirichlet      = {rep.dirichlet:.10f}   (2 pi^2 = {2 * np.pi**2:.10f})")
    print(f"E_infinity     = {rep.fh_infinity:.10f}   (pi^2  = {np.pi**2:.10f})")
    print(f"alpha^-1 E_FH - E_inf - alpha^-1 Dirichlet = "
          f"{rep.fh_alpha / rep.alpha - rep.fh_infinity - rep.dirichlet / rep.alpha:.2e}"
          " (exact identity)")
    print("convention:", rep.conventions["two_form_inner_product"])

    print("\n== Z field is vertical with value -2n ==")
    rng = np.random.default_rng(0)
    for sid, n in (("hopf-s3", 1), ("hopf-s5", 2), ("hopf-s7", 3)):
        sc = build_scenario(sid)
        pts = sc.domain.random_points(rng, 30, margin=0.05)
        z = z_field(sc.map, sc.J, pts)
        g = sc.domain.metric_at(pts, check=False)
        vert = np.einsum("ni,nij,nj->n", z, g, sc.contact.xi_at(pts))
        crit = np.max(criticality_residual(sc.map, sc.J, pts))
        print(f"{sid}: g(Z, xi) = {vert.mean():+.6f} (expect {-2 * n}), "
              f"horizontal residual {crit:.1e}")

    print("\n== negative control ==")
    warped = build_scenario("warped-hopf")
    pts = warped.domain.random_points(rng, 60, margin=0.05)
    print("warped-hopf: the residuals behind its expectations, at the tolerances the checks use")
    for name, row in RESIDUALS.items():
        r = float(np.max(row.values(warped, pts)))
        tol = tolerance(name, warped)
        print(f"  {name:15s} max {r:.2e}  tol {tol:g}  below: {str(r < tol):5s}  "
              f"(expected {row.expected}={warped.expected[row.expected]})")
    _, divergence = semiconformal_criticality(warped.map, warped.J, pts)
    print(f"  divergence identity {np.max(divergence):.1e} < {tolerance('identity'):g} "
          "(identities persist)")

if __name__ == "__main__":
    main()
