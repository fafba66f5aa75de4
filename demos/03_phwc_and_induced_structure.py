"""Pseudo horizontal weak conformality and the induced f-structure.

Shows both PHWC residual routes agreeing, constructs the induced structure
F^phi, and verifies the rank formula and holomorphy it brings.
Run:  python demos/03_phwc_and_induced_structure.py
"""

import numpy as np

from phwc_lab.scenarios import build_scenario
from phwc_lab.structures import (
    f_div_f,
    holomorphy_residual,
    induced_f_structure,
    phwc_residual,
    phwc_residual_coordinates,
)


def main():
    rng = np.random.default_rng(0)
    for sid in ("hopf-s3", "hopf-s5", "warped-hopf", "flat-holo"):
        sc = build_scenario(sid)
        pts = sc.domain.random_points(rng, 100, margin=0.04)
        r1 = np.max(phwc_residual(sc.map, sc.J, pts))
        line = f"{sid:12s} commutator residual {r1:.2e}"
        if sc.codomain.complex_pairs:
            line += f", coordinate residual {np.max(phwc_residual_coordinates(sc.map, pts)):.2e}"
        print(line)

    print("\n== induced structure on the Hopf total space ==")
    sc = build_scenario("hopf-s3")
    pts = sc.domain.random_points(rng, 100, margin=0.04)
    F = induced_f_structure(sc.map, sc.J)
    rank_dphi, _ = sc.map.rank_profile()
    print(f"rank F^phi = {F.rank} = rank F ({sc.J.rank}) + rank dphi ({rank_dphi}) "
          f"- dim N ({sc.codomain.dim})")
    print("F^3 + F and skewness residual:", F.check_invariants(pts))
    print("holomorphy with respect to F^phi:",
          np.max(holomorphy_residual(sc.map, F, sc.J, pts)))
    print("it matches the Sasakian phi-tensor:",
          np.max(np.abs(F.F_at(pts) - sc.contact.phi_at(pts))))
    v = f_div_f(F, pts)
    g = sc.domain.metric_at(pts, check=False)
    print("cosymplectic: max |F div F| =",
          np.max(np.sqrt(np.einsum("ni,nij,nj->n", v, g, v))))


if __name__ == "__main__":
    main()
