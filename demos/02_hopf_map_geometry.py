"""The Hopf fibration as a harmonic Riemannian submersion.

Evaluates jets, the metric adjoint, dilation, energy density, tension and
fibre geometry of S^3 -> CP^1.  Run:  python demos/02_hopf_map_geometry.py
"""

import numpy as np

from phwc_lab.maps import (
    adjoint_differential,
    dilation_hwc,
    energy_density,
    fibre_splitting,
    mean_curvature_fibres,
    tension_field_direct,
)
from phwc_lab.scenarios import build_scenario


def main():
    sc = build_scenario("hopf-s3")
    rng = np.random.default_rng(0)
    pts = sc.domain.random_points(rng, 200, margin=0.03)

    jet = sc.map.jet(pts)
    adj = adjoint_differential(sc.map, pts)
    q = jet.dphi @ adj
    print("Riemannian submersion: max |dphi dphi^t - id| =", np.max(np.abs(q - np.eye(2))))

    lam2, resid = dilation_hwc(sc.map, pts)
    print(f"dilation lambda^2 in [{lam2.min():.12f}, {lam2.max():.12f}], residual {resid.max():.1e}")
    print("energy density range:", energy_density(sc.map, pts).min(), "-",
          energy_density(sc.map, pts).max(), "(constant 2)")

    tau = tension_field_direct(sc.map, pts)
    h = sc.codomain.metric_at(jet.y, check=False)
    tn = np.sqrt(np.einsum("na,nab,nb->n", tau, h, tau))
    print("harmonicity: max |tau| =", tn.max())

    g = sc.domain.metric_at(pts, check=False)
    mu = mean_curvature_fibres(sc.map, pts)
    print("minimal fibres: max |mu| =", np.max(np.sqrt(np.einsum("ni,nij,nj->n", mu, g, mu))))

    split = fibre_splitting(sc.map, pts[0])
    xi = sc.contact.xi_at(pts[0])
    align = abs(split.vertical[:, 0] @ g[0] @ xi)
    print(f"fibre splitting at a point: rank {split.rank}, vertical dim "
          f"{split.vertical.shape[1]}, |<V, xi>| = {align:.9f}")


if __name__ == "__main__":
    main()
