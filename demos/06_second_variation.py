"""Second variation of the strong-coupling energy.

The Hopf map S^3 -> CP^1 is weakly stable on the span of its polynomial
variation fields: the Hessian is computed once as a matrix over that span,
and its generalized eigenvalues against the L2 Gram matrix are the
stationary values of Hess/|v|^2 on the span (Rayleigh-Ritz); the smallest
is the minimum over every field of the span.  The matrices are the
stability check's forms (stability.span_forms): the Hessian on 12 nodes,
Gauss-Legendre on the polar axis and one node on each theta, averaged over
the torus the thetas parametrize, under which the map is equivariant (7
shifts an axis average the forms exactly).
On S^5 and S^7 the variations generated by Killing fields orthogonal to the
Reeb direction are exactly neutral (they flow along domain isometries),
while the reduced integrand of the literature derivation alone would give
4(1-n) |X_v|^2 - the two are reported side by side.  The Killing fields are
one span of the same engine (stability.killing_span), integrated on the
hessian check's torus rule; each field's values are the forms' diagonals.
Run:  python demos/06_second_variation.py
"""

import numpy as np

from phwc_lab.scenarios import build_scenario
from phwc_lab.stability import (
    hessian_matrix,
    killing_fields_sphere,
    killing_span,
    polynomial_span,
    span_forms,
    span_spectrum,
    stability_conditions,
)


def main():
    print("== second-variation spectrum of the Hopf map S^3 -> CP^1 ==")
    sc = build_scenario("hopf-s3", quad_order=12, validate=False)
    span = polynomial_span(sc.map)
    H, G, _, _ = span_forms(sc.map, sc.J, span)
    spec = span_spectrum(H, G)
    print(f"whole {span.dim}-dimensional span (Gram rank {len(spec)}): "
          f"min Hess/|v|^2 = {spec[0]:+.1e}  (nonnegative: weakly stable on the span)")
    print("lowest eigenvalues: " + ", ".join(f"{v:.6f}" for v in spec[:9]))
    rng = np.random.default_rng(0)
    rep = stability_conditions(sc.map, sc.J, sc.domain.random_points(rng, 10, margin=0.05))
    print(f"sufficient conditions: cond_a {rep['cond_a_integrability']:.3f} (contact "
          "distribution is not integrable), so the span bound is the evidence here")

    print("\n== Killing variations on the generalized Hopf maps ==")
    for sid, n in (("hopf-s5", 2), ("hopf-s7", 3)):
        sc = build_scenario(sid, validate=False)
        fam = killing_fields_sphere(n)
        print(f"{sid}: so({2 * n + 2}) basis {len(fam.generators)}, "
              f"orthogonal-to-Reeb family {len(fam.perp_indices)}")
        span = killing_span(sc.map, fam.perpendicular())
        [forms] = hessian_matrix(sc.map, sc.J, span, sc.domain.node_rules[:1], sc.contact)
        hv, n2, red, hs = (np.diag(f) for f in forms)
        print(f"  max |full Hessian| / |X|^2    = {np.max(np.abs(hv / n2)):.2e}"
              "  (neutral: isometry flow)")
        print(f"  contact-frame expansion agrees: {np.max(np.abs(hs - hv) / n2):.1e} of scale")
        print(f"  reduced integrand / |X|^2     = {np.min(red / n2):+.6f} .. {np.max(red / n2):+.6f}"
              "  (the 4(1-n) value)")


if __name__ == "__main__":
    main()
