"""The two-imply-the-third equivalence and compatible Weyl connections.

On critical built-ins all three conditions hold at once; on the warped
control none holds while the proof identity persists, and the compatible
Weyl connection absorbs the divergence of the induced structure.
Run:  python demos/05_equivalences_and_weyl.py
"""

import numpy as np

from phwc_lab.scenarios import build_scenario
from phwc_lab.structures import f_div_f, induced_f_structure
from phwc_lab.variational import (
    criticality_equivalence,
    weyl_compat_residual,
)


def main():
    rng = np.random.default_rng(0)
    print("== the three equivalent conditions (cosymplectic / critical / sum) ==")
    for sid in ("hopf-s3", "product-proj", "warped-hopf"):
        sc = build_scenario(sid)
        pts = sc.domain.random_points(rng, 80, margin=0.05)
        rep = criticality_equivalence(sc.map, sc.J, pts)
        vals = {k: float(np.max(v)) for k, v in rep.items()}
        holding = sum(vals[k] < 1e-4 for k in ("cosymplectic", "criticality", "pullback_sum"))
        print(f"{sid:13s} cosym {vals['cosymplectic']:.1e}  crit {vals['criticality']:.1e}  "
              f"sum {vals['pullback_sum']:.1e}  proof-identity {vals['proof_identity']:.1e}"
              f"  -> {holding}/3 hold")

    print("\n== Weyl connection compatible with the induced structure ==")
    warped = build_scenario("warped-hopf")
    pts = warped.domain.random_points(rng, 60, margin=0.05)
    F = induced_f_structure(warped.map, warped.J)
    g = warped.domain.metric_at(pts, check=False)
    v = f_div_f(F, pts)
    lc = np.max(np.sqrt(np.einsum("ni,nij,nj->n", v, g, v)))
    compat = weyl_compat_residual(warped.domain, F, pts)
    print(f"warped-hopf: |F div F| (Levi-Civita) up to {lc:.3e}")
    print(f"             |F div^D F| with theta-sharp = F div F / (m - 2): {compat:.3e}")
    print("the F^3 + F = 0 cancellation makes the compatible connection exact")


if __name__ == "__main__":
    main()
