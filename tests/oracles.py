"""Independent routes the tests hold the library's exact ones against.

``eigenframe_bracket_rhs`` is the right side of the eigenframe formula
-delta(phi*Omega)(V) = sum_i lambda_i^2 g([E_i, F E_i], V) as the formula
reads: an F-adapted eigenframe {E_i, F E_i} of phi^*h on the horizontal
space, built as a smooth field, and its brackets from central differences
of that field.  ``stability.vertical_codifferential_formula`` takes the same
sum frame-free from F's exact jet.
"""

import numpy as np

from phwc_lab import stability
from phwc_lab.autodiff import field_partials
from phwc_lab.maps import horizontal_frame, pullback_metric
from phwc_lab.structures import induced_f_structure, j_adapted_frame


def eigenframe_bracket_rhs(phi, J, V, x, h, cluster_tol=1e-6):
    """sum_i lambda_i^2 g([E_i, F E_i], V) at the points x (N, m), from a
    stencil of step h of the eigenframe field, (N,).

    Each eigenvalue cluster of phi^*h on the horizontal space gets a frame
    that is smooth in x: the cluster's spectral projector applied to a fixed
    generic matrix seeds an F-adapted Gram-Schmidt (``j_adapted_frame``).
    Every point must have the same cluster layout, of even clusters.
    """
    M = phi.domain
    F = induced_f_structure(phi, J)
    generic = np.random.default_rng(4242).normal(size=(M.dim, M.dim)) + np.eye(M.dim) * M.dim

    H0, T0 = horizontal_frame(phi, x), pullback_metric(phi, x)
    vals = np.linalg.eigh(H0.swapaxes(-1, -2) @ T0 @ H0)[0]
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
    ends = np.diff(vals, axis=-1) > cluster_tol * scale[:, None]
    assert np.all(ends == ends[0]), "the points have different cluster layouts"
    bounds = [0, *(np.flatnonzero(ends[0]) + 1), vals.shape[-1]]

    def frame_field(p, i0, i1):
        g = M.metric_at(p, check=False)
        P = stability._cluster_projector(horizontal_frame(phi, p), pullback_metric(phi, p), g, i0, i1)
        seeds = P @ generic[:, : (i1 - i0) // 2]  # ...ij,jk->...ik
        return j_adapted_frame(g, F.F_at(p), (i1 - i0) // 2, seeds=seeds)

    gV = np.einsum("nij,nj->ni", M.metric_at(x, check=False), V)
    rhs = np.zeros(len(x))
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        assert (i1 - i0) % 2 == 0, "an odd eigenvalue cluster has no F-adapted frame"
        lam2 = np.mean(vals[:, i0:i1], axis=-1)
        fr = frame_field(x, i0, i1)
        dfr = field_partials(lambda p: frame_field(p, i0, i1), x, h)  # (N, m, k, m)
        for j in range(0, i1 - i0, 2):
            E, FE = fr[:, :, j], fr[:, :, j + 1]
            br = np.einsum("nij,nj->ni", dfr[:, :, j + 1, :], E)
            br -= np.einsum("nij,nj->ni", dfr[:, :, j, :], FE)
            rhs += lam2 * np.einsum("ni,ni->n", br, gV)
    return rhs
