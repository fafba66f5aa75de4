"""Independent routes the tests hold the library's exact ones against, and
the test-only helpers no run, CLI command or demo calls.

``eigenframe_bracket_rhs`` is the right side of the eigenframe formula
-delta(phi*Omega)(V) = sum_i lambda_i^2 g([E_i, F E_i], V) as the formula
reads: an F-adapted eigenframe {E_i, F E_i} of phi^*h on the horizontal
space, built as a smooth field, and its brackets from central differences
of that field.  ``stability.vertical_codifferential_formula`` takes the same
sum frame-free from F's exact jet.

The rest are single-field or stencil routes: Killing variations and seeded
polynomial fields (``stability.VariationField``, from a span's sections and
coefficients), the Lie-derivative residual of an ambient Killing field, the
phh and divergence conditions of the induced f-structure, and stencil
divergences and the second fundamental form on tangent vectors.
"""

import numpy as np

from phwc_lab import autodiff, stability, structures
from phwc_lab.autodiff import field_partials, tensor_jet
from phwc_lab.geometry import _apply_first, _batch, _nabla_two_tensor, nabla_endomorphism
from phwc_lab.maps import horizontal_frame, pullback_metric, second_fundamental_form_tensor
from phwc_lab.structures import induced_f_structure, j_adapted_frame
from phwc_lab.variational import pullback_two_form


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


# ---------------------------------------------------------------------------
# variation fields and Killing fields


def ambient_killing_field(M, A):
    """Chart components of p -> A p for a chart with an isometric embedding."""
    A = np.asarray(A, dtype=float)

    def X(x):
        e, Je = tensor_jet(M.embedding, x)
        return killing_components(e, Je, M.metric_at(x, check=False), A[None])[..., 0, :]

    return X


def killing_components(e, Je, g, A):
    """Chart components of p -> A p from the embedding jet (e, Je) and the metric g.

    A is a stack of K generators (K, d, d); e (..., d), Je (..., d, m) and
    g (..., m, m) are the values at the points.  Each metric is factored
    once for the K right-hand sides.  Returns (..., K, m).
    """
    Ap = (e @ A.reshape(-1, A.shape[-1]).T).reshape(e.shape[:-1] + A.shape[:2])
    rhs = Je.swapaxes(-1, -2) @ Ap.swapaxes(-1, -2)  # kef,...f->...ek; ...ei,...ek->...ik
    return np.linalg.solve(g, rhs).swapaxes(-1, -2)


def killing_variation(dphi, e, Je, g, A):
    """v_k = dphi(X_(A_k)) for a stack A (K, d, d) from the map differential,
    the embedding jet and the metric: (..., K, dim N)."""
    return killing_components(e, Je, g, A) @ dphi.swapaxes(-1, -2)  # ...ai,...ki->...ka


def variation_from_killing(phi, A):
    """v = dphi(X_A) for the ambient Killing field X_A(p) = A p."""
    M = phi.domain
    A = np.asarray(A, dtype=float)

    def v_fn(p):
        dphi = phi.jet(p).dphi
        e, Je = tensor_jet(M.embedding, p)
        return killing_variation(dphi, e, Je, M.metric_at(p, check=False), A[None])[..., 0, :]

    return stability.VariationField(map_id=phi.name, v_fn=v_fn)


def span_sections(span, p):
    """Every basis section b_k of a VariationSpan at the points p: (N, K, dim N)."""
    return span.section_jet(p)[0]


def span_field(span, c):
    """The section sum_k c_k b_k of a VariationSpan as a VariationField."""
    c = np.asarray(c, dtype=float).reshape(span.dim)

    def v_fn(p):
        return np.einsum("k,nka->na", c, span_sections(span, p))

    return stability.VariationField(map_id=span.map_id, v_fn=v_fn)


def random_coefficients(span, count, rng):
    """Seeded coefficient arrays (count, *span.shape), entries N(0, 1/shape[-1])."""
    return rng.normal(size=(count, *span.shape)) / np.sqrt(span.shape[-1])


def random_variation_fields(phi, count, rng, degree=2):
    """Seeded random sections of polynomial_span(phi, degree)."""
    span = stability.polynomial_span(phi, degree)
    return [span_field(span, c) for c in random_coefficients(span, count, rng)]


def killing_lie_residual(M, A, x):
    """max |(L_X g)_ij| for X = Ap; zero for isometry generators."""
    X = ambient_killing_field(M, A)
    xb, _ = _batch(x)
    Xv = np.asarray(X(xb), dtype=float)
    dX = field_partials(X, xb, autodiff.FD_STEP)
    g, dg = M.metric_jet(xb)
    lie = (
        np.einsum("...k,...ijk->...ij", Xv, dg)
        + dX.swapaxes(-1, -2) @ g  # ...kj,...ki->...ij
        + g @ dX  # ...ik,...kj->...ij
    )
    return np.max(np.abs(lie), axis=(-1, -2))


# ---------------------------------------------------------------------------
# f-structure conditions


def phh_residual(phi, J, x):
    """max over horizontal orthonormal X, Y of |F((nabla_X F) Y)|_g."""
    F = induced_f_structure(phi, J)
    xb, squeeze = _batch(x)
    H = horizontal_frame(phi, xb)
    Fv, dF = F.F_jet(xb)
    nab = nabla_endomorphism(phi.domain, F.F_at, xb, dF=dF)
    # F((nabla_{H_a} F) H_b) for all horizontal pairs: ...kl,...ia,...ilj,...jb->...kab
    HnH = H.swapaxes(-1, -2)[..., None, :, :] @ nab.swapaxes(-3, -2) @ H[..., None, :, :]
    v = _apply_first(Fv, HnH)
    g = phi.domain.metric_at(xb, check=False)
    norms = np.sqrt(np.einsum("...kab,...kl,...lab->...ab", v, g, v))
    out = np.max(norms, axis=(-1, -2))
    return out[0] if squeeze else out


def cond_div_residual(F, x):
    """cond_b_residual's expression with F applied, sampled over Ker(F^2 + I)."""
    return structures._cond_b_norms(F, x, apply_F=True)


# ---------------------------------------------------------------------------
# stencil divergences and the second fundamental form


def divergence_vector_field(M, X, x):
    """div X = sum_a g(nabla_{e_a} X, e_a) = d_k X^k + Gamma^k_kj X^j."""
    xb, squeeze = _batch(x)
    gamma = M.christoffel_at(xb)
    Xv = np.asarray(X(xb), dtype=float)
    dX = field_partials(lambda p: np.asarray(X(p), dtype=float), xb, autodiff.FD_STEP)
    out = np.einsum("...kk->...", dX) + np.einsum("...kkj,...j->...", gamma, Xv)
    return out[0] if squeeze else out


def divergence_two_tensor(M, T, x):
    """(div T)(Z) = sum_a (nabla_{e_a} T)(e_a, Z); returns the covector."""
    xb, squeeze = _batch(x)
    nab = _nabla_two_tensor(M, T, xb)
    ginv = M.inverse_metric_at(xb)
    out = np.einsum("...ij,...ijk->...k", ginv, nab)
    return out[0] if squeeze else out


def second_fundamental_form(phi, X, Y):
    """nabla dphi(X, Y) for tangent vectors based at the same point."""
    if not np.allclose(X.base_point, Y.base_point):
        raise ValueError("X and Y must be based at the same point")
    nd = second_fundamental_form_tensor(phi, X.base_point)
    return np.einsum("...gij,...i,...j->...g", nd, X.components, Y.components)


def pullback_two_form_field(phi, J):
    return lambda p: pullback_two_form(phi, J, p)
