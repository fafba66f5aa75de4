"""Second variation of the strong-coupling energy and stability checks.

Hess(v, v) = || d(phi* iota_v Omega) ||^2_L2 + integral Omega(v, nabla^phi_Z v),
with Z the sharp of the codifferential of phi*Omega.  The exterior derivative
is taken on the domain of the pulled-back 1-form A(X) = Omega(v, dphi X),
which is the object the Sasakian expansion uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import field_partials, tensor_jet
from .errors import EigenframeDegenerate, NonFiniteIntegrand, NotCritical, NotSasakianScenario
from .geometry import (
    codifferential_two_form,
    lie_bracket,
    two_form_norm2,
)
from .maps import (
    _lift,
    _submersion_jet,
    adjoint_differential,
    horizontal_frame,
    horizontal_lift,
    horizontal_projector,
    pullback_metric,
    vertical_projector,
)
from .scenarios import ambient_complex_rotation
from .structures import cond_b_residual, induced_f_structure, j_adapted_frame
from .variational import pullback_two_form_field, z_field

__all__ = [
    "VariationField",
    "variation_from_killing",
    "VariationSpan",
    "polynomial_span",
    "killing_span",
    "random_variation_fields",
    "variation_l2_norm2",
    "hessian",
    "hessian_suite",
    "SpanForms",
    "hessian_matrix",
    "rayleigh_quotients",
    "span_spectrum",
    "TORUS_OFFSETS",
    "torus_rules",
    "criticality_gate",
    "sasakian_hessian",
    "killing_reduced_hessian",
    "vertical_codifferential_formula",
    "killing_fields_sphere",
    "KillingFamily",
    "ambient_killing_field",
    "killing_lie_residual",
    "bracket_identity_sasakian",
    "stability_conditions",
]


@dataclass
class VariationField:
    """A section of phi^-1 TN given by chart components along the map.

    ``v_fn`` is a batch field (N, m) -> (N, dim N); it may accept an optional
    ``jet`` keyword (the map jet at the evaluation points) to avoid duplicate
    jet computations in the Hessian stencils.
    """

    map_id: str
    v_fn: object
    generator: np.ndarray | None = None  # skew ambient matrix for Killing fields

    def __post_init__(self):
        if self.generator is not None:
            A = np.asarray(self.generator, dtype=float)
            if not np.array_equal(A, -A.T):
                raise ValueError("Killing generator must be exactly skew-symmetric")
            self.generator = A
        import inspect

        try:
            self._accepts_jet = "jet" in inspect.signature(self.v_fn).parameters
        except (TypeError, ValueError):
            self._accepts_jet = False

    def eval(self, p, jet=None):
        if self._accepts_jet:
            return np.asarray(self.v_fn(p, jet=jet), dtype=float)
        return np.asarray(self.v_fn(p), dtype=float)

    def v_at(self, x):
        xb = np.atleast_2d(np.asarray(x, dtype=float))
        out = self.eval(xb)
        return out[0] if np.asarray(x).ndim == 1 else out

    def scaled(self, t):
        return VariationField(self.map_id, lambda p: t * self.eval(p), None)


# ---------------------------------------------------------------------------
# variation-field constructions


def ambient_killing_field(M, A):
    """Chart components of p -> A p for a chart with an isometric embedding."""
    A = np.asarray(A, dtype=float)

    def X(x):
        e, Je = tensor_jet(M.embedding, x, M.diff)
        return _killing_components(e, Je, M.metric_at(x, check=False), A)

    return X


def _killing_components(e, Je, g, A):
    """Chart components of p -> A p from the embedding jet (e, Je) and the metric g.

    A is one generator (d, d), or a stack of them against operands with a
    broadcast axis for the stack.
    """
    Ap = np.einsum("...ef,...f->...e", A, e)
    rhs = np.einsum("...ei,...e->...i", Je, Ap)
    return np.linalg.solve(g, rhs[..., None])[..., 0]


def _killing_variation(dphi, e, Je, g, A):
    """v = dphi(X_A) from the map differential, the embedding jet and the metric."""
    return np.einsum("...ai,...i->...a", dphi, _killing_components(e, Je, g, A))


def killing_lie_residual(M, A, x):
    """max |(L_X g)_ij| for X = Ap; zero for isometry generators."""
    X = ambient_killing_field(M, A)
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    Xv = np.asarray(X(xb), dtype=float)
    dX = field_partials(X, xb, M.diff.fd_step)
    g, dg = M.metric_jet(xb)
    lie = (
        np.einsum("...k,...ijk->...ij", Xv, dg)
        + np.einsum("...kj,...ki->...ij", g, dX)
        + np.einsum("...ik,...kj->...ij", g, dX)
    )
    return np.max(np.abs(lie), axis=(-1, -2))


def variation_from_killing(phi, A):
    """v = dphi(X_A) for the ambient Killing field X_A(p) = A p."""
    M = phi.domain
    A = np.asarray(A, dtype=float)

    def v_fn(p, jet=None):
        jet = jet or phi.jet(p)
        e, Je = tensor_jet(M.embedding, p, M.diff)
        return _killing_variation(jet.dphi, e, Je, M.metric_at(p, check=False), A)

    return VariationField(map_id=phi.name, v_fn=v_fn, generator=A)


@dataclass(frozen=True)
class VariationSpan:
    """The linear span of K basis sections b_k along a map.

    ``sections(p, jet)`` gives every b_k at the points p, (N, K, dim N);
    ``jet`` is the map jet at p, or None to compute it.  A coefficient array
    c of ``shape`` (K entries, flat index k) names the section sum_k c_k b_k.
    """

    map_id: str
    sections: object
    shape: tuple

    @property
    def dim(self):
        return int(np.prod(self.shape))

    def field(self, c):
        """The section with coefficients c."""
        c = np.asarray(c, dtype=float).reshape(self.dim)

        def v_fn(p, jet=None):
            return np.einsum("k,nka->na", c, self.sections(p, jet))

        return VariationField(map_id=self.map_id, v_fn=v_fn)

    def random_coefficients(self, count, rng):
        """Seeded coefficient arrays (count, *shape), entries N(0, 1/shape[-1])."""
        return rng.normal(size=(count, *self.shape)) / np.sqrt(self.shape[-1])


def polynomial_span(phi, degree=2):
    """Ambient-coordinate polynomials of degree <= 2 through the codomain chart
    coordinate frame (bump-free on the chart).

    The sections are b_(a,f) = feature_f(p) e_a, coefficient shape (dim N, F),
    flat index k = a * F + f.
    """
    M = phi.domain
    embedding = M.embedding or (lambda x: list(x))  # flat charts are ambient
    n = phi.codomain.dim

    def features(p):
        e = np.asarray(tensor_jet(embedding, p, M.diff)[0], dtype=float)
        cols = [np.ones(len(p))]
        d = e.shape[1]
        cols.extend(e[:, i] for i in range(d))
        if degree >= 2:
            for i in range(d):
                for j in range(i, d):
                    cols.append(e[:, i] * e[:, j])
        return np.stack(cols, axis=1)

    def sections(p, jet=None):
        feats = features(p)
        N, F = feats.shape
        out = np.zeros((N, n, F, n))
        for a in range(n):
            out[:, a, :, a] = feats
        return out.reshape(N, n * F, n)

    n_feat = features(M.quadrature.nodes[:1]).shape[1]
    return VariationSpan(phi.name, sections, (n, n_feat))


def killing_span(phi, gens):
    """The span of v_A = dphi(X_A) over the skew ambient generators A of gens.

    The flat index is the generator's position.  The embedding jet and the
    metric are computed once per call for every generator.
    """
    M = phi.domain
    gens = np.asarray(gens, dtype=float)

    def sections(p, jet=None):
        jet = jet or phi.jet(p)
        e, Je = tensor_jet(M.embedding, p, M.diff)
        g = M.metric_at(p, check=False)
        return _killing_variation(jet.dphi[:, None], e[:, None], Je[:, None], g[:, None], gens)

    return VariationSpan(phi.name, sections, (len(gens),))


def random_variation_fields(phi, count, rng, degree=2):
    """Seeded random sections of polynomial_span(phi, degree)."""
    span = polynomial_span(phi, degree)
    return [span.field(c) for c in span.random_coefficients(count, rng)]


def variation_l2_norm2(phi, v):
    """Integral of h(v, v) over the domain."""

    def dens(p):
        y = phi.value(p)
        h = phi.codomain.metric_at(y, check=False)
        vv = np.asarray(v.v_fn(p), dtype=float)
        return np.einsum("...a,...ab,...b->...", vv, h, vv)

    return phi.domain.integrate(dens)


# ---------------------------------------------------------------------------
# the Hessian

# largest criticality residual at which the Hessian is the second variation
CRITICALITY_TOL = 1e-4


def criticality_gate(phi, J, z_nodes=None, nodes=None):
    """Max criticality residual over the nodes (the quadrature's by default),
    reusing Z at them if given."""
    if nodes is None:
        nodes = phi.domain.quadrature.nodes
    if z_nodes is None:
        z_nodes = z_field(phi, J, nodes)
    ph = horizontal_projector(phi, nodes)
    zh = np.einsum("...ij,...j->...i", ph, z_nodes)
    g = phi.domain.metric_at(nodes, check=False)
    return float(np.max(np.sqrt(np.einsum("...i,...ij,...j->...", zh, g, zh))))


def _require_critical(phi, J, z_nodes, tol, nodes=None):
    crit = criticality_gate(phi, J, z_nodes=z_nodes, nodes=nodes)
    if crit > tol:
        raise NotCritical(f"map {phi.name!r}: criticality residual {crit:.3e} exceeds {tol:g}")


def hessian(phi, J, v, *, criticality_tol=CRITICALITY_TOL, allow_noncritical=False, z_nodes=None, gate=True):
    """Second variation of the strong-coupling energy at a critical map.

    One shared finite-difference stencil supplies d(phi* iota_v Omega), the
    derivatives of v, and (when not precomputed) the codifferential behind Z;
    each stencil point costs a single map jet.
    """
    M = phi.domain
    nodes = M.quadrature.nodes
    m, n = M.dim, phi.codomain.dim
    need_z = z_nodes is None

    def fused(p):
        jetp = phi.jet(p)
        om = J.omega_at(jetp.y)
        vv = v.eval(p, jet=jetp)
        om_dphi = om @ jetp.dphi
        A = (vv[..., None, :] @ om_dphi)[..., 0, :]
        pieces = [vv, A]
        if need_z:
            pb = np.swapaxes(jetp.dphi, -1, -2) @ om_dphi
            pieces.append(pb.reshape(len(p), -1))
        return np.concatenate(pieces, axis=-1)

    h = phi.diff.fd_step
    parts = field_partials(fused, nodes, h)
    dv = parts[:, :n, :]
    dA_part = parts[:, n : n + m, :]  # (..., j, i) = d_i A_j
    dA = np.swapaxes(dA_part, -1, -2) - dA_part

    jet = phi.jet(nodes)
    om = J.omega_at(jet.y)
    vv = v.eval(nodes, jet=jet)
    if need_z:
        pb0 = np.swapaxes(jet.dphi, -1, -2) @ (om @ jet.dphi)
        dpb = parts[:, n + m :, :].reshape(len(nodes), m, m, m)
        delta = codifferential_two_form(
            M, None, nodes, omega_values=pb0, omega_partials=dpb
        )
        z_nodes = M.sharp(nodes, delta)
    if gate and not allow_noncritical:
        _require_critical(phi, J, z_nodes, criticality_tol)

    # |d(phi* iota_v Omega)|^2 + Omega(v, nabla_Z v)
    gammaN = phi.codomain.christoffel_at(jet.y)
    term1 = two_form_norm2(M, nodes, dA)
    dphiZ = np.einsum("...ai,...i->...a", jet.dphi, z_nodes)
    nabla_v = np.einsum("...gi,...i->...g", dv, z_nodes) + np.einsum(
        "...gab,...a,...b->...g", gammaN, dphiZ, vv, optimize=True
    )
    term2 = np.einsum("...a,...ab,...b->...", vv, om, nabla_v, optimize=True)
    return M.integrate(term1 + term2)


def hessian_suite(phi, J, v_fields, criticality_tol=CRITICALITY_TOL):
    """Hessians and L2 norms for a family of fields, sharing the Z field."""
    nodes = phi.domain.quadrature.nodes
    z_nodes = z_field(phi, J, nodes)
    _require_critical(phi, J, z_nodes, criticality_tol)
    out = []
    for v in v_fields:
        hv = hessian(phi, J, v, z_nodes=z_nodes, gate=False)
        out.append((hv, variation_l2_norm2(phi, v)))
    return out


# stencil rows (2m per node) of one hessian_matrix block: bounds the stacked
# stencil values of every span
SPAN_BLOCK = 512
# eigenvalues of the Gram matrix below this fraction of its largest are null
GRAM_RANK_CUT = 1e-10


class SpanForms(NamedTuple):
    """Symmetric (K, K) forms over the basis sections b_k of a span.

    The diagonal entry k of each form is the named quantity of b_k alone;
    ``reduced`` and ``sasakian`` are None without a contact structure.
    """

    hessian: np.ndarray  # B(b_k, b_l), the polarized second variation
    gram: np.ndarray  # integral of h(b_k, b_l)
    reduced: np.ndarray | None  # polarized killing_reduced_hessian
    sasakian: np.ndarray | None  # polarized sasakian_hessian


def _weighted_gram(left, right, w):
    """sum over nodes of w * <left_k, right_l>: (B, K, ...) twice -> (K, K) by one matmul."""
    K = left.shape[1]
    lw = (left * w.reshape((-1,) + (1,) * (left.ndim - 1))).swapaxes(0, 1).reshape(K, -1)
    return lw @ right.swapaxes(0, 1).reshape(K, -1).T


def hessian_matrix(phi, J, span, rule=None, contact=None):
    """The second-variation forms over the basis of a variation span.

    Returns SpanForms (H, G, reduced, sasakian) with H_kl = B(b_k, b_l) the
    polarized second variation and G_kl = integral h(b_k, b_l), so that the
    section with flat coefficients c has Hess = c.H.c and |v|^2 = c.G.c.
    With a ``contact`` structure the same stencil also carries the horizontal
    lifts X_k of the sections, and ``reduced`` and ``sasakian`` are the
    polarized forms of killing_reduced_hessian and sasakian_hessian.
    One field_partials stencil of the pieces [b_k, iota_(b_k) Omega . dphi,
    X_k] runs per block of nodes whose 2m shifted copies hold at most
    SPAN_BLOCK rows; the map jet, omega.dphi and the sections are computed
    once per stencil batch.  ``rule`` is a rule of the domain (its
    quadrature by default, or one from ChartManifold.rule or torus_rules);
    its nodes carry Z, the criticality gate of hessian_suite and the weights.
    """
    M = phi.domain
    rule = M.quadrature if rule is None else rule
    nodes = rule.nodes
    z_nodes = z_field(phi, J, nodes)
    _require_critical(phi, J, z_nodes, CRITICALITY_TOL, nodes=nodes)
    m, n, K = M.dim, phi.codomain.dim, span.dim
    nc = n // 2  # complex dimension of the codomain
    weights = rule.weights * rule.density

    def pieces(p, jet=None):
        """[b_k, iota_(b_k) Omega . dphi(, X_k)] at the points p: (N, K, n + m (+ m))."""
        jet = jet or phi.jet(p)
        vv = span.sections(p, jet)
        out = [vv, vv @ (J.omega_at(jet.y) @ jet.dphi)]
        if contact is not None:
            jet = _submersion_jet(phi, p, jet)
            adj = adjoint_differential(phi, p, jet=jet)
            out.append(_lift(adj[:, None], (jet.dphi @ adj)[:, None], vv))
        return np.concatenate(out, axis=-1)

    forms = np.zeros((2 if contact is None else 4, K, K))
    H, G = forms[0], forms[1]
    size = max(1, SPAN_BLOCK // (2 * m))  # nodes a block
    for start in range(0, len(nodes), size):
        sl = slice(start, start + size)
        x, w, z = nodes[sl], weights[sl], z_nodes[sl]
        parts = field_partials(pieces, x, phi.diff.fd_step)
        dv = parts[:, :, :n]  # (B, K, n, m)
        dA_part = parts[:, :, n : n + m]  # (..., j, i) = d_i A_j
        dA = np.swapaxes(dA_part, -1, -2) - dA_part
        jet = phi.jet(x)
        centre = pieces(x, jet)
        vv = centre[:, :, :n]
        om = J.omega_at(jet.y)
        gammaN = phi.codomain.christoffel_at(jet.y)
        h_y = phi.codomain.metric_at(phi.value(x), check=False)
        ginv = M.inverse_metric_at(x)[:, None]
        # |d(phi* iota_v Omega)|^2 = (1/2) tr(g^-1 dA g^-1 dA^T), polarized
        H += 0.5 * _weighted_gram(ginv @ dA @ ginv, dA, w)
        # Omega(b_k, nabla_Z b_l), symmetrized with H below
        dphiZ = np.einsum("...ai,...i->...a", jet.dphi, z)
        nabla_v = np.einsum("bkgi,bi->bkg", dv, z) + np.einsum(
            "bgac,ba,bkc->bkg", gammaN, dphiZ, vv, optimize=True
        )
        H += _weighted_gram(vv @ om, nabla_v, w)
        G += _weighted_gram(vv, vv @ h_y, w)
        if contact is None:
            continue
        R, S = forms[2], forms[3]
        ctx = _reeb_context(phi, contact, x)
        divX, br, phiX = _reeb_vectors(
            [c[:, None] for c in ctx], centre[:, :, n + m :], parts[:, :, n + m :]
        )
        g_br = br @ ctx[3]
        # (div X)^2 + |[xi, X]|^2 - 2n g(phi X, [xi, X]), polarized below
        R += _weighted_gram(divX, divX, w) + _weighted_gram(br, g_br, w)
        R -= 2.0 * nc * _weighted_gram(phiX, g_br, w)
        D = _pair_components(_contact_frame(phi, ctx, x, jet)[:, None], dA, nc)
        S += 0.5 * _weighted_gram(D, D, w)
    if not np.all(np.isfinite(forms)):
        raise NonFiniteIntegrand(f"span Hessian non-finite on {M.name!r}")
    forms = 0.5 * (forms + forms.swapaxes(-1, -2))
    if contact is None:
        return SpanForms(*forms, None, None)
    forms[3] += forms[2]
    return SpanForms(*forms)


def rayleigh_quotients(H, G, coeffs):
    """c.H.c / c.G.c for each coefficient array c of coeffs (S, *span.shape) or (S, K)."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(len(coeffs), -1)
    hv = np.einsum("sk,kl,sl->s", coeffs, H, coeffs)
    n2 = np.einsum("sk,kl,sl->s", coeffs, G, coeffs)
    return hv / n2


def span_spectrum(H, G):
    """Ascending generalized eigenvalues of (H, G) on the range of G.

    Directions whose Gram eigenvalue is below GRAM_RANK_CUT times the largest
    are null sections of the span and are cut; the first value returned is
    the minimum of c.H.c / c.G.c over the whole span.
    """
    gw, U = np.linalg.eigh(G)
    keep = gw > GRAM_RANK_CUT * gw[-1]
    W = U[:, keep] / np.sqrt(gw[keep])
    return np.linalg.eigvalsh(W.T @ H @ W)


# ---------------------------------------------------------------------------
# Sasakian expansion of the Hessian


def _reeb_context(phi, contact, nodes):
    """Field-independent node values of the Reeb terms: (Gamma, xi, d xi, g, phi)."""
    M = phi.domain
    return (
        M.christoffel_at(nodes),
        contact.xi_at(nodes),
        field_partials(lambda p: contact.xi_at(p), nodes, phi.diff.fd_step),
        M.metric_at(nodes, check=False),
        contact.phi_at(nodes),
    )


def _reeb_vectors(ctx, Xv, dX):
    """div X, [xi, X] and phi X from X, its partials and the context.

    Extra leading axes of X (a family of fields) broadcast against the
    context's; give the context a matching axis of length one.
    """
    gamma, xi, dxi, _, ph_tensor = ctx
    divX = np.einsum("...kk->...", dX) + np.einsum("...kkj,...j->...", gamma, Xv)
    br = np.einsum("...i,...ki->...k", xi, dX) - np.einsum("...i,...ki->...k", Xv, dxi)
    phiX = np.einsum("...ij,...j->...i", ph_tensor, Xv)
    return divX, br, phiX


def _reeb_terms(ctx, Xv, dX, n):
    """The reduced integrand (div X)^2 + |[xi, X]|^2 - 2n g(phi X, [xi, X])."""
    divX, br, phiX = _reeb_vectors(ctx, Xv, dX)
    g = ctx[3]
    br2 = np.einsum("...i,...ij,...j->...", br, g, br)
    cross = np.einsum("...i,...ij,...j->...", phiX, g, br)
    return divX**2 + br2 - 2.0 * n * cross


def _contact_frame(phi, ctx, nodes, jet):
    """The J-adapted frame (e_1, phi e_1, ...) of the horizontal space at the nodes."""
    n = phi.codomain.dim // 2
    _, _, _, g, ph_tensor = ctx
    H = horizontal_frame(phi, nodes, jet=jet)
    rng = np.random.default_rng(777)
    mix = rng.normal(size=(2 * n, n)) + np.eye(2 * n)[:, :n]
    seeds = np.einsum("...ia,ab->...ib", H, mix)
    return j_adapted_frame(g, ph_tensor, n, seeds=seeds)


def _pair_components(frame, dA, n):
    """The frame components of dA over |I| != |J| index pairs, zero elsewhere."""
    D = np.einsum("...iI,...ij,...jJ->...IJ", frame, dA, frame, optimize=True)
    pair = np.arange(2 * n) // 2
    return D * (pair[:, None] != pair[None, :])


def sasakian_hessian(phi, contact, J, v):
    """Hessian via the contact-frame expansion; needs v = dphi(X_v), X_v horizontal.

    The horizontal lift reconstructs X_v from v, so any section works as long
    as the scenario is a Riemannian submersion from a Sasakian built-in.
    """
    if contact is None:
        raise NotSasakianScenario("scenario carries no contact metric structure")
    M = phi.domain
    nodes = M.quadrature.nodes
    m = M.dim
    n = phi.codomain.dim // 2
    h = phi.diff.fd_step

    def fused(p):
        jetp = phi.jet(p)
        om = J.omega_at(jetp.y)
        vv = v.eval(p, jet=jetp)
        A = (vv[..., None, :] @ (om @ jetp.dphi))[..., 0, :]
        Xv = horizontal_lift(phi, p, vv, jet=jetp)
        return np.concatenate([A, Xv], axis=-1)

    parts = field_partials(fused, nodes, h)
    dA_part = parts[:, :m, :]
    dX = parts[:, m:, :]
    dA = np.swapaxes(dA_part, -1, -2) - dA_part

    ctx = _reeb_context(phi, contact, nodes)
    jet0 = phi.jet(nodes)
    D = _pair_components(_contact_frame(phi, ctx, nodes, jet0), dA, n)
    Xv = horizontal_lift(phi, nodes, v.eval(nodes, jet=jet0), jet=jet0)
    return M.integrate(0.5 * np.sum(D**2, axis=(-2, -1)) + _reeb_terms(ctx, Xv, dX, n))


def killing_reduced_hessian(phi, contact, J, v):
    """The final-proof reduced integrand: (div X)^2 + |[xi,X]|^2 - 2n g(phi X, [xi,X]).

    For Killing X_v orthogonal to xi this integrates to 4(1-n) * |X_v|^2_L2,
    the value the contact-frame derivation alone suggests.  The full Hessian adds the
    |I| != |J| exterior-derivative sum, which for these fields cancels it
    exactly (isometry invariance of the energy); both are exposed so reports
    can show precisely which step of the chain holds.
    """
    if contact is None:
        raise NotSasakianScenario("scenario carries no contact metric structure")
    M = phi.domain
    nodes = M.quadrature.nodes
    n = phi.codomain.dim // 2

    def Xv_field(p):
        jetp = phi.jet(p)
        return horizontal_lift(phi, p, v.eval(p, jet=jetp), jet=jetp)

    # one stencil serves both the divergence and the bracket with xi
    dX = field_partials(Xv_field, nodes, phi.diff.fd_step)
    return M.integrate(_reeb_terms(_reeb_context(phi, contact, nodes), Xv_field(nodes), dX, n))


# Offsets of the two torus rules of the hessian, node-residual and energy
# checks, as fractions of the period: (start + k * step) mod 1 on the k-th
# periodic axis.  The steps differ, so the two rules differ by a shift that
# is not the same on every axis.  A shift that is the same on every axis
# moves along the Reeb flow, which is central in U(n+1) and so would prove
# nothing about invariance.
TORUS_OFFSETS = ((0.5, np.sqrt(2.0) - 1.0), (0.25, np.sqrt(3.0) - 1.0))


def torus_rules(M, orders=None):
    """The torus rules of chart M at the offsets of TORUS_OFFSETS, in order.

    ``orders`` are the Gauss-Legendre orders of the other axes (default: the
    chart's own), as in ChartManifold.rule.
    """
    k = np.arange(len(M.box.periodic))
    return [M.rule(orders, offsets=(start + k * step) % 1.0) for start, step in TORUS_OFFSETS]


def bracket_identity_sasakian(contact, X, x):
    """Both sides of [xi, X] = nabla_xi X + phi X (Sasakian identity)."""
    if contact is None:
        raise NotSasakianScenario("scenario carries no contact metric structure")
    from .geometry import covariant_derivative_vector

    M = contact.base
    lhs = lie_bracket(M, lambda p: contact.xi_at(p), X, x)
    nab = covariant_derivative_vector(M, lambda p: contact.xi_at(p), X, x)
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    phiX = np.einsum("...ij,...j->...i", contact.phi_at(xb), np.asarray(X(xb), float))
    if np.asarray(x).ndim == 1:
        phiX = phiX[0]
    return lhs, nab + phiX


# ---------------------------------------------------------------------------
# vertical codifferential formula (eigenvalue form)


def vertical_codifferential_formula(phi, J, V, x, F=None, cluster_tol=1e-6):
    """Both sides of -delta(phi*Omega)(V) = sum_i lambda_i^2 g([E_i, F E_i], V).

    {E_i, F E_i} is an eigenframe of phi^*h restricted to the horizontal
    space; eigenvalue clusters are handled through their (smooth) spectral
    projectors.  A point is degenerate if one of its clusters is
    odd-dimensional or not F-invariant.

    ``x`` and ``V`` are one point and its vector (m,), or N points and their
    vectors (N, m).  A single point returns two floats and raises
    EigenframeDegenerate if it is degenerate.  A batch returns ``lhs``,
    ``rhs`` of shape (N,), NaN at degenerate points, and raises nothing for
    them.  The batch shares every node evaluation: points are grouped by
    their cluster layout, degenerate points are found before any frame
    stencil runs, and each cluster of a group costs one field_partials
    stencil over the group's remaining points.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("vertical_codifferential_formula expects points (m,) or (N, m)")
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    Vb = np.atleast_2d(np.asarray(V, dtype=float))
    M = phi.domain
    F = F or induced_f_structure(phi, J)

    delta = codifferential_two_form(M, pullback_two_form_field(phi, J), xb)
    lhs = -np.einsum("...i,...i->...", delta, Vb)
    rhs = np.zeros(len(xb))

    g0 = M.metric_at(xb, check=False)
    H0 = horizontal_frame(phi, xb)
    T0 = pullback_metric(phi, xb)
    vals, _ = np.linalg.eigh(np.swapaxes(H0, -1, -2) @ T0 @ H0)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
    # one row per cluster layout: True where a cluster ends after eigenvalue i
    ends = np.diff(vals, axis=-1) > cluster_tol * scale[:, None]
    layouts, group = np.unique(ends, axis=0, return_inverse=True)
    Fv0 = np.asarray(F.F_at(xb), float)
    F_scale = np.maximum(1.0, np.max(np.abs(Fv0), axis=(-2, -1)))

    rng = np.random.default_rng(4242)
    generic = rng.normal(size=(M.dim, M.dim)) + np.eye(M.dim) * M.dim

    def cluster_projector(p, i0, i1):
        Hp = horizontal_frame(phi, p)
        Tp = pullback_metric(phi, p)
        Mp = np.einsum("...ia,...ij,...jb->...ab", Hp, Tp, Hp)
        w, vec = np.linalg.eigh(Mp)
        cols = np.einsum("...ia,...ab->...ib", Hp, vec[..., i0:i1])
        gp = M.metric_at(p, check=False)
        return np.einsum("...ia,...ja,...jk->...ik", cols, cols, gp)

    def frame_field(p, i0, i1):
        Pp = cluster_projector(p, i0, i1)
        gp = M.metric_at(p, check=False)
        Fp = np.asarray(F.F_at(p), float)
        seeds = np.einsum("...ij,jk->...ik", Pp, generic[:, : (i1 - i0) // 2])
        return j_adapted_frame(gp, Fp, (i1 - i0) // 2, seeds=seeds)

    why = {}  # degenerate point -> reason, from its first failing cluster
    h = phi.diff.fd_step
    for gi, layout in enumerate(layouts):
        bounds = [0, *(np.flatnonzero(layout) + 1), len(layout) + 1]
        clusters = list(zip(bounds[:-1], bounds[1:]))
        keep = np.flatnonzero(group.ravel() == gi)
        for i0, i1 in clusters:
            if not len(keep):
                break
            if (i1 - i0) % 2:
                odd = f"odd eigenvalue cluster (size {i1 - i0}) of the pullback metric"
                why.update(dict.fromkeys(keep.tolist(), odd))
                keep = keep[:0]
                break
            P0 = cluster_projector(xb[keep], i0, i1)
            comm = P0 @ Fv0[keep] - Fv0[keep] @ P0
            bad = np.max(np.abs(comm), axis=(-2, -1)) > 1e-6 * F_scale[keep]
            not_inv = "eigenvalue cluster is not F-invariant"
            why.update(dict.fromkeys(keep[bad].tolist(), not_inv))
            keep = keep[~bad]
        if not len(keep):
            continue
        xk, gk, Vk = xb[keep], g0[keep], Vb[keep]
        for i0, i1 in clusters:
            lam2 = np.mean(vals[keep, i0:i1], axis=-1)
            fr0 = frame_field(xk, i0, i1)
            dfr = field_partials(lambda p: frame_field(p, i0, i1), xk, h)  # (K, m, k, m)
            for j in range(0, i1 - i0, 2):
                E, FE = fr0[:, :, j], fr0[:, :, j + 1]
                dE, dFE = dfr[:, :, j, :], dfr[:, :, j + 1, :]
                br = np.einsum("...ij,...j->...i", dFE, E)
                br -= np.einsum("...ij,...j->...i", dE, FE)
                rhs[keep] += lam2 * np.einsum("...i,...ij,...j->...", br, gk, Vk)
    if single:
        if why:
            raise EigenframeDegenerate(why[0])
        return float(lhs[0]), float(rhs[0])
    bad = list(why)
    lhs[bad] = np.nan
    rhs[bad] = np.nan
    return lhs, rhs


# ---------------------------------------------------------------------------
# Killing fields on odd spheres


@dataclass
class KillingFamily:
    """so(2n+2) basis adapted to the ambient complex structure."""

    n: int
    generators: list
    perp_indices: list  # generators with g(X_A, xi) = 0 on the sphere

    def perpendicular(self):
        return [self.generators[i] for i in self.perp_indices]


def _skew_basis(k):
    out = []
    for p in range(k):
        for q in range(p + 1, k):
            E = np.zeros((k, k))
            E[p, q], E[q, p] = 1.0, -1.0
            out.append(E)
    return out


def _sym_basis(k):
    out = []
    for p in range(k):
        for q in range(p, k):
            E = np.zeros((k, k))
            E[p, q] += 1.0
            E[q, p] += 1.0
            out.append(E)
    return out


def killing_fields_sphere(n):
    """Basis of so(2n+2) (J0-adapted) with the sub-family orthogonal to xi.

    On the sphere g(Ap, xi) = -(Ap).(J0 p) = p.(A J0 p), a quadratic form
    that vanishes for every p exactly when A J0 is skew, i.e. A J0 = -J0 A.
    The commuting (unitary) part never satisfies it; the generators that
    anticommute with the ambient rotation, which mix conjugate complex
    coordinate pairs, are selected by that identity, exactly.
    """
    k = n + 1
    gens = []
    for P in _skew_basis(k):  # u(n+1): [[P, 0], [0, P]]
        A = np.zeros((2 * k, 2 * k))
        A[:k, :k] = P
        A[k:, k:] = P
        gens.append(A)
    for Hm in _sym_basis(k):  # u(n+1): [[0, -H], [H, 0]]
        A = np.zeros((2 * k, 2 * k))
        A[:k, k:] = -Hm
        A[k:, :k] = Hm
        gens.append(A)
    for P in _skew_basis(k):  # anticommuting: [[P, 0], [0, -P]]
        A = np.zeros((2 * k, 2 * k))
        A[:k, :k] = P
        A[k:, k:] = -P
        gens.append(A)
    for Q in _skew_basis(k):  # anticommuting: [[0, Q], [Q, 0]]
        A = np.zeros((2 * k, 2 * k))
        A[:k, k:] = Q
        A[k:, :k] = Q
        gens.append(A)
    J0 = ambient_complex_rotation(n)
    perp = [i for i, A in enumerate(gens) if np.array_equal(A @ J0, -(J0 @ A))]
    return KillingFamily(n=n, generators=gens, perp_indices=perp)


# ---------------------------------------------------------------------------
# sufficient stability conditions


def stability_conditions(phi, J, x, F=None):
    """Residuals of the two sufficient weak-stability conditions.

    cond_a: max vertical component of [H_a, H_b] over a horizontal frame
    (integrability of the horizontal distribution); cond_b: the f-structure
    condition sampled over horizontal unit vectors.
    """
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    F = F or induced_f_structure(phi, J)
    h = phi.diff.fd_step

    def H_field(p):
        return horizontal_frame(phi, p)

    H0 = H_field(xb)
    dH = field_partials(H_field, xb, h)  # (N, m, a, m)
    g = phi.domain.metric_at(xb, check=False)
    pv = vertical_projector(phi, xb)
    n = H0.shape[-1]
    worst = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            br = np.einsum("...i,...ki->...k", H0[..., a], dH[..., :, b, :]) - np.einsum(
                "...i,...ki->...k", H0[..., b], dH[..., :, a, :]
            )
            brv = np.einsum("...ij,...j->...i", pv, br)
            nrm = np.sqrt(np.einsum("...i,...ij,...j->...", brv, g, brv))
            worst = np.maximum(worst, nrm)
    cond_a = float(np.max(worst))
    cond_b = float(np.max(cond_b_residual(F, xb)))
    return {
        "cond_a_integrability": cond_a,
        "cond_b_structure": cond_b,
        "weakly_stable_sufficient": bool(cond_a < 1e-8 or cond_b < 1e-8),
    }
