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

from . import autodiff
from .autodiff import _check_finite, field_partials, tensor_jet, tensor_second
from .errors import EigenframeDegenerate, NonFiniteIntegrand, NotCritical, NotSasakianScenario
from .geometry import (
    _apply_first,
    _batch,
    codifferential_two_form,
    lie_bracket,
    nabla_endomorphism,
    torus_offsets,
    two_form_norm2,
)
from .maps import (
    _lift_jet,
    _projector_partials,
    horizontal_frame,
    horizontal_lift,
    pullback_metric,
    vertical_projector,
)
from .scenarios import ambient_complex_rotation
from .structures import cond_b_residual, induced_f_structure, j_adapted_frame
from .variational import (
    _omega_dphi_jet,
    _pullback_codifferential,
    criticality_residual,
    z_field,
)

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
    "span_rule",
    "rayleigh_quotients",
    "span_spectrum",
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

    ``v_fn`` is a batch field of the points alone, (N, m) -> (N, dim N).
    What it needs of the map (the jet, a metric) it asks for at the points;
    the memo of evaluations by point set (``autodiff._memo``) hands back
    what an earlier call at the same points already computed.
    """

    map_id: str
    v_fn: object

    def eval(self, p):
        """v at the points p (N, m)."""
        return np.asarray(self.v_fn(p), dtype=float)

    def v_at(self, x):
        """v at one point (m,) or N points (N, m)."""
        xb, squeeze = _batch(x)
        out = self.eval(xb)
        return out[0] if squeeze else out

    def scaled(self, t):
        return VariationField(self.map_id, lambda p: t * self.eval(p))


# ---------------------------------------------------------------------------
# variation-field constructions


def ambient_killing_field(M, A):
    """Chart components of p -> A p for a chart with an isometric embedding."""
    A = np.asarray(A, dtype=float)

    def X(x):
        e, Je = tensor_jet(M.embedding, x)
        return _killing_components(e, Je, M.metric_at(x, check=False), A[None])[..., 0, :]

    return X


def _killing_components(e, Je, g, A):
    """Chart components of p -> A p from the embedding jet (e, Je) and the metric g.

    A is a stack of K generators (K, d, d); e (..., d), Je (..., d, m) and
    g (..., m, m) are the values at the points.  Each metric is factored
    once for the K right-hand sides.  Returns (..., K, m).
    """
    Ap = (e @ A.reshape(-1, A.shape[-1]).T).reshape(e.shape[:-1] + A.shape[:2])
    rhs = Je.swapaxes(-1, -2) @ Ap.swapaxes(-1, -2)  # kef,...f->...ek; ...ei,...ek->...ik
    return np.linalg.solve(g, rhs).swapaxes(-1, -2)


def _killing_jet(e, Je, He, g, dg, A):
    """X_k = g^-1 Je^T A_k e (``_killing_components``) for a stack A (K, d, d)
    and the partials of X_k, from the embedding's second jet (e, Je, He) and
    the metric jet (g, dg), derivative index last.

    Each metric is factored once for the K right-hand sides, their partials
    and the partials of g: d(g^-1) = -g^-1 dg g^-1.  Returns X (N, K, m) and
    dX (m, N, K, m), derivative axis first.
    """
    N, m = Je.shape[0], Je.shape[-1]
    K = len(A)
    A_t = A.reshape(-1, A.shape[-1]).T  # (f, K*d)
    Ap = (e @ A_t).reshape(N, K, -1).swapaxes(-1, -2)  # kef,nf->nek: (N, d, K)
    Je_t = Je.swapaxes(-1, -2)
    AJe = (Je_t @ A_t).reshape(N, m, K, -1).transpose(1, 0, 3, 2)  # kef,nfi->inek
    d_rhs = np.moveaxis(He, -1, 0).swapaxes(-1, -2) @ Ap + Je_t @ AJe
    # columns: Je^T A_k e, then d_i (Je^T A_k e) and d_i g, derivative-major
    rhs = [Je_t @ Ap, d_rhs.transpose(1, 2, 0, 3), dg.transpose(0, 1, 3, 2)]
    sol = np.linalg.solve(g, np.concatenate([r.reshape(N, m, -1) for r in rhs], axis=-1))
    X = sol[..., :K]
    dX = np.moveaxis(sol[..., K : K + m * K].reshape(N, m, m, K), -2, 0)
    dX -= np.moveaxis(sol[..., K + m * K :].reshape(N, m, m, m), -2, 0) @ X
    return X.swapaxes(-1, -2), dX.swapaxes(-1, -2)


def _killing_variation(dphi, e, Je, g, A):
    """v_k = dphi(X_(A_k)) for a stack A (K, d, d) from the map differential,
    the embedding jet and the metric: (..., K, dim N)."""
    return _killing_components(e, Je, g, A) @ dphi.swapaxes(-1, -2)  # ...ai,...ki->...ka


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


def variation_from_killing(phi, A):
    """v = dphi(X_A) for the ambient Killing field X_A(p) = A p."""
    M = phi.domain
    A = np.asarray(A, dtype=float)

    def v_fn(p):
        dphi = phi.jet(p).dphi
        e, Je = tensor_jet(M.embedding, p)
        return _killing_variation(dphi, e, Je, M.metric_at(p, check=False), A[None])[..., 0, :]

    return VariationField(map_id=phi.name, v_fn=v_fn)


@dataclass(frozen=True)
class VariationSpan:
    """The linear span of K basis sections b_k along a map.

    ``section_jet(p)`` gives every b_k at the points p, (N, K, dim N), and
    their exact first partials, (m, N, K, dim N) with the derivative axis
    first; like a VariationField's ``v_fn`` it asks for the jets it needs.  A
    coefficient array c of ``shape`` (K entries, flat index k) names the
    section sum_k c_k b_k.  ``bandwidth`` B, if declared, bounds the Fourier
    modes of the sections' products along every periodic axis of the domain:
    none has |k| > B.  B bounds the forms' integrands, so B + 1 trapezoid
    nodes a period integrate them exactly (``span_rule``) for a map that is
    equivariant under the torus the periodic axes parametrize, as the
    catalog's Hopf maps are.  The map's factors in the integrands (dphi, h,
    Omega, Gamma at phi(x)) do depend on theta; equivariance is what holds:
    the T = 5 rule matched the 7-shift torus average of the one-node forms
    within 3e-14 on hopf-s5 and hopf-s7.  Nothing checks B at run time yet
    (ROADMAP item 4(b)).
    """

    map_id: str
    section_jet: object
    shape: tuple
    bandwidth: int | None = None

    @property
    def dim(self):
        return int(np.prod(self.shape))

    def sections(self, p):
        """Every b_k at the points p: (N, K, dim N)."""
        return self.section_jet(p)[0]

    def field(self, c):
        """The section with coefficients c."""
        c = np.asarray(c, dtype=float).reshape(self.dim)

        def v_fn(p):
            return np.einsum("k,nka->na", c, self.sections(p))

        return VariationField(map_id=self.map_id, v_fn=v_fn)

    def random_coefficients(self, count, rng):
        """Seeded coefficient arrays (count, *shape), entries N(0, 1/shape[-1])."""
        return rng.normal(size=(count, *self.shape)) / np.sqrt(self.shape[-1])


def polynomial_span(phi, degree=2):
    """Ambient-coordinate polynomials of degree <= ``degree`` (1 or 2) through
    the codomain chart coordinate frame (bump-free on the chart).

    The sections are b_(a,f) = feature_f(p) e_a, coefficient shape (dim N, F),
    flat index k = a * F + f.  A feature has Fourier degree <= ``degree`` in
    each theta of a torus chart, and the forms are bilinear in the sections,
    so the span declares bandwidth 2 * degree.  The features' partials come
    from the embedding's jet by the product rule.
    """
    if degree not in (1, 2):
        raise ValueError(f"polynomial_span takes degree 1 or 2, got {degree!r}")
    M = phi.domain
    embedding = M.embedding or (lambda x: list(x))  # flat charts are ambient
    n = phi.codomain.dim

    def features(p):
        """The features (N, F) and their partials (N, F, m)."""
        e, de = tensor_jet(embedding, p)
        cols, dcols = [np.ones(len(p))], [np.zeros(de[:, 0].shape)]
        d = e.shape[1]
        cols.extend(e[:, i] for i in range(d))
        dcols.extend(de[:, i] for i in range(d))
        if degree == 2:
            for i in range(d):
                for j in range(i, d):
                    cols.append(e[:, i] * e[:, j])
                    dcols.append(de[:, i] * e[:, j, None] + e[:, i, None] * de[:, j])
        return np.stack(cols, axis=1), np.stack(dcols, axis=1)

    def section_jet(p):
        feats, dfeats = features(p)
        N, F = feats.shape
        out = np.zeros((N, n, F, n))
        dout = np.zeros((M.dim, N, n, F, n))
        for a in range(n):
            out[:, a, :, a] = feats
            dout[:, :, a, :, a] = np.moveaxis(dfeats, -1, 0)
        return out.reshape(N, n * F, n), dout.reshape(M.dim, N, n * F, n)

    n_feat = features(M.node_rules[0].nodes[:1])[0].shape[1]
    return VariationSpan(phi.name, section_jet, (n, n_feat), bandwidth=2 * degree)


def killing_span(phi, gens):
    """The span of v_A = dphi(X_A) over the skew ambient generators A of gens.

    The flat index is the generator's position.  The partials of v_A come by
    the product rule from phi's second jet, the embedding's second jet and
    the metric jet (``_killing_jet``), computed once per call for every
    generator.
    """
    M = phi.domain
    gens = np.asarray(gens, dtype=float)

    def section_jet(p):
        mj = phi.second_jet(p)
        X, dX = _killing_jet(*tensor_second(M.embedding, p), *M.metric_jet(p), gens)
        dphi_t = mj.dphi.swapaxes(-1, -2)
        d_dphi_t = np.moveaxis(mj.d2phi, -1, 0).swapaxes(-1, -2)  # (d_i dphi)^T
        return X @ dphi_t, dX @ dphi_t + X @ d_dphi_t

    return VariationSpan(phi.name, section_jet, (len(gens),))


def random_variation_fields(phi, count, rng, degree=2):
    """Seeded random sections of polynomial_span(phi, degree)."""
    span = polynomial_span(phi, degree)
    return [span.field(c) for c in span.random_coefficients(count, rng)]


def variation_l2_norm2(phi, v):
    """Integral of h(v, v) over the domain."""

    def dens(p):
        y = phi.value(p)
        h = phi.codomain.metric_at(y, check=False)
        vv = v.v_at(p)
        return np.einsum("...a,...ab,...b->...", vv, h, vv)

    return phi.domain.integrate(dens)


# ---------------------------------------------------------------------------
# the Hessian

# largest criticality residual at which the Hessian is the second variation
CRITICALITY_TOL = 1e-4


def _require_critical(phi, J, nodes, z_nodes):
    """NotCritical if the criticality residual at the nodes, from Z there, exceeds CRITICALITY_TOL."""
    crit = float(np.max(criticality_residual(phi, J, nodes, z=z_nodes)))
    if crit > CRITICALITY_TOL:
        raise NotCritical(
            f"map {phi.name!r}: criticality residual {crit:.3e} exceeds {CRITICALITY_TOL:g}"
        )


def hessian(phi, J, v, *, allow_noncritical=False, z_nodes=None):
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
        vv = v.v_at(p)
        om_dphi = om @ jetp.dphi
        A = (vv[..., None, :] @ om_dphi)[..., 0, :]
        pieces = [vv, A]
        if need_z:
            pb = np.swapaxes(jetp.dphi, -1, -2) @ om_dphi
            pieces.append(pb.reshape(len(p), -1))
        return np.concatenate(pieces, axis=-1)

    parts = field_partials(fused, nodes, autodiff.FD_STEP)
    dv = parts[:, :n, :]
    dA_part = parts[:, n : n + m, :]  # (..., j, i) = d_i A_j
    dA = np.swapaxes(dA_part, -1, -2) - dA_part

    jet = phi.jet(nodes)
    om = J.omega_at(jet.y)
    vv = v.v_at(nodes)
    if need_z:
        pb0 = np.swapaxes(jet.dphi, -1, -2) @ (om @ jet.dphi)
        dpb = parts[:, n + m :, :].reshape(len(nodes), m, m, m)
        delta = codifferential_two_form(
            M, None, nodes, omega_values=pb0, omega_partials=dpb
        )
        z_nodes = M.sharp(nodes, delta)
    if not allow_noncritical:
        _require_critical(phi, J, nodes, z_nodes)

    # |d(phi* iota_v Omega)|^2 + Omega(v, nabla_Z v)
    gammaN = phi.codomain.christoffel_at(jet.y)
    term1 = two_form_norm2(M, nodes, dA)
    dphiZ = np.einsum("...ai,...i->...a", jet.dphi, z_nodes)
    nabla_v = np.einsum("...gi,...i->...g", dv, z_nodes) + np.einsum(
        "...gab,...a,...b->...g", gammaN, dphiZ, vv
    )
    term2 = np.einsum("...a,...ab,...b->...", vv, om, nabla_v)
    return M.integrate(term1 + term2)


def hessian_suite(phi, J, v_fields):
    """Hessians and L2 norms for a family of fields, sharing the Z field."""
    nodes = phi.domain.quadrature.nodes
    z_nodes = z_field(phi, J, nodes)
    _require_critical(phi, J, nodes, z_nodes)
    out = []
    for v in v_fields:
        hv = hessian(phi, J, v, z_nodes=z_nodes, allow_noncritical=True)
        out.append((hv, variation_l2_norm2(phi, v)))
    return out


# nodes of one chunk of the forms' sums: each rule's sums run over chunks of
# SPAN_BLOCK of its nodes, in node order, which fixes their rounding
SPAN_BLOCK = 64
# bytes of the stacked partials of the pieces of one hessian_matrix evaluation batch
SPAN_BATCH_BYTES = 1 << 20
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


def _batches(chunks, cap):
    """Group consecutive chunks (lo, hi, ...) of a run of nodes into lists
    that span at most ``cap`` nodes, or hold a single chunk that spans more."""
    out = []
    for chunk in chunks:
        if out and chunk[1] - out[-1][0][0] <= cap:
            out[-1].append(chunk)
        else:
            out.append([chunk])
    return out


def hessian_matrix(phi, J, span, rules=None, contact=None):
    """The second-variation forms over the basis of a variation span, one per rule.

    Returns a list of SpanForms (H, G, reduced, sasakian), one for each rule
    of ``rules``, with H_kl = B(b_k, b_l) the polarized second variation and
    G_kl = integral h(b_k, b_l), so that the section with flat coefficients
    c has Hess = c.H.c and |v|^2 = c.G.c.  With a ``contact`` structure the
    pieces also carry the horizontal lifts X_k of the sections, and
    ``reduced`` and ``sasakian`` are the polarized forms of
    killing_reduced_hessian and sasakian_hessian.  ``rules`` are rules of
    the domain (default: its quadrature alone), e.g. from span_rule,
    ChartManifold.rule or geometry.torus_rules.

    The partials of the pieces [b_k, iota_(b_k) Omega . dphi, X_k] are
    exact: the span's ``section_jet`` gives (b, db), and the product rule
    adds phi's second jet, Omega's jet (``omega_jet``) and, for the lifts,
    the metric jets (``maps._lift_jet``).  No step enters H, G or Z.
    Every node-set evaluation runs once on the rules' nodes stacked in
    order: Z and the criticality gate of hessian_suite, then, a batch of
    nodes at a time, the pieces and their partials, the map jet and the
    Reeb and contact-frame values.  A batch holds at most SPAN_BATCH_BYTES
    of stacked partials, one node's if it must hold more.  Each rule's
    forms sum over its own nodes in chunks of SPAN_BLOCK nodes, so they do
    not depend on the other rules or on the batches.
    """
    M = phi.domain
    rules = [M.quadrature] if rules is None else list(rules)
    nodes = np.concatenate([r.nodes for r in rules])
    weights = np.concatenate([r.weights * r.density for r in rules])
    z_nodes = z_field(phi, J, nodes)
    _require_critical(phi, J, nodes, z_nodes)
    m, n, K = M.dim, phi.codomain.dim, span.dim
    nc = n // 2  # complex dimension of the codomain
    width = n + m if contact is None else n + 2 * m  # pieces of one section

    def evaluate(x):
        """What the sums read at the nodes x: first the partials (N, K, width, m)
        and the values (N, K, width) of the pieces."""
        jet, om, om_dphi, d_om_dphi = _omega_dphi_jet(phi, J, x)
        b, db = span.section_jet(x)
        values, partials = [b, b @ om_dphi], [db, db @ om_dphi + b @ d_om_dphi]
        if contact is not None:
            X, dX = _lift_jet(phi, x, b, db)
            values.append(X)
            partials.append(dX)
        partials = np.concatenate(partials, axis=-1)
        _check_finite(partials)
        out = [
            np.moveaxis(partials, 0, -1),
            np.concatenate(values, axis=-1),
            jet.dphi,
            om,
            phi.codomain.christoffel_at(jet.y),
            phi.codomain.metric_at(jet.y, check=False),
            M.inverse_metric_at(x),
        ]
        if contact is not None:
            ctx = _reeb_context(phi, contact, x)
            out += [*ctx, _contact_frame(phi, ctx, x)]
        return out

    forms = np.zeros((len(rules), 2 if contact is None else 4, K, K))
    cap = max(1, SPAN_BATCH_BYTES // (K * width * m * 8))  # nodes a batch
    ends = np.cumsum([0] + [len(r.nodes) for r in rules])
    chunks = [
        (lo, min(lo + SPAN_BLOCK, hi), r)
        for r, (start, hi) in enumerate(zip(ends[:-1], ends[1:]))
        for lo in range(start, hi, SPAN_BLOCK)
    ]
    for batch in _batches(chunks, cap):
        lo, hi = batch[0][0], batch[-1][1]
        # more than one evaluation only for a single chunk above the cap
        values = [evaluate(nodes[a : min(a + cap, hi)]) for a in range(lo, hi, cap)]
        values = values[0] if len(values) == 1 else [np.concatenate(v) for v in zip(*values)]
        for c_lo, c_hi, r in batch:
            sl = slice(c_lo - lo, c_hi - lo)
            parts, centre, dphi, om, gammaN, h_y, ginv, *reeb = (v[sl] for v in values)
            w, z = weights[c_lo:c_hi], z_nodes[c_lo:c_hi]
            H, G = forms[r, 0], forms[r, 1]
            dv = parts[:, :, :n]  # (B, K, n, m)
            dA_part = parts[:, :, n : n + m]  # (..., j, i) = d_i A_j
            dA = np.swapaxes(dA_part, -1, -2) - dA_part
            vv = centre[:, :, :n]
            ginv = ginv[:, None]
            # |d(phi* iota_v Omega)|^2 = (1/2) tr(g^-1 dA g^-1 dA^T), polarized
            H += 0.5 * _weighted_gram(ginv @ dA @ ginv, dA, w)
            # Omega(b_k, nabla_Z b_l), symmetrized with H below
            dphiZ = np.einsum("...ai,...i->...a", dphi, z)
            gz = np.einsum("bgac,ba->bgc", gammaN, dphiZ)
            nabla_v = np.einsum("bkgi,bi->bkg", dv, z) + vv @ gz.swapaxes(-1, -2)
            H += _weighted_gram(vv @ om, nabla_v, w)
            G += _weighted_gram(vv, vv @ h_y, w)
            if contact is None:
                continue
            R, S = forms[r, 2], forms[r, 3]
            *ctx, frame = reeb
            divX, br, phiX = _reeb_vectors(
                [c[:, None] for c in ctx], centre[:, :, n + m :], parts[:, :, n + m :]
            )
            g_br = br @ ctx[3]
            # (div X)^2 + |[xi, X]|^2 - 2n g(phi X, [xi, X]), polarized below
            R += _weighted_gram(divX, divX, w) + _weighted_gram(br, g_br, w)
            R -= 2.0 * nc * _weighted_gram(phiX, g_br, w)
            D = _pair_components(frame[:, None], dA, nc)
            S += 0.5 * _weighted_gram(D, D, w)
    if not np.all(np.isfinite(forms)):
        raise NonFiniteIntegrand(f"span Hessian non-finite on {M.name!r}")
    forms = 0.5 * (forms + forms.swapaxes(-1, -2))
    if contact is None:
        return [SpanForms(*f, None, None) for f in forms]
    forms[:, 3] += forms[:, 2]
    return [SpanForms(*f) for f in forms]


def span_rule(M, span, orders=None):
    """The rule of chart M on which hessian_matrix integrates ``span``.

    On a chart with periodic axes and a span that declares its bandwidth B:
    Gauss-Legendre at ``orders`` (default the chart's) on the other axes and
    B + 1 trapezoid nodes on each periodic axis, at the offsets of the first
    torus rule.  It is exact along theta for a map equivariant under the
    torus of the periodic axes (see VariationSpan), although the factors the
    map brings into the integrands depend on theta.  Otherwise Gauss-Legendre
    at ``orders`` on every axis.
    """
    if span.bandwidth is None:
        return M.rule(orders)
    return M.rule(orders, torus_offsets(M)[0], span.bandwidth + 1)


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
        *contact.xi_jet(nodes),
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


def _contact_frame(phi, ctx, nodes):
    """The J-adapted frame (e_1, phi e_1, ...) of the horizontal space at the nodes."""
    n = phi.codomain.dim // 2
    _, _, _, g, ph_tensor = ctx
    H = horizontal_frame(phi, nodes)
    rng = np.random.default_rng(777)
    mix = rng.normal(size=(2 * n, n)) + np.eye(2 * n)[:, :n]
    return j_adapted_frame(g, ph_tensor, n, seeds=H @ mix)  # ...ia,ab->...ib


def _pair_components(frame, dA, n):
    """The frame components of dA over |I| != |J| index pairs, zero elsewhere."""
    D = frame.swapaxes(-1, -2) @ dA @ frame
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

    def fused(p):
        jetp = phi.jet(p)
        om = J.omega_at(jetp.y)
        vv = v.v_at(p)
        A = (vv[..., None, :] @ (om @ jetp.dphi))[..., 0, :]
        Xv = horizontal_lift(phi, p, vv)
        return np.concatenate([A, Xv], axis=-1)

    parts = field_partials(fused, nodes, autodiff.FD_STEP)
    dA_part = parts[:, :m, :]
    dX = parts[:, m:, :]
    dA = np.swapaxes(dA_part, -1, -2) - dA_part

    ctx = _reeb_context(phi, contact, nodes)
    D = _pair_components(_contact_frame(phi, ctx, nodes), dA, n)
    Xv = horizontal_lift(phi, nodes, v.v_at(nodes))
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
        return horizontal_lift(phi, p, v.v_at(p))

    # one stencil serves both the divergence and the bracket with xi
    dX = field_partials(Xv_field, nodes, autodiff.FD_STEP)
    return M.integrate(_reeb_terms(_reeb_context(phi, contact, nodes), Xv_field(nodes), dX, n))


def bracket_identity_sasakian(contact, X, x, dX=None):
    """Both sides of [xi, X] = nabla_xi X + phi X (Sasakian identity).

    xi's partials come from ``xi_jet``.  ``dX`` passes the partials of X at
    the batch x (derivative index last); without it they are central
    differences, shared by both sides.
    """
    if contact is None:
        raise NotSasakianScenario("scenario carries no contact metric structure")
    from .geometry import covariant_derivative_vector

    M = contact.base
    xb, squeeze = _batch(x)
    Xv = np.asarray(X(xb), float)
    if dX is None:
        dX = field_partials(lambda p: np.asarray(X(p), float), xb, autodiff.FD_STEP)
    lhs = lie_bracket(M, contact.xi_at, X, xb, dX=contact.xi_jet(xb)[1], dY=dX)
    nab = covariant_derivative_vector(M, contact.xi_at, X, xb, dY=dX)
    rhs = nab + np.einsum("...ij,...j->...i", contact.phi_at(xb), Xv)
    return (lhs[0], rhs[0]) if squeeze else (lhs, rhs)


# ---------------------------------------------------------------------------
# vertical codifferential formula (eigenvalue form)


def _cluster_projector(H, T, g, i0, i1):
    """The g-orthogonal projector onto H v for the eigenvectors v, i0..i1 - 1 in
    ascending order, of H^T T H: T the pullback metric and H (..., m, k) a
    g-orthonormal horizontal frame."""
    _, vec = np.linalg.eigh(H.swapaxes(-1, -2) @ T @ H)  # ...ia,...ij,...jb->...ab
    cols = H @ vec[..., i0:i1]  # ...ia,...ab->...ib
    return cols @ (cols.swapaxes(-1, -2) @ g)  # ...ia,...ja,...jk->...ik


def vertical_codifferential_formula(phi, J, V, x, cluster_tol=1e-6):
    """Both sides of -delta(phi*Omega)(V) = sum_i lambda_i^2 g([E_i, F E_i], V).

    {E_i, F E_i} is an eigenframe of phi^*h restricted to the horizontal
    space.  A point is degenerate if one of its eigenvalue clusters is
    odd-dimensional or not F-invariant, as the clusters' spectral
    projectors show.  Neither side takes a step.  The left side is the exact
    delta(phi*Omega) (``variational._pullback_codifferential``).  The right
    side needs no frame: over an F-adapted g-orthonormal basis {e_a} of a
    cluster, sum_i [E_i, F E_i] = sum_a nabla_{e_a}(F e_a)
    = sum_a (nabla_{e_a} F) e_a + F sum_a nabla_{e_a} e_a, whose last term
    pairs to 0 with V as F is g-skew and F V = 0; and
    sum_a lambda_a^2 e_a e_a^T = g^-1 T g^-1 for T = phi^*h, which vanishes
    on the vertical space.  So

        rhs = sum_ij (g^-1 T g^-1)^ij g((nabla_i F) d_j, V),

    with nabla F from F's exact jet (``F_jet``).

    ``x`` and ``V`` are one point and its vector (m,), or N points and their
    vectors (N, m).  A single point returns two floats and raises
    EigenframeDegenerate if it is degenerate.  A batch returns ``lhs``,
    ``rhs`` of shape (N,), NaN at degenerate points, and raises nothing for
    them.  The batch evaluates each point set once: points are grouped by
    their cluster layout, and each cluster of a group costs one projector
    over the group's remaining points.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("vertical_codifferential_formula expects points (m,) or (N, m)")
    xb, single = _batch(x)
    Vb, _ = _batch(V)
    M = phi.domain
    F = induced_f_structure(phi, J)

    lhs = -np.einsum("...i,...i->...", _pullback_codifferential(phi, J, xb), Vb)
    g = M.metric_at(xb, check=False)
    ginv = M.inverse_metric_at(xb)
    T = pullback_metric(phi, xb)
    Fv, dF = F.F_jet(xb)
    nab = nabla_endomorphism(M, F.F_at, xb, dF=dF)  # (nabla_i F)^k_j at [n, i, k, j]
    gV = np.einsum("...kl,...l->...k", g, Vb)
    rhs = np.einsum("...ij,...ij->...", ginv @ T @ ginv, np.einsum("...ikj,...k->...ij", nab, gV))

    H = horizontal_frame(phi, xb)
    vals, _ = np.linalg.eigh(np.swapaxes(H, -1, -2) @ T @ H)
    scale = np.maximum(1.0, np.max(np.abs(vals), axis=-1))
    # one row per cluster layout: True where a cluster ends after eigenvalue i
    ends = np.diff(vals, axis=-1) > cluster_tol * scale[:, None]
    layouts, group = np.unique(ends, axis=0, return_inverse=True)
    F_scale = np.maximum(1.0, np.max(np.abs(Fv), axis=(-2, -1)))

    why = {}  # degenerate point -> reason, from its first failing cluster
    for gi, layout in enumerate(layouts):
        bounds = [0, *(np.flatnonzero(layout) + 1), len(layout) + 1]
        keep = np.flatnonzero(group.ravel() == gi)
        for i0, i1 in zip(bounds[:-1], bounds[1:]):
            if not len(keep):
                break
            if (i1 - i0) % 2:
                odd = f"odd eigenvalue cluster (size {i1 - i0}) of the pullback metric"
                why.update(dict.fromkeys(keep.tolist(), odd))
                break
            P = _cluster_projector(H[keep], T[keep], g[keep], i0, i1)
            comm = P @ Fv[keep] - Fv[keep] @ P
            bad = np.max(np.abs(comm), axis=(-2, -1)) > 1e-6 * F_scale[keep]
            why.update(dict.fromkeys(keep[bad].tolist(), "eigenvalue cluster is not F-invariant"))
            keep = keep[~bad]
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


def stability_conditions(phi, J, x):
    """Residuals of the two sufficient weak-stability conditions.

    cond_a: the largest vertical component of [H_a, H_b] over a g-orthonormal
    horizontal frame (integrability of the horizontal distribution).  For
    horizontal X, Y it is O'Neill's integrability tensor, P_V [X, Y] =
    P_V ((d_X P_H) Y - (d_Y P_H) X) (O'Neill, Michigan Math. J. 13, 1966),
    read from the exact partials of P_H (``maps._projector_partials``) at
    the frame's values: no frame is differentiated and no step enters.
    cond_b: the f-structure condition sampled over horizontal unit vectors.
    """
    xb, _ = _batch(x)
    F = induced_f_structure(phi, J)
    H = horizontal_frame(phi, xb)
    dP = np.moveaxis(_projector_partials(phi, xb), 0, 1)  # (N, i, m, m) = d_i P_H
    # (d_{H_a} P_H) H_b at [..., a, :, b]: ...ia,...ikl,...lb->...akb
    DH = _apply_first(H.swapaxes(-1, -2), dP) @ H[:, None]
    brv = vertical_projector(phi, xb)[:, None] @ (DH - DH.transpose(0, 3, 2, 1))
    g = phi.domain.metric_at(xb, check=False)
    cond_a = float(np.sqrt(np.max(np.einsum("nakb,nkl,nalb->nab", brv, g, brv))))
    cond_b = float(np.max(cond_b_residual(F, xb)))
    return {
        "cond_a_integrability": cond_a,
        "cond_b_structure": cond_b,
        "weakly_stable_sufficient": bool(cond_a < 1e-8 or cond_b < 1e-8),
    }
