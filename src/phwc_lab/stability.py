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
from .errors import EigenframeDegenerate, NotCritical, NotSasakianScenario
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
from .structures import cond_b_residual, induced_f_structure, j_adapted_frame
from .variational import pullback_two_form_field, z_field

__all__ = [
    "VariationField",
    "variation_from_killing",
    "random_variation_fields",
    "variation_l2_norm2",
    "hessian",
    "hessian_suite",
    "KillingSecondVariation",
    "killing_hessian_family",
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
    """Chart components of p -> A p from the embedding jet (e, Je) and the metric g."""
    rhs = np.einsum("...ei,...e->...i", Je, e @ A.T)
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


def random_variation_fields(phi, count, rng, degree=2):
    """Seeded random sections: ambient-coordinate polynomials of degree <= 2
    through the codomain chart coordinate frame (bump-free on the chart)."""
    M = phi.domain
    n_out = phi.codomain.dim
    embedding = M.embedding or (lambda x: list(x))  # flat charts are ambient

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

    n_feat = features(M.quadrature.nodes[:1]).shape[1]
    fields = []
    for k in range(count):
        coeff = rng.normal(size=(n_out, n_feat)) / np.sqrt(n_feat)

        def v_fn(p, c=coeff):
            return features(p) @ c.T

        fields.append(VariationField(map_id=phi.name, v_fn=v_fn))
    return fields


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


def criticality_gate(phi, J, z_nodes=None):
    """Max criticality residual over quadrature nodes (reusing Z if given)."""
    nodes = phi.domain.quadrature.nodes
    if z_nodes is None:
        z_nodes = z_field(phi, J, nodes)
    ph = horizontal_projector(phi, nodes)
    zh = np.einsum("...ij,...j->...i", ph, z_nodes)
    g = phi.domain.metric_at(nodes, check=False)
    return float(np.max(np.sqrt(np.einsum("...i,...ij,...j->...", zh, g, zh))))


def _require_critical(phi, J, z_nodes, tol):
    crit = criticality_gate(phi, J, z_nodes=z_nodes)
    if crit > tol:
        raise NotCritical(
            f"map {phi.name!r}: criticality residual {crit:.3e} exceeds "
            f"{tol:g}; pass allow_noncritical=True for diagnostics"
        )


def _hessian_density(M, x, om, dphi, gammaN, z, vv, dv, dA):
    """Hess(v, v) integrand: |d(phi* iota_v Omega)|^2 + Omega(v, nabla_Z v)."""
    term1 = two_form_norm2(M, x, dA)
    dphiZ = np.einsum("...ai,...i->...a", dphi, z)
    nabla_v = np.einsum("...gi,...i->...g", dv, z) + np.einsum(
        "...gab,...a,...b->...g", gammaN, dphiZ, vv, optimize=True
    )
    term2 = np.einsum("...a,...ab,...b->...", vv, om, nabla_v, optimize=True)
    return term1 + term2


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

    gammaN = phi.codomain.christoffel_at(jet.y)
    return M.integrate(
        _hessian_density(M, nodes, om, jet.dphi, gammaN, z_nodes, vv, dv, dA)
    )


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


def _reeb_terms(ctx, Xv, dX):
    """(div X)^2, |[xi, X]|^2 and g(phi X, [xi, X]) from X, its partials and the context."""
    gamma, xi, dxi, g, ph_tensor = ctx
    divX = np.einsum("...kk->...", dX) + np.einsum("...kkj,...j->...", gamma, Xv)
    br = np.einsum("...i,...ki->...k", xi, dX) - np.einsum("...i,...ki->...k", Xv, dxi)
    phiX = np.einsum("...ij,...j->...i", ph_tensor, Xv)
    br2 = np.einsum("...i,...ij,...j->...", br, g, br)
    cross = np.einsum("...i,...ij,...j->...", phiX, g, br)
    return divX**2, br2, cross


def _contact_frame(phi, ctx, nodes, jet):
    """The J-adapted frame (e_1, phi e_1, ...) of the horizontal space at the nodes."""
    n = phi.codomain.dim // 2
    _, _, _, g, ph_tensor = ctx
    H = horizontal_frame(phi, nodes, jet=jet)
    rng = np.random.default_rng(777)
    mix = rng.normal(size=(2 * n, n)) + np.eye(2 * n)[:, :n]
    seeds = np.einsum("...ia,ab->...ib", H, mix)
    return j_adapted_frame(g, ph_tensor, n, seeds=seeds)


def _contact_pair_density(frame, dA, n):
    """Half the squared frame components of dA over |I| != |J| index pairs."""
    D = np.einsum("...iI,...ij,...jJ->...IJ", frame, dA, frame, optimize=True)
    pair = np.arange(2 * n) // 2
    mask = pair[:, None] != pair[None, :]
    return 0.5 * np.einsum("...IJ,IJ->...", D**2, mask.astype(float))


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
    term1 = _contact_pair_density(_contact_frame(phi, ctx, nodes, jet0), dA, n)
    Xv = horizontal_lift(phi, nodes, v.eval(nodes, jet=jet0), jet=jet0)
    div2, br2, cross = _reeb_terms(ctx, Xv, dX)
    return M.integrate(term1 + div2 + br2 - 2.0 * n * cross)


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
    div2, br2, cross = _reeb_terms(_reeb_context(phi, contact, nodes), Xv_field(nodes), dX)
    return M.integrate(div2 + br2 - 2.0 * n * cross)


# ---------------------------------------------------------------------------
# the Killing family in one stencil


class KillingSecondVariation(NamedTuple):
    """Second-variation quantities of one Killing-generated field v = dphi(X_A)."""

    hessian: float  # hessian(v)
    norm2: float  # variation_l2_norm2(v)
    reduced: float  # killing_reduced_hessian(v)
    sasakian: float  # sasakian_hessian(v)


def _killing_pieces(phi, J, gens, p, jet=None):
    """[v, iota_v Omega . dphi, X_v] for every generator at the points p: (N, G, n + 2m).

    The map jet, its SVD submersion guard, omega, the embedding jet, the
    metric and the adjoint do not depend on the generator and are computed
    once per call.
    """
    M = phi.domain
    jet = _submersion_jet(phi, p, jet)
    om_dphi = J.omega_at(jet.y) @ jet.dphi
    e, Je = tensor_jet(M.embedding, p, M.diff)
    g = M.metric_at(p, check=False)
    adj = adjoint_differential(phi, p, jet=jet)
    q = jet.dphi @ adj
    out = []
    for A in gens:
        vv = _killing_variation(jet.dphi, e, Je, g, A)
        Av = (vv[..., None, :] @ om_dphi)[..., 0, :]
        out.append(np.concatenate([vv, Av, _lift(adj, q, vv)], axis=-1))
    return np.stack(out, axis=1)


def killing_hessian_family(phi, contact, J, gens):
    """Hessian, L2 norm, reduced integrand and Sasakian expansion of Killing fields.

    ``gens`` are the skew ambient generators A of the fields v = dphi(X_A).
    One field_partials stencil of ``_killing_pieces`` serves every field and
    every quantity; each value equals what hessian_suite,
    killing_reduced_hessian and sasakian_hessian give for
    variation_from_killing(phi, A) alone.  Nodes go in blocks of ceil(N / G),
    stencil and node values alike, so the stacked (block, G, n + 2m, m)
    partials are no larger than one field's.  A scenario without a contact
    structure is refused before any work, a non-critical map before the
    stencil.
    """
    if contact is None:
        raise NotSasakianScenario("scenario carries no contact metric structure")
    gens = [np.asarray(A, dtype=float) for A in gens]
    if not gens:
        return []
    M = phi.domain
    nodes = M.quadrature.nodes
    z_nodes = z_field(phi, J, nodes)
    _require_critical(phi, J, z_nodes, CRITICALITY_TOL)
    m, dn = M.dim, phi.codomain.dim
    n = dn // 2

    G = len(gens)
    dens = np.empty((4, G, len(nodes)))  # hessian, norm2, reduced, sasakian
    size = -(-len(nodes) // G)
    for start in range(0, len(nodes), size):
        sl = slice(start, start + size)
        x = nodes[sl]
        parts = field_partials(lambda p: _killing_pieces(phi, J, gens, p), x, phi.diff.fd_step)
        jet = phi.jet(x)
        centre = _killing_pieces(phi, J, gens, x, jet=jet)
        om = J.omega_at(jet.y)
        gammaN = phi.codomain.christoffel_at(jet.y)
        h_y = phi.codomain.metric_at(phi.value(x), check=False)
        ctx = _reeb_context(phi, contact, x)
        frame = _contact_frame(phi, ctx, x, jet)
        for k in range(G):
            vv, Xv = centre[:, k, :dn], centre[:, k, dn + m :]
            dv = parts[:, k, :dn]
            dA_part = parts[:, k, dn : dn + m]
            dA = np.swapaxes(dA_part, -1, -2) - dA_part
            div2, br2, cross = _reeb_terms(ctx, Xv, parts[:, k, dn + m :])
            dens[0, k, sl] = _hessian_density(
                M, x, om, jet.dphi, gammaN, z_nodes[sl], vv, dv, dA
            )
            dens[1, k, sl] = np.einsum("...a,...ab,...b->...", vv, h_y, vv)
            dens[2, k, sl] = div2 + br2 - 2.0 * n * cross
            term1 = _contact_pair_density(frame, dA, n)
            dens[3, k, sl] = term1 + div2 + br2 - 2.0 * n * cross
    return [KillingSecondVariation(*(M.integrate(d[k]) for d in dens)) for k in range(G)]


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
    projectors, and a cluster that is odd-dimensional or not F-invariant
    raises EigenframeDegenerate.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("vertical_codifferential_formula expects a single point")
    M = phi.domain
    F = F or induced_f_structure(phi, J)
    xb = x[None, :]

    delta = codifferential_two_form(M, pullback_two_form_field(phi, J), xb)[0]
    lhs = -float(delta @ np.asarray(V, float))

    g0 = M.metric_at(xb, check=False)[0]
    H0 = horizontal_frame(phi, xb)[0]
    T0 = pullback_metric(phi, xb)[0]
    Mh = H0.T @ T0 @ H0
    vals, _ = np.linalg.eigh(Mh)
    scale = max(1.0, float(np.max(np.abs(vals))))
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > cluster_tol * scale:
            clusters.append((start, i))
            start = i
    Fv0 = np.asarray(F.F_at(xb), float)[0]

    rng = np.random.default_rng(4242)
    generic = rng.normal(size=(M.dim, M.dim)) + np.eye(M.dim) * M.dim

    rhs = 0.0
    h = phi.diff.fd_step
    for i0, i1 in clusters:
        k = i1 - i0
        if k % 2:
            raise EigenframeDegenerate(
                f"odd eigenvalue cluster (size {k}) of the pullback metric"
            )
        lam2 = float(np.mean(vals[i0:i1]))

        def cluster_projector(p, i0=i0, i1=i1):
            Hp = horizontal_frame(phi, p)
            Tp = pullback_metric(phi, p)
            Mp = np.einsum("...ia,...ij,...jb->...ab", Hp, Tp, Hp)
            w, vec = np.linalg.eigh(Mp)
            cols = np.einsum("...ia,...ab->...ib", Hp, vec[..., i0:i1])
            gp = M.metric_at(p, check=False)
            return np.einsum("...ia,...ja,...jk->...ik", cols, cols, gp)

        P0 = cluster_projector(xb)[0]
        comm = P0 @ Fv0 - Fv0 @ P0
        if np.max(np.abs(comm)) > 1e-6 * max(1.0, np.max(np.abs(Fv0))):
            raise EigenframeDegenerate("eigenvalue cluster is not F-invariant")

        def frame_field(p, i0=i0, i1=i1, k=k):
            Pp = cluster_projector(p)
            gp = M.metric_at(p, check=False)
            Fp = np.asarray(F.F_at(p), float)
            seeds = np.einsum("...ij,jk->...ik", Pp, generic[:, : k // 2])
            return j_adapted_frame(gp, Fp, k // 2, seeds=seeds)

        fr0 = frame_field(xb)[0]
        dfr = field_partials(frame_field, xb, h)[0]  # (m, k, m)
        for j in range(k // 2):
            E = fr0[:, 2 * j]
            FE = fr0[:, 2 * j + 1]
            dE = dfr[:, 2 * j, :]
            dFE = dfr[:, 2 * j + 1, :]
            br = dFE @ E - dE @ FE
            rhs += lam2 * float(br @ g0 @ np.asarray(V, float))
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


def killing_fields_sphere(n, samples=48, seed=0, filter_tol=1e-8):
    """Basis of so(2n+2) (J0-adapted) with the sub-family orthogonal to xi.

    The commuting (unitary) part never satisfies g(X, xi) = 0; the filter
    keeps the generators anticommuting with the ambient rotation, which mix
    conjugate complex coordinate pairs.  Filtering is numeric, at seeded
    sample points of the built-in chart.
    """
    from .scenarios import hopf_sphere_chart, sasakian_structure

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

    chart = hopf_sphere_chart(n, quad_orders=4)
    contact = sasakian_structure(chart, n)
    rng = np.random.default_rng(seed)
    pts = chart.random_points(rng, samples, margin=0.05)
    g = chart.metric_at(pts, check=False)
    xi = contact.xi_at(pts)
    perp = []
    for idx, A in enumerate(gens):
        X = ambient_killing_field(chart, A)(pts)
        inner = np.einsum("...i,...ij,...j->...", X, g, xi)
        if np.max(np.abs(inner)) < filter_tol:
            perp.append(idx)
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
