"""Smooth maps between chart manifolds: jets, tension, fibre geometry.

Derivative conventions: dphi has shape (..., n, m) (codomain index first),
second derivatives (..., n, m, m) symmetric in the trailing pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _memo, tensor_jet, tensor_second, tensor_value
from .errors import OutOfChart, RankDeficient
from .geometry import _apply_first, _batch, _cholesky_clears, _nabla_two_tensor, gram_schmidt

__all__ = [
    "SmoothMap",
    "MapJet",
    "FibreSplitting",
    "adjoint_differential",
    "energy_density",
    "dilation_hwc",
    "second_fundamental_form_tensor",
    "second_fundamental_form",
    "tension_field_direct",
    "pullback_metric",
    "nabla_pullback_metric",
    "fibre_splitting",
    "horizontal_projector",
    "vertical_projector",
    "horizontal_lift",
    "horizontal_frame",
    "stress_energy_residual",
    "SVD_RANK_RTOL",
]

# relative singular-value threshold separating kernel from cokernel: a rank
# counts the sigma > SVD_RANK_RTOL * sigma_1, and the submersion guard asks
# sigma_n above it, clearing most points from a Cholesky factor of
# dphi dphi^T (_submersion_jet)
SVD_RANK_RTOL = 1e-8


@dataclass
class MapJet:
    """First (and optionally second) derivatives of a map at a point batch."""

    x: np.ndarray
    y: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray | None = None


@dataclass
class FibreSplitting:
    """g-orthonormal bases of Ker dphi and its orthogonal complement."""

    vertical: np.ndarray  # (m, dim V) columns, or (N, m, dim V) for a batch
    horizontal: np.ndarray  # (m, rank), or (N, m, rank)
    rank: int


class SmoothMap:
    """Coordinate expression of a map between chart manifolds."""

    def __init__(self, name, domain, codomain, expr):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.expr = expr
        self._rank_profile = None
        self._f_ranks = {}  # rank of the induced F of each J (structures.induced_f_structure)

    def value(self, x):
        return tensor_value(self.expr, x)

    def jet(self, x):
        y, dphi = tensor_jet(self.expr, x)
        return MapJet(x=np.asarray(x, float), y=y, dphi=dphi)

    def second_jet(self, x):
        y, dphi, d2phi = tensor_second(self.expr, x)
        return MapJet(x=np.asarray(x, float), y=y, dphi=dphi, d2phi=d2phi)

    def require_in_codomain(self, x):
        """The images of the points x must land in the codomain chart."""
        if not np.all(self.codomain.box.contains(self.value(x))):
            raise OutOfChart(f"map {self.name!r} leaves the codomain chart")

    def ranks(self, x):
        """Rank of dphi and its singular values at the points x."""
        sv = np.linalg.svd(self.jet(x).dphi, compute_uv=False)
        return np.sum(sv > SVD_RANK_RTOL * sv[..., :1], axis=-1), sv

    def rank_profile(self):
        """Rank and singular values on the domain's node rules; raises if the rank varies.

        Computed on the first call and kept: registration and the structure
        check read the same profile.  On a periodic domain the nodes of both
        torus rules take part, so the rank is compared across theta offsets.
        """
        if self._rank_profile is None:
            ranks, sv = self.ranks(np.concatenate([r.nodes for r in self.domain.node_rules]))
            if np.min(ranks) != np.max(ranks):
                raise RankDeficient(
                    f"map {self.name!r} does not have constant rank on the chart"
                )
            self._rank_profile = int(ranks.flat[0]), sv
        return self._rank_profile

    def __repr__(self):
        return f"SmoothMap({self.name!r}: {self.domain.name} -> {self.codomain.name})"


def adjoint_differential(phi, x):
    """Metric adjoint dphi^t = g^-1 dphi^T h, so g(X, dphi^t E) = h(dphi X, E)."""
    jet = phi.jet(x)
    h = phi.codomain.metric_at(jet.y, check=False)
    return phi.domain.inverse_metric_at(x) @ np.swapaxes(jet.dphi, -1, -2) @ h


def energy_density(phi, x):
    """||dphi||^2 = trace(g^-1 dphi^T h dphi)."""
    return np.einsum("...ia,...ai->...", adjoint_differential(phi, x), phi.jet(x).dphi)


def dilation_hwc(phi, x):
    """Semiconformality witness: lambda^2 and || dphi dphi^t - lambda^2 id ||_F.

    dphi dphi^t is h-self-adjoint, so the Frobenius norm is taken in an
    h-orthonormal frame to make the residual frame-honest.
    """
    jet = phi.jet(x)
    q = jet.dphi @ adjoint_differential(phi, x)  # dphi dphi^t
    n = q.shape[-1]
    lam2 = np.einsum("...aa->...", q) / n
    h = phi.codomain.metric_at(jet.y, check=False)
    u = gram_schmidt(
        np.broadcast_to(np.eye(n), q.shape).copy(), h
    )  # h-ON codomain frame
    q_on = np.swapaxes(u, -1, -2) @ h @ q @ u
    dev = q_on - lam2[..., None, None] * np.eye(n)
    resid = np.sqrt(np.einsum("...ab,...ab->...", dev, dev))
    return lam2, resid


def second_fundamental_form_tensor(phi, x):
    """nabla dphi as a (..., n, m, m) array (codomain index first)."""
    jet = phi.second_jet(x)
    gm = phi.domain.christoffel_at(x)
    gn = phi.codomain.christoffel_at(jet.y)
    dphi = jet.dphi
    n, m = dphi.shape[-2:]
    term_m = _apply_first(dphi, gm)  # ...gk,...kij->...gij
    gn_dphi = (gn.reshape(gn.shape[:-3] + (n * n, n)) @ dphi).reshape(gn.shape[:-1] + (m,))
    term_n = dphi.swapaxes(-1, -2)[..., None, :, :] @ gn_dphi  # ...gab,...ai,...bj->...gij
    return jet.d2phi - term_m + term_n


def second_fundamental_form(phi, X, Y):
    """nabla dphi(X, Y) for tangent vectors based at the same point."""
    if not np.allclose(X.base_point, Y.base_point):
        raise ValueError("X and Y must be based at the same point")
    nd = second_fundamental_form_tensor(phi, X.base_point)
    return np.einsum("...gij,...i,...j->...g", nd, X.components, Y.components)


def tension_field_direct(phi, x):
    """tau(phi) = trace_g nabla dphi, a tangent vector at phi(x)."""
    nd = second_fundamental_form_tensor(phi, x)
    ginv = phi.domain.inverse_metric_at(x)
    return np.einsum("...ij,...gij->...g", ginv, nd)


def pullback_metric(phi, x):
    """phi^* h as a (0,2)-tensor on the domain."""
    jet = phi.jet(x)
    h = phi.codomain.metric_at(jet.y, check=False)
    return np.swapaxes(jet.dphi, -1, -2) @ h @ jet.dphi


def _pullback_metric_jet(phi, x):
    """phi^*h at the points x (N, m) and its partials (N, m, m, m), derivative
    index last, from exact jets.

    The product rule runs on phi's second jet and the codomain's metric jet
    along phi: d_i (dphi^T h dphi) = (d_i dphi)^T h dphi + dphi^T h d_i dphi
    + dphi^T (d_i h) dphi.  Read-only; one evaluation per point set.
    """
    return _memo("pullback_metric_jet", phi, x, lambda p: _pullback_metric_jet_eval(phi, p))


def _pullback_metric_jet_eval(phi, x):
    """_pullback_metric_jet at x, evaluated."""
    jet = phi.second_jet(x)
    dphi_t, ddphi = jet.dphi.swapaxes(-1, -2), np.moveaxis(jet.d2phi, -1, 0)
    h, dh = phi.codomain.metric_jet(jet.y)
    half = dphi_t @ (h @ ddphi)  # dphi^T h d_i dphi, derivative axis first
    dT = half + half.swapaxes(-1, -2) + dphi_t @ _along(dh, jet.dphi) @ jet.dphi
    return dphi_t @ h @ jet.dphi, np.moveaxis(dT, 0, -1)


def _energy_density_partials(phi, x):
    """The partials d_i ||dphi||^2 (N, m) at the points x (N, m), from exact jets.

    ||dphi||^2 = tr(g^-1 T) with T = phi^*h (energy_density), so
    d_i ||dphi||^2 = tr(g^-1 (d_i T - d_i g g^-1 T)), with d_i T from
    ``_pullback_metric_jet`` and d_i g from the metric jet.
    """
    T, dT = _pullback_metric_jet(phi, x)
    ginv = phi.domain.inverse_metric_at(x)
    dg = np.moveaxis(phi.domain.metric_jet(x)[1], -1, 0)
    inner = np.moveaxis(dT, -1, 0) - dg @ (ginv @ T)  # derivative axis first
    return np.einsum("njk,inkj->ni", ginv, inner)


def nabla_pullback_metric(phi, X, Y, Z, direct=False):
    """(nabla_X phi^*h)(Y, Z).

    Default: h(nabla dphi(X,Y), dphi Z) + h(dphi Y, nabla dphi(X,Z)).
    ``direct=True``: covariant derivative of the tensor field phi^*h itself,
    from its exact jet (``_pullback_metric_jet``); the two are exposed
    separately so the identity can be tested.
    """
    x = X.base_point
    if direct:
        xb, squeeze = _batch(x)
        T, dT = _pullback_metric_jet(phi, xb)
        nab = _nabla_two_tensor(phi.domain, None, xb, Tv=T, dT=dT)
        nab = nab[0] if squeeze else nab
        return np.einsum("...ijk,...i,...j,...k->...", nab, X.components, Y.components, Z.components)
    jet = phi.second_jet(x)
    nd = second_fundamental_form_tensor(phi, x)
    h = phi.codomain.metric_at(jet.y, check=False)
    ndXY = np.einsum("...gij,...i,...j->...g", nd, X.components, Y.components)
    ndXZ = np.einsum("...gij,...i,...j->...g", nd, X.components, Z.components)
    dY = np.einsum("...ai,...i->...a", jet.dphi, Y.components)
    dZ = np.einsum("...ai,...i->...a", jet.dphi, Z.components)
    return np.einsum("...a,...ab,...b->...", ndXY, h, dZ) + np.einsum(
        "...a,...ab,...b->...", dY, h, ndXZ
    )


# ---------------------------------------------------------------------------
# fibre geometry


def fibre_splitting(phi, x, require_rank=None):
    """SVD kernel/cokernel split of dphi, g-orthonormalized, at one point or a batch.

    ``x`` is one point (m,) or N points (N, m) of one rank; the frames are
    (m, k) or stacked (N, m, k), and ``rank`` is that one rank.  A batch whose
    rank varies raises RankDeficient, as does a rank other than
    ``require_rank``.  One point and a batch run through the same code.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("fibre_splitting expects points (m,) or (N, m)")
    jet = phi.jet(x)
    g = phi.domain.metric_at(x, check=False)
    h = phi.codomain.metric_at(jet.y, check=False)
    m, n = phi.domain.dim, phi.codomain.dim
    # phi.domain.frame_at(x) from the metric in hand
    E = gram_schmidt(np.broadcast_to(np.eye(m), g.shape), g)
    U = gram_schmidt(np.broadcast_to(np.eye(n), h.shape), h)
    uinv = np.swapaxes(U, -1, -2) @ h
    mat = uinv @ jet.dphi @ E  # dphi in orthonormal frames
    _, sv, vt = np.linalg.svd(mat)
    ranks = np.sum(sv > SVD_RANK_RTOL * sv[..., :1], axis=-1)
    rank = int(ranks.flat[0])
    if np.any(ranks != rank):
        raise RankDeficient(f"map {phi.name!r}: rank of dphi varies inside the batch")
    if require_rank is not None and rank != require_rank:
        raise RankDeficient(
            f"map {phi.name!r} has rank {rank} at this point, need {require_rank}"
        )
    v = np.swapaxes(vt, -1, -2)
    horizontal = E @ v[..., :rank]
    vertical = E @ v[..., rank:]
    # orthonormality is inherited from E; re-orthonormalize to kill roundoff
    if rank:
        horizontal = gram_schmidt(horizontal, g)
    if m - rank:
        vertical = gram_schmidt(vertical, g)
    return FibreSplitting(vertical=vertical, horizontal=horizontal, rank=rank)


def _submersion_jet(phi, x):
    """phi.jet(x); RankDeficient unless dphi is onto at every point.

    Onto means sigma_n > SVD_RANK_RTOL * sigma_1 for the n = dim N singular
    values of dphi.  The eigenvalues of q = dphi dphi^T are the sigma^2, and
    sigma_1^2 <= tr q, so ``_cholesky_clears`` clears a point whose q is above
    SVD_RANK_RTOL^2 * tr q from one Cholesky factor; only the other points
    go to the SVD.
    """
    jet = phi.jet(x)
    n = phi.codomain.dim
    dphi = np.reshape(jet.dphi, (-1, n, jet.dphi.shape[-1]))
    q = dphi @ np.swapaxes(dphi, -1, -2)
    dphi = dphi[~_cholesky_clears(q, SVD_RANK_RTOL**2 * np.trace(q, axis1=-2, axis2=-1))]
    if len(dphi):
        sv = np.linalg.svd(dphi, compute_uv=False)
        if np.any(sv[..., n - 1] <= SVD_RANK_RTOL * sv[..., 0]):
            raise RankDeficient(f"map {phi.name!r} is not submersive at the given point(s)")
    return jet


def horizontal_projector(phi, x):
    """P_H = dphi^t (dphi dphi^t)^-1 dphi; smooth in x for submersions.

    Read-only; one evaluation per point set.
    """
    return _memo("horizontal_projector", phi, x, lambda p: _projector(phi, p))


def _projector(phi, x):
    """P_H at x, evaluated."""
    dphi = _submersion_jet(phi, x).dphi
    adj = adjoint_differential(phi, x)
    return adj @ np.linalg.solve(dphi @ adj, dphi)


def vertical_projector(phi, x):
    p = horizontal_projector(phi, x)
    return np.broadcast_to(np.eye(p.shape[-1]), p.shape) - p


def horizontal_lift(phi, x, E):
    """Horizontal vector X with dphi(X) = E (submersions only)."""
    dphi = _submersion_jet(phi, x).dphi  # RankDeficient unless dphi is onto
    adj = adjoint_differential(phi, x)
    return _lift(adj, dphi @ adj, np.asarray(E, float)[..., None, :])[..., 0, :]


def _lift(adj, q, E):
    """dphi^t q^-1 E_k for a stack E (..., K, n) from the adjoint and
    q = dphi dphi^t, each q factored once for the K vectors: (..., K, m)."""
    sol = np.linalg.solve(q, E.swapaxes(-1, -2))
    return (adj @ sol).swapaxes(-1, -2)  # ...ia,...ak->...ki


def _along(dT, dphi):
    """The partials of T o phi from those of T at phi(x), (N, *s, n), and dphi
    (N, n, m), by the chain rule: (m, N, *s), derivative axis first."""
    d = dT.reshape(len(dT), -1, dT.shape[-1]) @ dphi
    return np.moveaxis(d.reshape(dT.shape[:-1] + dphi.shape[-1:]), -1, 0)


def _adjoint_jet(phi, x):
    """The adjoint adj = dphi^t = g^-1 dphi^T h, q = dphi dphi^t and their
    partials at the points x (N, m): (adj, d_adj, q, dq), with d_adj
    (m, N, m, n) and dq (m, N, n, n), derivative axis first.

    d(dphi^t) comes from phi's second jet and the metric jets by the product
    rule, with d(g^-1) = -g^-1 dg g^-1.  Read-only; one evaluation per point
    set.
    """
    return _memo("adjoint_jet", phi, x, lambda p: _adjoint_jet_eval(phi, p))


def _adjoint_jet_eval(phi, x):
    """_adjoint_jet at x, evaluated."""
    jet = phi.second_jet(x)
    dphi, ddphi = jet.dphi, np.moveaxis(jet.d2phi, -1, 0)  # ddphi[i] = d_i dphi
    dg = np.moveaxis(phi.domain.metric_jet(x)[1], -1, 0)
    h, dh = phi.codomain.metric_jet(jet.y)
    adj = adjoint_differential(phi, x)  # g^-1 dphi^T h
    d_adj = phi.domain.inverse_metric_at(x) @ (
        ddphi.swapaxes(-1, -2) @ h + dphi.swapaxes(-1, -2) @ _along(dh, dphi) - dg @ adj
    )
    return adj, d_adj, dphi @ adj, ddphi @ adj + dphi @ d_adj


def _lift_jet(phi, x, E, dE):
    """The lifts X_k = dphi^t q^-1 E_k (horizontal_lift) of a stack E (N, K, n)
    and their partials, from the partials dE (m, N, K, n) of E.

    dphi^t, q = dphi dphi^t and their partials come from ``_adjoint_jet``;
    each q is factored once for the K lifts and their partials, with
    d(q^-1) = -q^-1 dq q^-1.  RankDeficient unless dphi is onto at x.
    Returns X (N, K, m) and dX (m, N, K, m), derivative axis first.
    """
    _submersion_jet(phi, x)
    adj, d_adj, q, dq = _adjoint_jet(phi, x)
    N, K, n = E.shape
    m = len(dE)
    # columns: E_k, then d_i E_k and d_i q, derivative-major
    rhs = [E.swapaxes(-1, -2), dE.transpose(1, 3, 0, 2), dq.transpose(1, 2, 0, 3)]
    sol = np.linalg.solve(q, np.concatenate([r.reshape(N, n, -1) for r in rhs], axis=-1))
    u = sol[..., :K]  # q^-1 E
    du = np.moveaxis(sol[..., K : K + m * K].reshape(N, n, m, K), -2, 0)
    du -= np.moveaxis(sol[..., K + m * K :].reshape(N, n, m, n), -2, 0) @ u
    X = adj @ u
    dX = d_adj @ u + adj @ du
    return X.swapaxes(-1, -2), dX.swapaxes(-1, -2)


def _projector_partials(phi, x):
    """The partials d_i P_H (m, N, m, m) at the points x (N, m), derivative axis first.

    The columns of P_H = dphi^t q^-1 dphi are the lifts of the columns of
    dphi, so d P_H = d adj q^-1 dphi + adj q^-1 (d dphi - dq q^-1 dphi) is
    their partials by ``_lift_jet``.
    """
    jet = phi.second_jet(x)
    ddphi = np.moveaxis(jet.d2phi, -1, 0)  # ddphi[i] = d_i dphi
    _, dX = _lift_jet(phi, x, jet.dphi.swapaxes(-1, -2), ddphi.swapaxes(-1, -2))
    return dX.swapaxes(-1, -2)


def _log_dilation_partials(phi, x):
    """The partials d_i ln lambda^2 (N, m) at the points x (N, m), from exact jets.

    lambda^2 = tr q / n with q = dphi dphi^t (dilation_hwc), so
    d ln lambda^2 = tr dq / tr q.
    """
    _, _, q, dq = _adjoint_jet(phi, x)
    return np.einsum("i...aa->...i", dq) / np.trace(q, axis1=-2, axis2=-1)[:, None]


def horizontal_frame(phi, x):
    """g-orthonormal horizontal frame columns (..., m, n), smooth in x.

    Built by projecting the first-n coordinate fields mixed with a fixed
    generic rotation, then Gram-Schmidt; deterministic by construction.
    """
    m, n = phi.domain.dim, phi.codomain.dim
    g = phi.domain.metric_at(x, check=False)
    ph = horizontal_projector(phi, x)
    # generic fixed mixing avoids seeds falling into the vertical space
    rng = np.random.default_rng(12345)
    mix = rng.normal(size=(m, m)) + np.eye(m) * m
    return gram_schmidt(ph @ mix[:, :n], g)  # ...ij,jk->...ik


def mean_curvature_fibres(phi, x):
    """Mean curvature vector of the fibres (horizontal part), batched, from exact jets.

    Frame-free: over a g-orthonormal vertical frame V_a, sum_a V_a V_a^T =
    P_V g^-1, and P_H nabla_V V = P_H (nabla_V P_V) V because P_V V = V, so

        mu = (1/(m-n)) P_H sum_ij (nabla_i P_V) (P_V g^-1)^ij,
        nabla_i P_V = -d_i P_H + Gamma_i P_V - P_V Gamma_i,

    with (Gamma_i)^k_l = Gamma^k_il and d_i P_H from ``_projector_partials``.
    No step enters mu.  RankDeficient unless phi is a submersion at x.
    Read-only; one evaluation per point set.
    """
    xb, squeeze = _batch(x)
    mu = _memo("mean_curvature", phi, xb, lambda p: _mean_curvature(phi, p))
    return mu[0] if squeeze else mu


def _mean_curvature(phi, x):
    """mean_curvature_fibres at x (N, m), evaluated."""
    m, n = phi.domain.dim, phi.codomain.dim
    nv = m - n
    if nv == 0:
        _submersion_jet(phi, x)
        return np.zeros((len(x), m))
    # the projector raises RankDeficient unless phi is a submersion at x
    phor = horizontal_projector(phi, x)
    pv = np.eye(m) - phor  # = vertical_projector(phi, x)
    gam = np.moveaxis(phi.domain.christoffel_at(x), -2, 0)  # gam[i] = Gamma_i
    nabla = gam @ pv - pv @ gam - _projector_partials(phi, x)  # nabla_i P_V
    vv = pv @ phi.domain.inverse_metric_at(x)  # P_V g^-1
    # nkp,inpj,nij->nk as two contractions
    return np.einsum("nkp,np->nk", phor, np.einsum("inpj,nij->np", nabla, vv)) / nv


def stress_energy_residual(phi, x, Z=None):
    """Classical identity div S_phi(Z) = -h(tau, dphi Z) with S = e(phi) g - phi^*h.

    Returns |(1/2) d||dphi||^2 (Z) - (div phi^*h)(Z) + h(tau, dphi Z)|, used to
    cross-validate the tension field.  Both d||dphi||^2 and div phi^*h come
    from the exact jet of phi^*h (``_pullback_metric_jet``); no step enters.
    """
    M = phi.domain
    xb, squeeze = _batch(x)
    if Z is None:
        Z = np.zeros((len(xb), M.dim))
        Z[:, 0] = 1.0
    Z = np.broadcast_to(np.asarray(Z, float), (len(xb), M.dim))
    de = _energy_density_partials(phi, xb)
    T, dT = _pullback_metric_jet(phi, xb)
    nab = _nabla_two_tensor(M, None, xb, Tv=T, dT=dT)
    divT = np.einsum("...ij,...ijk->...k", M.inverse_metric_at(xb), nab)
    jet = phi.second_jet(xb)
    tau = tension_field_direct(phi, xb)
    h = phi.codomain.metric_at(jet.y, check=False)
    dZ = np.einsum("...ai,...i->...a", jet.dphi, Z)
    lhs = 0.5 * np.einsum("...i,...i->...", de, Z) - np.einsum("...i,...i->...", divT, Z)
    rhs = -np.einsum("...a,...ab,...b->...", tau, h, dZ)
    out = np.abs(lhs - rhs)
    return out[0] if squeeze else out
