"""Smooth maps between chart manifolds: jets, tension, fibre geometry.

Derivative conventions: dphi has shape (..., n, m) (codomain index first),
second derivatives (..., n, m, m) symmetric in the trailing pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import field_partials, tensor_jet, tensor_second, tensor_value
from .errors import OutOfChart, RankDeficient
from .geometry import gram_schmidt

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

# relative singular-value threshold separating kernel from cokernel
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

    vertical: np.ndarray  # (m, dim V) columns
    horizontal: np.ndarray  # (m, rank)
    rank: int


class SmoothMap:
    """Coordinate expression of a map between chart manifolds."""

    def __init__(self, name, domain, codomain, expr, diff=None):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.expr = expr
        self.diff = diff or domain.diff

    def value(self, x):
        return tensor_value(self.expr, x)

    def jet(self, x):
        y, dphi = tensor_jet(self.expr, x, self.diff)
        return MapJet(x=np.asarray(x, float), y=y, dphi=dphi)

    def second_jet(self, x):
        y, dphi, d2phi = tensor_second(self.expr, x, self.diff)
        return MapJet(x=np.asarray(x, float), y=y, dphi=dphi, d2phi=d2phi)

    def validate_on_quadrature(self):
        """Image of every quadrature node must land in the codomain chart."""
        y = self.value(self.domain.quadrature.nodes)
        if not np.all(self.codomain.box.contains(y)):
            raise OutOfChart(
                f"map {self.name!r} leaves the codomain chart on quadrature nodes"
            )

    def rank_profile(self):
        """Singular values on quadrature nodes; raises if the rank varies."""
        jet = self.jet(self.domain.quadrature.nodes)
        sv = np.linalg.svd(jet.dphi, compute_uv=False)
        ranks = np.sum(sv > SVD_RANK_RTOL * sv[..., :1], axis=-1)
        if np.min(ranks) != np.max(ranks):
            raise RankDeficient(
                f"map {self.name!r} does not have constant rank on the chart"
            )
        return int(ranks.flat[0]), sv

    def __repr__(self):
        return f"SmoothMap({self.name!r}: {self.domain.name} -> {self.codomain.name})"


def adjoint_differential(phi, x, jet=None):
    """Metric adjoint dphi^t = g^-1 dphi^T h, so g(X, dphi^t E) = h(dphi X, E)."""
    jet = jet or phi.jet(x)
    ginv = phi.domain.inverse_metric_at(x)
    h = phi.codomain.metric_at(jet.y, check=False)
    return ginv @ np.swapaxes(jet.dphi, -1, -2) @ h


def energy_density(phi, x, jet=None):
    """||dphi||^2 = trace(g^-1 dphi^T h dphi)."""
    jet = jet or phi.jet(x)
    adj = adjoint_differential(phi, x, jet=jet)
    return np.einsum("...ia,...ai->...", adj, jet.dphi)


def _map_quadratic(phi, x, jet=None):
    """dphi dphi^t, the h-self-adjoint endomorphism on the codomain."""
    jet = jet or phi.jet(x)
    return jet.dphi @ adjoint_differential(phi, x, jet=jet), jet


def dilation_hwc(phi, x, jet=None):
    """Semiconformality witness: lambda^2 and || dphi dphi^t - lambda^2 id ||_F.

    dphi dphi^t is h-self-adjoint, so the Frobenius norm is taken in an
    h-orthonormal frame to make the residual frame-honest.
    """
    q, jet = _map_quadratic(phi, x, jet=jet)
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


def second_fundamental_form_tensor(phi, x, jet=None):
    """nabla dphi as a (..., n, m, m) array (codomain index first)."""
    jet = jet if (jet is not None and jet.d2phi is not None) else phi.second_jet(x)
    gm = phi.domain.christoffel_at(x)
    gn = phi.codomain.christoffel_at(jet.y)
    term_m = np.einsum("...gk,...kij->...gij", jet.dphi, gm)
    term_n = np.einsum("...gab,...ai,...bj->...gij", gn, jet.dphi, jet.dphi, optimize=True)
    return jet.d2phi - term_m + term_n


def second_fundamental_form(phi, X, Y):
    """nabla dphi(X, Y) for tangent vectors based at the same point."""
    if not np.allclose(X.base_point, Y.base_point):
        raise ValueError("X and Y must be based at the same point")
    nd = second_fundamental_form_tensor(phi, X.base_point)
    return np.einsum("...gij,...i,...j->...g", nd, X.components, Y.components)


def tension_field_direct(phi, x, jet=None, nd=None):
    """tau(phi) = trace_g nabla dphi, a tangent vector at phi(x)."""
    if nd is None:
        nd = second_fundamental_form_tensor(phi, x, jet=jet)
    ginv = phi.domain.inverse_metric_at(x)
    return np.einsum("...ij,...gij->...g", ginv, nd)


def pullback_metric(phi, x, jet=None):
    """phi^* h as a (0,2)-tensor on the domain."""
    jet = jet or phi.jet(x)
    h = phi.codomain.metric_at(jet.y, check=False)
    return np.swapaxes(jet.dphi, -1, -2) @ h @ jet.dphi


def nabla_pullback_metric(phi, X, Y, Z, direct=False):
    """(nabla_X phi^*h)(Y, Z).

    Default: h(nabla dphi(X,Y), dphi Z) + h(dphi Y, nabla dphi(X,Z)).
    ``direct=True``: covariant derivative of the tensor field phi^*h itself;
    the two are exposed separately so the identity can be tested.
    """
    x = X.base_point
    if direct:
        from .geometry import _nabla_two_tensor

        nab = _nabla_two_tensor(phi.domain, lambda p: pullback_metric(phi, p), np.atleast_2d(x))
        nab = nab[0] if np.asarray(x).ndim == 1 else nab
        return np.einsum("...ijk,...i,...j,...k->...", nab, X.components, Y.components, Z.components)
    jet = phi.second_jet(x)
    nd = second_fundamental_form_tensor(phi, x, jet=jet)
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
    """SVD kernel/cokernel split of dphi at a single point, g-orthonormalized."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("fibre_splitting expects a single point")
    jet = phi.jet(x)
    g = phi.domain.metric_at(x, check=False)
    h = phi.codomain.metric_at(jet.y, check=False)
    m = phi.domain.dim
    E = phi.domain.frame_at(x)
    U = gram_schmidt(np.eye(phi.codomain.dim), h)
    uinv = U.T @ h
    mat = uinv @ jet.dphi @ E  # dphi in orthonormal frames
    _, sv, vt = np.linalg.svd(mat)
    cut = SVD_RANK_RTOL * (sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > cut))
    if require_rank is not None and rank != require_rank:
        raise RankDeficient(
            f"map {phi.name!r} has rank {rank} at this point, need {require_rank}"
        )
    v = vt.T
    horizontal = E @ v[:, :rank]
    vertical = E @ v[:, rank:]
    # orthonormality is inherited from E; re-orthonormalize to kill roundoff
    if rank:
        horizontal = gram_schmidt(horizontal, g)
    if m - rank:
        vertical = gram_schmidt(vertical, g)
    return FibreSplitting(vertical=vertical, horizontal=horizontal, rank=rank)


def _submersion_jet(phi, x, jet=None):
    jet = jet or phi.jet(x)
    n = phi.codomain.dim
    sv = np.linalg.svd(jet.dphi, compute_uv=False)
    if np.any(sv[..., n - 1] <= SVD_RANK_RTOL * sv[..., 0]):
        raise RankDeficient(f"map {phi.name!r} is not submersive at the given point(s)")
    return jet


def horizontal_projector(phi, x, jet=None):
    """P_H = dphi^t (dphi dphi^t)^-1 dphi; smooth in x for submersions."""
    jet = _submersion_jet(phi, x, jet)
    adj = adjoint_differential(phi, x, jet=jet)
    q = jet.dphi @ adj
    return adj @ np.linalg.solve(q, jet.dphi)


def vertical_projector(phi, x, jet=None):
    p = horizontal_projector(phi, x, jet=jet)
    return np.broadcast_to(np.eye(p.shape[-1]), p.shape) - p


def horizontal_lift(phi, x, E, jet=None):
    """Horizontal vector X with dphi(X) = E (submersions only)."""
    jet = _submersion_jet(phi, x, jet)
    adj = adjoint_differential(phi, x, jet=jet)
    return _lift(adj, jet.dphi @ adj, E)


def _lift(adj, q, E):
    """dphi^t q^-1 E from the adjoint and q = dphi dphi^t (shared by a family of E)."""
    sol = np.linalg.solve(q, np.asarray(E, float)[..., None])[..., 0]
    return np.einsum("...ia,...a->...i", adj, sol)


def horizontal_frame(phi, x, jet=None):
    """g-orthonormal horizontal frame columns (..., m, n), smooth in x.

    Built by projecting the first-n coordinate fields mixed with a fixed
    generic rotation, then Gram-Schmidt; deterministic by construction.
    """
    jet = jet if jet is not None else phi.jet(x)
    m, n = phi.domain.dim, phi.codomain.dim
    ph = horizontal_projector(phi, x, jet=jet)
    g = phi.domain.metric_at(x, check=False)
    # generic fixed mixing avoids seeds falling into the vertical space
    rng = np.random.default_rng(12345)
    mix = rng.normal(size=(m, m)) + np.eye(m) * m
    seeds = np.einsum("...ij,jk->...ik", ph, mix[:, :n])
    return gram_schmidt(seeds, g)


def mean_curvature_fibres(phi, x):
    """Mean curvature vector of the fibres (horizontal part), batched.

    The vertical frame field is built by projecting fixed coordinate fields
    (chosen at the evaluation point, largest projected norm first) and
    Gram-Schmidt; the field is differentiable wherever the rank is constant.
    """
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    squeeze = np.asarray(x).ndim == 1
    jet = _submersion_jet(phi, xb)
    m, n = phi.domain.dim, phi.codomain.dim
    nv = m - n
    if nv == 0:
        out = np.zeros((len(xb), m))
        return out[0] if squeeze else out
    pv = vertical_projector(phi, xb, jet=jet)
    g = phi.domain.metric_at(xb, check=False)
    norms = np.einsum("...ik,...ij,...jk->...k", pv, g, pv)  # |P_V e_k|_g^2
    sel = np.argsort(-norms, axis=-1, kind="stable")[:, :nv]  # frozen seeds

    def vert_frame(p):
        pvp = vertical_projector(phi, p)
        gp = phi.domain.metric_at(p, check=False)
        cols = np.take_along_axis(pvp, sel[:, None, :], axis=2)
        return gram_schmidt(cols, gp)

    h = phi.diff.fd_step
    V0 = vert_frame(xb)
    dV = field_partials(vert_frame, xb, h)  # (N, m, nv, m)
    gamma = phi.domain.christoffel_at(xb)
    nabla = np.einsum("...ia,...kai->...k", V0, dV) + np.einsum(
        "...kij,...ia,...ja->...k", gamma, V0, V0
    )
    phor = horizontal_projector(phi, xb, jet=jet)
    mu = np.einsum("...ki,...i->...k", phor, nabla) / nv
    return mu[0] if squeeze else mu


def stress_energy_residual(phi, x, Z=None):
    """Classical identity div S_phi(Z) = -h(tau, dphi Z) with S = e(phi) g - phi^*h.

    Returns |(1/2) d||dphi||^2 (Z) - (div phi^*h)(Z) + h(tau, dphi Z)|, used to
    cross-validate the tension field.
    """
    from .geometry import divergence_two_tensor

    xb = np.atleast_2d(np.asarray(x, dtype=float))
    squeeze = np.asarray(x).ndim == 1
    if Z is None:
        Z = np.zeros((len(xb), phi.domain.dim))
        Z[:, 0] = 1.0
    Z = np.broadcast_to(np.asarray(Z, float), (len(xb), phi.domain.dim))
    de = field_partials(lambda p: energy_density(phi, p), xb, phi.diff.fd_step)
    divT = divergence_two_tensor(phi.domain, lambda p: pullback_metric(phi, p), xb)
    jet = phi.second_jet(xb)
    tau = tension_field_direct(phi, xb, jet=jet)
    h = phi.codomain.metric_at(jet.y, check=False)
    dZ = np.einsum("...ai,...i->...a", jet.dphi, Z)
    lhs = 0.5 * np.einsum("...i,...i->...", de, Z) - np.einsum("...i,...i->...", divT, Z)
    rhs = -np.einsum("...a,...ab,...b->...", tau, h, dZ)
    out = np.abs(lhs - rhs)
    return out[0] if squeeze else out
