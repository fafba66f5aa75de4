"""Energies, pullback 2-form calculus, criticality residuals, Weyl connections.

The strong-coupling functional is E_inf = (1/2) integral <phi*Omega, phi*Omega>;
a map is critical iff the sharp of the codifferential of phi*Omega is
vertical, which is what the eq-(7) residual measures pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooSmall, NotSemiconformal
from .geometry import (
    TWO_FORM_CONVENTION,
    _apply_first,
    _batch,
    _contract_first,
    _nabla_two_tensor,
    _norm,
    endomorphism_divergence,
    metric_norms,
    two_form_norm2,
)
from .maps import (
    _along,
    _log_dilation_partials,
    dilation_hwc,
    energy_density,
    horizontal_frame,
    horizontal_projector,
    mean_curvature_fibres,
    pullback_metric,
    second_fundamental_form_tensor,
)
from .structures import (
    _require_phwc,
    f_div_f,
    induced_f_structure,
    j_adapted_frame,
    phwc_residual,
)
from .autodiff import _check_finite

__all__ = [
    "EnergyReport",
    "pullback_two_form",
    "dirichlet_energy",
    "fh_energy",
    "fh_infinity_energy",
    "p_energy",
    "z_field",
    "criticality_residual",
    "criticality_equivalence",
    "semiconformal_criticality",
    "WeylConnection",
    "compatible_weyl_theta",
    "weyl_compat_residual",
    "tension_phwc",
    "cond_1_1_residual",
]

# dilation residuals below this treat a map as semiconformal
SEMICONFORMAL_GATE_TOL = 1e-6


@dataclass
class EnergyReport:
    """Quadrature values of the energies of one map."""

    dirichlet: float
    fh_alpha: float
    alpha: float
    fh_infinity: float
    p_energy: float
    p: float
    conventions: dict = field(
        default_factory=lambda: {"two_form_inner_product": TWO_FORM_CONVENTION}
    )


def pullback_two_form(phi, J, x):
    """(phi*Omega)(X, Y) = h(J dphi X, dphi Y) as an antisymmetric matrix."""
    jet = phi.jet(x)
    om = J.omega_at(jet.y)
    return np.swapaxes(jet.dphi, -1, -2) @ om @ jet.dphi


def dirichlet_energy(phi, rule=None):
    return 0.5 * phi.domain.integrate(lambda p: energy_density(phi, p), rule=rule)


def fh_infinity_energy(phi, J, rule=None):
    M = phi.domain

    def dens(p):
        return two_form_norm2(M, p, pullback_two_form(phi, J, p))

    return 0.5 * M.integrate(dens, rule=rule)


def p_energy(phi, p_exponent, rule=None):
    return (1.0 / p_exponent) * phi.domain.integrate(
        lambda q: energy_density(phi, q) ** (p_exponent / 2.0), rule=rule
    )


def fh_energy(phi, J, alpha, p_exponent=4.0, rule=None):
    """Full Faddeev-Hopf energy and companions at coupling alpha >= 0.

    Every energy integrates over ``rule``, a rule of the domain: its full
    quadrature by default, or one from ChartManifold.rule.
    """
    dir_e = dirichlet_energy(phi, rule=rule)
    inf_e = fh_infinity_energy(phi, J, rule=rule)
    return EnergyReport(
        dirichlet=dir_e,
        fh_alpha=dir_e + alpha * inf_e,
        alpha=alpha,
        fh_infinity=inf_e,
        p_energy=p_energy(phi, p_exponent, rule=rule),
        p=p_exponent,
    )


# ---------------------------------------------------------------------------
# criticality


def _omega_dphi_jet(phi, J, x):
    """Omega dphi at the points x (N, m) and its partials (m, N, n, m),
    derivative axis first, by the product rule from phi's second jet and
    Omega's jet (``omega_jet``); with that jet and Omega."""
    jet = phi.second_jet(x)
    om, d_om = J.omega_jet(jet.y)
    d_om_dphi = _along(d_om, jet.dphi) @ jet.dphi + om @ np.moveaxis(jet.d2phi, -1, 0)
    return jet, om, om @ jet.dphi, d_om_dphi


def _pullback_codifferential(phi, J, x):
    """delta(phi*Omega) at the points x (N, m), from exact jets.

    The partials of phi*Omega = dphi^T Omega dphi come by the product rule
    from phi's second jet and Omega's jet (``omega_jet``), so no step enters;
    (delta w)_k = -g^ij (nabla_i w)_jk.  The second jet is the one the
    tension and criticality residuals read at the same points.
    """
    M = phi.domain
    jet, _, om_dphi, d_om_dphi = _omega_dphi_jet(phi, J, x)
    dphi_t = jet.dphi.swapaxes(-1, -2)
    d_pb = np.moveaxis(jet.d2phi, -1, 0).swapaxes(-1, -2) @ om_dphi + dphi_t @ d_om_dphi
    _check_finite(d_pb)
    nab = _nabla_two_tensor(M, None, x, Tv=dphi_t @ om_dphi, dT=np.moveaxis(d_pb, 0, -1))
    return -np.einsum("...ij,...ijk->...k", M.inverse_metric_at(x), nab)


def z_field(phi, J, x):
    """Z = sharp of the codifferential of the pullback 2-form, at (m,) or (N, m);
    no step enters it (``_pullback_codifferential``)."""
    xb, squeeze = _batch(x)
    z = phi.domain.sharp(xb, _pullback_codifferential(phi, J, xb))
    return z[0] if squeeze else z


def _horizontal_norm(phi, x, v):
    """|P_H v|_g: the g-norm of the horizontal part of the vectors v at x."""
    g = phi.domain.metric_at(x, check=False)
    ph = horizontal_projector(phi, x)
    return _norm(g, np.einsum("...ij,...j->...i", ph, v))


def criticality_residual(phi, J, x, z=None):
    """Norm of the horizontal part of Z; zero everywhere iff critical.

    ``z`` is Z at x (z_field) when the caller already holds it.
    """
    return _horizontal_norm(phi, x, z_field(phi, J, x) if z is None else z)


def _nabla_pullback_tensor(phi, x):
    """(nabla_i phi*h)_jk through the second fundamental form (product rule)."""
    jet = phi.second_jet(x)
    nd = second_fundamental_form_tensor(phi, x)
    h = phi.codomain.metric_at(jet.y, check=False)
    t1 = _contract_first(nd, h @ jet.dphi)  # ...aij,...ab,...bk->...ijk
    return t1 + np.swapaxes(t1, -1, -2)


def _max_over_horizontal(phi, x, covector):
    """max over unit horizontal Z of |covector(Z)| = g-norm of its horizontal sharp."""
    return _horizontal_norm(phi, x, phi.domain.sharp(x, covector))


def criticality_equivalence(phi, J, x):
    """Residual fields of the three equivalent conditions and the proof identity.

    Returns a dict with pointwise arrays:
      cosymplectic  |F div F|_g
      criticality   |horizontal part of Z|_g
      pullback_sum  max over unit horizontal Z of |sum_j [...](Z)|
      proof_identity  max over unit horizontal Z of
                      | -delta(phi*Omega)(Z) - phi*h(div F, Z) - sum_j [...](Z) |
    """
    xb, squeeze = _batch(x)
    F = induced_f_structure(phi, J)
    _require_phwc(phi, phwc_residual(phi, J, xb))

    g = phi.domain.metric_at(xb, check=False)
    Fv, dF = F.F_jet(xb)
    divF = endomorphism_divergence(phi.domain, F.F_at, xb, dF=dF)
    FdivF = np.einsum("...ij,...j->...i", Fv, divF)
    r_cosym = _norm(g, FdivF)

    # the codifferential of phi*Omega once: Z and the proof identity share it
    delta = _pullback_codifferential(phi, J, xb)
    z = phi.domain.sharp(xb, delta)  # z_field
    r_crit = criticality_residual(phi, J, xb, z=z)

    # adapted horizontal frame {E_j, F E_j}
    n_pairs = phi.codomain.dim // 2
    H = horizontal_frame(phi, xb)
    seeds = H[..., :, 0::2] if H.shape[-1] >= n_pairs else H
    frame = j_adapted_frame(g, Fv, n_pairs, seeds=seeds[..., :, :n_pairs])
    E = frame[..., :, 0::2]
    FE = frame[..., :, 1::2]
    nabT = _nabla_pullback_tensor(phi, xb)
    W = E @ FE.swapaxes(-1, -2)  # ...ia,...ja->...ij
    s_cov = np.einsum("...ij,...ijk->...k", W - W.swapaxes(-1, -2), nabT)
    r_sum = _max_over_horizontal(phi, xb, s_cov)

    T = pullback_metric(phi, xb)
    pb_div = np.einsum("...kj,...j->...k", T, divF)
    ident = -delta - pb_div - s_cov
    r_ident = _max_over_horizontal(phi, xb, ident)

    out = {
        "cosymplectic": r_cosym,
        "criticality": r_crit,
        "pullback_sum": r_sum,
        "proof_identity": r_ident,
    }
    if squeeze:
        out = {k: v[0] for k, v in out.items()}
    return out


def semiconformal_criticality(phi, J, x):
    """Residuals of the 4-harmonicity criticality condition and its identity.

    Returns (criticality, identity):
      criticality = |(2n-4) grad_H ln(lambda) + (m-2n) mu|_g
      identity    = |F div F - (2n-2) grad_H ln(lambda) - (m-2n) mu|_g
    """
    xb, squeeze = _batch(x)
    _, resid = dilation_hwc(phi, xb)
    if np.max(resid) > SEMICONFORMAL_GATE_TOL:
        raise NotSemiconformal(
            f"map {phi.name!r}: dilation residual {np.max(resid):.2e} "
            f"exceeds {SEMICONFORMAL_GATE_TOL:g}"
        )
    m = phi.domain.dim
    two_n = phi.codomain.dim
    mu = mean_curvature_fibres(phi, xb)  # RankDeficient unless a submersion at xb
    grad = 0.5 * phi.domain.sharp(xb, _log_dilation_partials(phi, xb))
    g = phi.domain.metric_at(xb, check=False)
    ph = horizontal_projector(phi, xb)
    grad_h = np.einsum("...ij,...j->...i", ph, grad)

    crit = (two_n - 4.0) * grad_h + (m - two_n) * mu
    r_crit = _norm(g, crit)

    F = induced_f_structure(phi, J)
    fdf = f_div_f(F, xb)
    ident = fdf - (two_n - 2.0) * grad_h - (m - two_n) * mu
    r_ident = _norm(g, ident)
    if squeeze:
        return r_crit[0], r_ident[0]
    return r_crit, r_ident


# ---------------------------------------------------------------------------
# Weyl connections


class WeylConnection:
    """Torsion-free connection D_X Y = nabla_X Y + t(X)Y + t(Y)X - g(X,Y) t^sharp."""

    def __init__(self, M, theta):
        self.M = M
        self.theta = theta  # batch field (N, m) covector

    def gamma_correction(self, x):
        """Extra C^k_ij on top of the Levi-Civita symbols."""
        th = np.asarray(self.theta(x), dtype=float)
        g = self.M.metric_at(x, check=False)
        sharp = np.einsum("...ij,...j->...i", self.M.inverse_metric_at(x), th)
        m = g.shape[-1]
        eye = np.eye(m)
        c = (
            np.einsum("...i,kj->...kij", th, eye)
            + np.einsum("...j,ki->...kij", th, eye)
            - np.einsum("...ij,...k->...kij", g, sharp)
        )
        return c

    def derivative(self, X, Y, x):
        """D_X Y for vector fields (batch callables)."""
        from .geometry import covariant_derivative_vector

        base = covariant_derivative_vector(self.M, X, Y, x)
        xb, squeeze = _batch(x)
        c = self.gamma_correction(xb)
        Xv = np.asarray(X(xb), dtype=float)
        Yv = np.asarray(Y(xb), dtype=float)
        if squeeze:
            c, Xv, Yv = c[0], Xv[0], Yv[0]
        return base + np.einsum("...kij,...i,...j->...k", c, Xv, Yv)


def compatible_weyl_theta(M, F):
    """1-form with sharp = F div F / (m - 2); makes D compatible with F."""
    if M.dim <= 2:
        raise DimensionTooSmall("compatible Weyl forms need dim M > 2")

    def theta(x):
        v = f_div_f(F, x) / (M.dim - 2.0)
        g = M.metric_at(x, check=False)
        return np.einsum("...ij,...j->...i", g, v)

    return theta


def f_div_f_weyl(M, F, x, connection):
    """F(div^D F) for a Weyl connection D."""
    Fv, dF = F.F_jet(x)
    div = endomorphism_divergence(M, F.F_at, x, extra_gamma=connection.gamma_correction, dF=dF)
    return np.einsum("...ij,...j->...i", Fv, div)


def weyl_compat_residual(M, F, x):
    """max over the sample of |F div^D F|_g with the compatible Weyl connection."""
    xb, _ = _batch(x)
    conn = WeylConnection(M, compatible_weyl_theta(M, F))
    return float(np.max(metric_norms(M, xb, f_div_f_weyl(M, F, xb, conn))))


# ---------------------------------------------------------------------------
# PHWC tension and the corollary conditions


def tension_phwc(phi, J, x):
    """tau = J div^phi J - dphi(F div F) for a constant-rank PHWC map.

    div^phi J = trace_g of the pullback of nabla^N J; identically zero on a
    verified Kaehler target (flag set by check_kaehler), in which case the
    term is skipped.
    """
    xb, squeeze = _batch(x)
    jet = phi.jet(xb)
    _require_phwc(phi, phwc_residual(phi, J, xb))
    F = induced_f_structure(phi, J)
    fdf = f_div_f(F, xb)
    tau = -np.einsum("...ai,...i->...a", jet.dphi, fdf)
    if not J.kaehler:
        from .geometry import nabla_endomorphism

        nabJ = nabla_endomorphism(phi.codomain, J.J_at, jet.y, dF=J.J_jet(jet.y)[1])
        ginv = phi.domain.inverse_metric_at(xb)
        Q = jet.dphi @ ginv @ jet.dphi.swapaxes(-1, -2)  # ...ij,...ai,...bj->...ab
        divphiJ = np.einsum("...ab,...agb->...g", Q, nabJ)
        Jv = J.J_at(jet.y)
        tau = tau + np.einsum("...ga,...a->...g", Jv, divphiJ)
    return tau[0] if squeeze else tau


def cond_1_1_residual(phi, J, x):
    """Defects of the second-fundamental-form conditions on a Kaehler target.

    Returns (membership, identity):
      membership  max |P^(0,1) nabla dphi(X, Y + i F Y)|_h over horizontal X, Y
      identity    max |dphi((nabla_X F)Y) + nabla dphi(X, FY) - J nabla dphi(X, Y)|_h
    """
    xb, squeeze = _batch(x)
    jet = phi.second_jet(xb)
    _require_phwc(phi, phwc_residual(phi, J, xb))
    F = induced_f_structure(phi, J)
    from .geometry import nabla_endomorphism

    H = horizontal_frame(phi, xb)
    Fv, dF = F.F_jet(xb)
    nabF = nabla_endomorphism(phi.domain, F.F_at, xb, dF=dF)
    nd = second_fundamental_form_tensor(phi, xb)
    h = phi.codomain.metric_at(jet.y, check=False)
    Jv = J.J_at(jet.y)

    Ht = H.swapaxes(-1, -2)[..., None, :, :]
    FH = (Fv @ H)[..., None, :, :]  # ...ij,...jb->...ib
    # (nabla_{H_a} F) H_b, then pushed through dphi
    nabF_ab = Ht @ nabF.swapaxes(-3, -2) @ H[..., None, :, :]  # ...ia,...ikj,...jb->...kab
    dphi_nabF = _apply_first(jet.dphi, nabF_ab)  # ...gk,...kab->...gab
    nd_X_FY = Ht @ nd @ FH  # ...gij,...ia,...jb->...gab
    nd_X_Y = Ht @ nd @ H[..., None, :, :]  # ...gij,...ia,...jb->...gab
    J_nd = _apply_first(Jv, nd_X_Y)  # ...gc,...cab->...gab

    ident = dphi_nabF + nd_X_FY - J_nd
    r_ident = np.sqrt(np.einsum("...gab,...gc,...cab->...ab", ident, h, ident))
    r_ident = np.max(r_ident, axis=(-1, -2))

    # membership defect: project nabla dphi(X, Y + iFY) onto T^(0,1)N
    C = nd_X_Y + 1j * nd_X_FY
    JC = J_nd + 1j * _apply_first(Jv, nd_X_FY)  # ...gc,...cab->...gab
    P = 0.5 * (C + 1j * JC)
    r_cond = np.sqrt(
        np.abs(np.einsum("...gab,...gc,...cab->...ab", np.conj(P), h.astype(complex), P))
    )
    r_cond = np.max(r_cond, axis=(-1, -2))
    if squeeze:
        return r_cond[0], r_ident[0]
    return r_cond, r_ident
