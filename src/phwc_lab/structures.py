"""Almost Hermitian structures, metric f-structures and the PHWC machinery.

The pseudo-horizontal-weak-conformality residual is the Frobenius norm of
F [dphi dphi^t, F] on the codomain; the induced structure on the domain is
built from the adjoint image of the (1,0)-space and makes the map
holomorphic wherever that residual vanishes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import _memo, field_partials, tensor_jet
from .errors import (
    ComplexChartMissing,
    IsotropyFailure,
    NotPHWC,
    RankDeficient,
)
from .geometry import (
    _apply_first,
    _batch,
    _contract_first,
    _norm,
    endomorphism_divergence,
    gram_schmidt,
    metric_norms,
    nabla_endomorphism,
)
from .maps import _adjoint_jet, _along, adjoint_differential, horizontal_frame


def _field(fn, x):
    """Evaluate a batch tensor field at (m,) or (N, m) points."""
    xb, squeeze = _batch(x)
    out = np.asarray(fn(xb), dtype=float)
    return out[0] if squeeze else out


def _field_jet(kind, owner, at, x, expr=None, partials=None):
    """(at(x), its partials) at the points x (N, m), derivative index last.

    The partials come from the coordinate expression ``expr`` by dual numbers,
    or are ``partials(x)``, or else central differences of ``at`` at
    ``autodiff.FD_STEP``.  Read-only; one evaluation per point set, kept
    under (kind, owner).
    """

    def compute(p):
        if expr is not None:
            return at(p), tensor_jet(expr, p)[1]
        if partials is not None:
            return at(p), partials(p)
        return at(p), field_partials(at, p, autodiff.FD_STEP)

    return _memo(kind, owner, x, compute)


def constant_endomorphism(mat):
    """Wrap a constant matrix as a batch endomorphism field.

    The field carries the same constant as a coordinate expression in its
    ``expr`` attribute, so its partials are exact zeros by dual numbers.
    """
    mat = np.asarray(mat, dtype=float)
    entries = mat.tolist()

    def fn(x):
        return np.broadcast_to(mat, (len(x),) + mat.shape)

    fn.expr = lambda x: entries
    return fn

__all__ = [
    "AlmostHermitianStructure",
    "MetricFStructure",
    "ContactMetricStructure",
    "constant_endomorphism",
    "j_adapted_frame",
    "phwc_residual",
    "phwc_residual_coordinates",
    "induced_f_structure",
    "holomorphy_residual",
    "f_div_f",
    "phh_residual",
    "cond_b_residual",
    "cond_div_residual",
    "PHWC_GATE_TOL",
]

# residuals below this treat a map as PHWC when gating the induced structure
PHWC_GATE_TOL = 1e-6


class AlmostHermitianStructure:
    """Endomorphism field J with J^2 = -I, compatible with the base metric.

    ``J`` is a batch field: points (N, dim) -> matrices (N, dim, dim).
    ``expr``, when given, is the same field as a coordinate expression;
    derivative checks then use exact dual-number differentiation.  It
    defaults to the field's own ``expr`` attribute (constant_endomorphism
    sets one).
    """

    memo_key = None  # as an f-structure, no F div F of it is kept

    def __init__(self, base, J, name="J", expr=None):
        self.base = base
        self.J_fn = J
        self.name = name
        self.expr = getattr(J, "expr", None) if expr is None else expr
        self.kaehler = None  # set by check_kaehler

    def J_at(self, y):
        return _field(self.J_fn, y)

    def F_at(self, y):  # a J is an f-structure of full rank
        return self.J_at(y)

    def F_jet(self, y):
        return self.J_jet(y)

    @property
    def rank(self):
        return self.base.dim

    def omega_at(self, y):
        """Fundamental 2-form Omega(X, Y) = h(JX, Y), i.e. Omega = J^T h."""
        h = self.base.metric_at(y, check=False)
        J = self.J_at(y)
        return J.swapaxes(-1, -2) @ h  # ...ki,...kj->...ij

    def J_jet(self, y):
        """J and its partials at the points y (N, dim), derivative index last.

        The partials come from ``expr`` by dual numbers when it is given,
        else from central differences of J_at at y.  Read-only; one
        evaluation per point set.
        """
        return _field_jet("J_jet", self, self.J_at, y, expr=self.expr)

    def omega_jet(self, y):
        """Omega (omega_at) and its partials at the points y (N, dim), derivative
        index last, by the product rule from J's jet and the metric jet."""
        J, dJ = self.J_jet(y)
        h, dh = self.base.metric_jet(y)
        d_om = _contract_first(dJ, h).swapaxes(-1, -2)  # ...kia,...kj->...ija
        J_dh = _apply_first(J.swapaxes(-1, -2), dh)  # ...ki,...kja->...ija
        return self.omega_at(y), d_om + J_dh

    def check_invariants(self, points):
        """max |J^2 + I|, |J^T h J - h|, |Omega + Omega^T| at the points."""
        J = self.J_at(points)
        h = self.base.metric_at(points, check=False)
        eye = np.eye(self.base.dim)
        r1 = np.max(np.abs(J @ J + eye))  # ...ik,...kj->...ij
        r2 = np.max(np.abs(J.swapaxes(-1, -2) @ h @ J - h))  # ...ki,...kl,...lj->...ij
        om = self.omega_at(points)
        r3 = np.max(np.abs(om + np.swapaxes(om, -1, -2)))
        return max(r1, r2, r3)

    def check_kaehler(self, points, tol=1e-8):
        """Verify nabla J = 0 at the sample points; caches the verdict."""
        nab = nabla_endomorphism(self.base, self.J_at, points, dF=self.J_jet(points)[1])
        worst = float(np.max(np.abs(nab)))
        self.kaehler = worst < tol
        return worst


class MetricFStructure:
    """Endomorphism field F with F^3 + F = 0, skew-adjoint for the metric.

    ``F`` is a batch field: points (N, dim) -> matrices (N, dim, dim).
    ``partials``, when given, is a batch field of F's exact partials, (N, dim)
    -> (N, dim, dim, dim) with the derivative index last.  ``memo_key`` is the
    owner under which the memo of autodiff keeps F's values, or None; with
    it, what is derived from F alone (its jet, F div F) is kept under the
    same key.
    """

    def __init__(self, base, F, rank=None, name="F", memo_key=None, partials=None):
        self.base = base
        self.F_fn = F
        self.rank = rank
        self.name = name
        self.memo_key = memo_key
        self.partials = partials

    def F_at(self, x):
        return _field(self.F_fn, x)

    def F_jet(self, x):
        """F and its partials at the points x (N, dim), derivative index last.

        The partials are ``partials``' when it is given, else central
        differences of F_at at x.  Read-only; one evaluation per point set.
        """
        return _field_jet("F_jet", self.memo_key or self, self.F_at, x, partials=self.partials)

    def check_invariants(self, points):
        """max |F^3 + F| and |F^T g + g F| at the points; inf if the rank varies.

        An odd rank raises ValueError: no f-structure has one.
        """
        F = np.asarray(self.F_at(points), dtype=float)
        g = self.base.metric_at(points, check=False)
        F2 = F @ F  # ...ij,...jk->...ik
        r1 = np.max(np.abs(F2 @ F + F))  # ...ij,...jk,...kl->...il
        r2 = np.max(np.abs(F.swapaxes(-1, -2) @ g + g @ F))  # F^T g + g F
        ranks = np.round(-np.einsum("...ii->...", F2))
        if self.rank is None:
            self.rank = int(ranks.flat[0])
        r3 = 0.0 if np.all(ranks == self.rank) else np.inf
        if self.rank % 2:
            raise ValueError(f"{self.name}: rank {self.rank} is odd")
        return max(r1, r2, r3)


class ContactMetricStructure:
    """(phi, xi, eta, g) data of a metric almost contact manifold.

    ``xi`` carries, in its ``expr`` attribute, the same field as a
    coordinate expression when one is known (the catalog's xi is constant in
    the chart); its partials then come by dual numbers.
    """

    def __init__(self, base, phi, xi, name="contact"):
        self.base = base
        self.phi_fn = phi  # batch field (N, m) -> (N, m, m)
        self.xi_fn = xi  # batch field (N, m) -> (N, m)
        self.xi_expr = getattr(xi, "expr", None)
        self.name = name

    def phi_at(self, x):
        """phi at the points x; read-only, one evaluation per point set."""
        xb, squeeze = _batch(x)
        out = _memo("contact_phi", self, xb, lambda p: _field(self.phi_fn, p))
        return out[0] if squeeze else out

    def xi_at(self, x):
        return _field(self.xi_fn, x)

    def xi_jet(self, x):
        """xi and its partials at the points x (N, m), derivative index last.

        Exact from xi's ``expr`` when it has one, else central differences of
        xi_at.  Read-only; one evaluation per point set.
        """
        return _field_jet("xi_jet", self, self.xi_at, x, expr=self.xi_expr)

    def eta_at(self, x):
        g = self.base.metric_at(x, check=False)
        return np.einsum("...ij,...j->...i", g, self.xi_at(x))

    def as_f_structure(self):
        return MetricFStructure(
            self.base, lambda x: self.phi_at(x), rank=self.base.dim - 1, name="phi-tensor"
        )

    def check_invariants(self, points):
        """max |phi^2 + I - xi (x) eta|, |eta(xi) - 1|, |phi^T g phi - g + eta (x) eta|."""
        ph = self.phi_at(points)
        xi = self.xi_at(points)
        eta = self.eta_at(points)
        g = self.base.metric_at(points, check=False)
        eye = np.eye(self.base.dim)
        phi2 = ph @ ph  # ...ij,...jk->...ik
        r1 = np.max(np.abs(phi2 + eye - np.einsum("...i,...j->...ij", xi, eta)))
        r2 = np.max(np.abs(np.einsum("...i,...i->...", eta, xi) - 1.0))
        gphi = ph.swapaxes(-1, -2) @ g @ ph  # ...ki,...kl,...lj->...ij
        r3 = np.max(np.abs(gphi - g + np.einsum("...i,...j->...ij", eta, eta)))
        return max(r1, r2, r3)


# ---------------------------------------------------------------------------
# frames adapted to a complex/f-structure


def j_adapted_frame(g, J, pairs, seeds=None):
    """Orthonormal frame (..., m, 2*pairs) of columns (u_1, Ju_1, u_2, Ju_2, ...).

    ``seeds`` (..., m, pairs) default to the first coordinate fields; they
    must stay independent of the previously built columns (true for every
    built-in structure here).
    """
    m = g.shape[-1]
    batch = g.shape[:-2]
    if seeds is None:
        seeds = np.broadcast_to(np.eye(m)[:, :pairs], batch + (m, pairs))
    cols = np.zeros(batch + (m, 2 * pairs))
    for k in range(pairs):
        v = seeds[..., :, k]
        for b in range(2 * k):
            e = cols[..., :, b]
            proj = np.einsum("...i,...ij,...j->...", v, g, e)
            v = v - proj[..., None] * e
        nrm = _norm(g, v)
        if np.any(nrm < 1e-10):
            raise RankDeficient("adapted-frame seed fell into the span of earlier columns")
        v = v / nrm[..., None]
        cols[..., :, 2 * k] = v
        cols[..., :, 2 * k + 1] = np.einsum("...ij,...j->...i", J, v)
    return cols


# ---------------------------------------------------------------------------
# PHWC condition


def _struct_at(structure, y):
    # a codomain structure exposes F_at (J is full-rank F)
    return np.asarray(structure.F_at(y), dtype=float)


def _commutator_norm(dphi, adj, F):
    """Frobenius norm of F [q, F] with q = dphi dphi^t (adj = dphi^t)."""
    q = dphi @ adj
    r = F @ (q @ F - F @ q)
    return np.sqrt(np.einsum("...ab,...ab->...", r, r))


def _require_phwc(phi, residual):
    """NotPHWC unless the PHWC residual is within PHWC_GATE_TOL at every point."""
    worst = np.max(residual)
    if worst > PHWC_GATE_TOL:
        raise NotPHWC(
            f"map {phi.name!r}: PHWC residual {worst:.3e} exceeds gate {PHWC_GATE_TOL:g}"
        )


def phwc_residual(phi, structure, x):
    """Frobenius norm of F [dphi dphi^t, F] at phi(x); zero iff PHWC there."""
    jet = phi.jet(x)
    return _commutator_norm(jet.dphi, adjoint_differential(phi, x), _struct_at(structure, jet.y))


def phwc_residual_coordinates(phi, x):
    """Coordinate form of the PHWC condition on a complex codomain chart.

    max over a <= b of | g^ij  d_i phi^a d_j phi^b | with phi^a the complex
    chart components; equivalent to the commutator residual for an
    integrable codomain structure.
    """
    pairs = phi.codomain.complex_pairs
    if not pairs:
        raise ComplexChartMissing(
            f"codomain {phi.codomain.name!r} declares no complex chart pairing"
        )
    jet = phi.jet(x)
    ginv = phi.domain.inverse_metric_at(x)
    # sesquilinear-free product: g^ij dphi^a_i dphi^b_j (complex bilinear), from
    # the real blocks of the rows S = [Re dphi^a; Im dphi^a] (see _isotropy_and_f)
    p = len(pairs)
    S = jet.dphi[..., [re for re, _ in pairs] + [im for _, im in pairs], :]
    P = S @ ginv @ S.swapaxes(-1, -2)  # real blocks of ...ij,...ai,...bj->...ab
    prod = P[..., :p, :p] - P[..., p:, p:] + 1j * (P[..., :p, p:] + P[..., p:, :p])
    return np.max(np.abs(prod), axis=(-1, -2))


def induced_f_structure(phi, J):
    """Metric f-structure F on the domain making a PHWC map holomorphic.

    F = i on W = dphi^t(T^(1,0)N), -i on the conjugate, 0 on the complement;
    realized as the real matrix -2 Im(B B^dagger) g from a complex-orthonormal
    basis B of W.  Deterministic: the codomain frame is J-adapted in fixed
    coordinate order, and columns are orthonormalized in natural order, so
    the construction is smooth wherever the rank is constant.

    F's partials are exact (``_induced_f_partials``), so nabla F, div F and
    everything built on them take no step.  F's values, its jet and F div F
    are read-only and kept by point set for (phi, J) (``memo_key``) in the
    memo of autodiff, so every F of the same phi and J evaluates nothing
    twice at the same points.
    """
    n_pairs = phi.codomain.dim // 2
    key = (phi, J)

    def F_at(x):
        """F at the points x (N, m), and dim_C W."""
        jet = phi.jet(x)
        g = phi.domain.metric_at(x, check=False)
        h = phi.codomain.metric_at(jet.y, check=False)
        # J once: phwc_residual would evaluate it again at the same images
        Jv = _struct_at(J, jet.y)
        adj = adjoint_differential(phi, x)
        _require_phwc(phi, _commutator_norm(jet.dphi, adj, Jv))
        u = j_adapted_frame(h, Jv, n_pairs)
        cols = adj @ u[..., 0::2] - 1j * (adj @ u[..., 1::2])  # dphi^t (u - i J u)
        B, kept = _complex_orthonormalize(cols, g)
        iso, F = _isotropy_and_f(B, g)
        if np.max(np.abs(iso)) > 1e-8:
            raise IsotropyFailure(
                f"map {phi.name!r}: pulled-back (1,0)-space is not isotropic "
                f"({np.max(np.abs(iso)):.3e}); PHWC fails"
            )
        return F, kept

    def F_and_rank(x):
        return _memo("induced_f_structure", key, x, F_at)

    def partials(x):
        return _induced_f_partials(phi, J, x, F_and_rank(x)[1])

    # rank = 2 * dim_C W; probed at a node of the domain's node rules on the
    # first construction for this J and kept on phi, as its rank profile is
    if J not in phi._f_ranks:
        _, kept = F_and_rank(phi.domain.node_rules[0].nodes[:1])
        phi._f_ranks[J] = 2 * kept
    return MetricFStructure(
        phi.domain,
        lambda x: F_and_rank(x)[0],
        rank=phi._f_ranks[J],
        name=f"F^{phi.name}",
        memo_key=key,
        partials=partials,
    )


def _induced_f_partials(phi, J, x, kept):
    """The partials of the induced F at the points x (N, m), derivative index
    last, from exact jets; ``kept`` is dim_C W.

    F = -2 Im(C Q^+ C^H) g with C = dphi^t (I - i J) and Q = C^H g C: the
    columns of C span W, so C Q^+ C^H = B B^H.  The product rule runs on the
    adjoint's jet (``maps._adjoint_jet``), J's jet along dphi and the metric
    jet, and Q^+ is differentiated at its constant rank (Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 1973):
        dQ^+ = -Q^+ dQ Q^+ + Q^+^2 dQ (I - Q Q^+) + (I - Q^+ Q) dQ Q^+^2.
    Every product is real (see _isotropy_and_f): the complex X + iY acts as
    the real [[X, -Y], [Y, X]], whose row blocks for C are T = [Re C | -Im C]
    and U = [Im C | Re C]; so Q is T^T g T + U^T g U, of rank 2 dim_C W, and
    Im(C Q^+ C^H) = U Q^+ T^T.
    """
    jet = phi.jet(x)
    adj, d_adj, _, _ = _adjoint_jet(phi, x)
    g, dg = phi.domain.metric_jet(x)
    dg = np.moveaxis(dg, -1, 0)  # derivative axis first, as d_adj's
    Jv, dJ = J.J_jet(jet.y)
    im_c = -(adj @ Jv)
    d_im_c = -(d_adj @ Jv + adj @ _along(dJ, jet.dphi))
    T = np.concatenate([adj, -im_c], axis=-1)
    U = np.concatenate([im_c, adj], axis=-1)
    dT = np.concatenate([d_adj, -d_im_c], axis=-1)
    dU = np.concatenate([d_im_c, d_adj], axis=-1)
    Tt, Ut = T.swapaxes(-1, -2), U.swapaxes(-1, -2)
    w, V = np.linalg.eigh(Tt @ g @ T + Ut @ g @ U)
    V = V[..., -2 * kept :]
    Qp = (V / w[..., None, -2 * kept :]) @ V.swapaxes(-1, -2)
    Y = Tt @ (g @ dT) + Ut @ (g @ dU)
    dQ = Y + Y.swapaxes(-1, -2) + Tt @ dg @ T + Ut @ dg @ U
    # Q^+^2 dQ (I - Q Q^+), its transpose, and -Q^+ dQ Q^+
    B = Qp @ Qp @ (dQ - (dQ @ V) @ V.swapaxes(-1, -2))
    dQp = B + B.swapaxes(-1, -2) - Qp @ dQ @ Qp
    QpTt = Qp @ Tt
    im_p = U @ QpTt
    d_im_p = dU @ QpTt + (U @ Qp) @ dT.swapaxes(-1, -2) + U @ dQp @ Tt
    return np.moveaxis(-2.0 * (d_im_p @ g + im_p @ dg), 0, -1)


def _isotropy_and_f(B, g):
    """B^T g B, zero iff the span of the columns of B (..., m, k) is
    isotropic, and F = -2 Im(B B^H) g, for B Hermitian-orthonormal in g.

    Real products only, of S = [Re B | Im B] and with Im(B B^H) =
    Im B Re B^T - Re B Im B^T: a complex matmul would page in BLAS's
    complex kernels, about 0.3 MiB of peak RSS.
    """
    k = B.shape[-1]
    S = np.concatenate([B.real, B.imag], axis=-1)
    P = S.swapaxes(-1, -2) @ g @ S  # real blocks of ...ik,...ij,...jl->...kl
    iso = P[..., :k, :k] - P[..., k:, k:] + 1j * (P[..., :k, k:] + P[..., k:, :k])
    W = B.imag @ B.real.swapaxes(-1, -2)
    return iso, -2.0 * ((W - W.swapaxes(-1, -2)) @ g)  # ...ik,...jk->...ij; ...ij,...jk->...ik


def _complex_orthonormalize(cols, g):
    """Gram-Schmidt in the Hermitian metric <z, w> = conj(w)^T g z, natural order.

    Drops columns whose residual norm is below 1e-10 of the largest seen
    (redundant generators of the same complex span); returns (B, kept).
    """
    gc = g.astype(complex)
    out = []
    scale = None
    k = cols.shape[-1]
    for j in range(k):
        v = cols[..., j]
        for e in out:
            pr = np.einsum("...i,...ij,...j->...", e.conj(), gc, v)
            v = v - pr[..., None] * e
        nrm = np.sqrt(np.abs(np.einsum("...i,...ij,...j->...", v.conj(), gc, v)))
        if scale is None:
            scale = np.max(nrm)
        if np.all(nrm > 1e-10 * scale):
            out.append(v / nrm[..., None])
        elif np.any(nrm > 1e-10 * scale):
            raise RankDeficient("induced-structure rank varies inside the batch")
    B = np.stack(out, axis=-1)
    return B, len(out)


# ---------------------------------------------------------------------------
# holomorphy and harmonicity residuals


def holomorphy_residual(phi, F_M, F_N, x):
    """Defect of dphi(F^M X) - F^N dphi(X) lying in Ker F^N.

    The Ker component is projected out by applying (F^N)^2 (minus the
    projector onto (Ker F^N)^perp); each frame vector's defect is normalized
    by 1 + |dphi X|_h.
    """
    jet = phi.jet(x)
    FM = np.asarray(F_M.F_at(x), dtype=float)
    FN = np.asarray(F_N.F_at(jet.y), dtype=float)
    h = phi.codomain.metric_at(jet.y, check=False)
    E = phi.domain.frame_at(x)
    X = E  # columns
    dX = jet.dphi @ X  # ...ai,...ik->...ak
    D = jet.dphi @ (FM @ X) - FN @ dX  # ...ai,...ij,...jk->...ak minus ...ab,...bk->...ak
    D2 = FN @ (FN @ D)  # ...ab,...bc,...ck->...ak
    num = np.sqrt(np.einsum("...ak,...ab,...bk->...k", D2, h, D2))
    den = 1.0 + np.sqrt(np.einsum("...ak,...ab,...bk->...k", dX, h, dX))
    return np.max(num / den, axis=-1)


def f_div_f(F, x):
    """F(div F) with div F = trace nabla F; vanishing = cosymplectic.

    For an F with a ``memo_key`` (the induced F) it is read-only and
    computed once per point set.
    """

    def compute(p):
        Fv, dF = F.F_jet(p)
        div = endomorphism_divergence(F.base, F.F_at, p, dF=dF)
        return np.einsum("...ij,...j->...i", Fv, div)

    if F.memo_key is None:
        return compute(x)
    return _memo("f_div_f", F.memo_key, x, compute)


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


def _im_f_basis(F, x, g):
    """Deterministic orthonormal basis of (Ker F)^perp = im F, batched."""
    Fv = np.asarray(F.F_at(x), dtype=float)
    proj = -(Fv @ Fv)  # ...ij,...jk->...ik; projector onto im F
    k = int(round(float(np.einsum("...ii->...", proj).flat[0])))
    rng = np.random.default_rng(2024)
    m = Fv.shape[-1]
    mix = rng.normal(size=(m, m)) + np.eye(m) * m
    return gram_schmidt(proj @ mix[:, :k], g), k  # ...ij,jk->...ik


def _cond_b_vectors(F, x):
    """Sample set for the quadratic condition: frame vectors and pair sums."""
    g = F.base.metric_at(x, check=False)
    H, k = _im_f_basis(F, x, g)
    vecs = [H[..., a] for a in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            vecs.append((H[..., a] + H[..., b]) / np.sqrt(2.0))
    return vecs


def _cond_b_norms(F, x, apply_F):
    """|(nabla_X F)X + (nabla_FX F)(FX)|_g, with F applied to it when
    ``apply_F``, largest over the sample vectors X of _cond_b_vectors."""
    xb, squeeze = _batch(x)
    Fv, dF = F.F_jet(xb)
    nab = nabla_endomorphism(F.base, F.F_at, xb, dF=dF)
    worst = 0.0
    for X in _cond_b_vectors(F, xb):
        FX = np.einsum("...ij,...j->...i", Fv, X)
        v = np.einsum("...i,...ikj,...j->...k", X, nab, X)
        v = v + np.einsum("...i,...ikj,...j->...k", FX, nab, FX)
        if apply_F:
            v = np.einsum("...ij,...j->...i", Fv, v)
        worst = np.maximum(worst, metric_norms(F.base, xb, v))
    return worst[0] if squeeze else worst


def cond_b_residual(F, x):
    """max_X |(nabla_X F)X + (nabla_FX F)(FX)| over unit horizontal samples."""
    return _cond_b_norms(F, x, apply_F=False)


def cond_div_residual(F, x):
    """Same expression with F applied, sampled over Ker(F^2 + I)."""
    return _cond_b_norms(F, x, apply_F=True)
