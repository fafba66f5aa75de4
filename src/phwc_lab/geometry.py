"""Coordinate-chart Riemannian manifolds and frame/tensor calculus.

A chart is an axis-aligned box of coordinates with a metric expression.
Built-in geometries cover their manifold minus a measure-zero set, so
integrals are unaffected and pointwise checks sample the interior.
All evaluators accept a single point ``(m,)`` or a batch ``(N, m)``.
Node-batch contractions that are matrix products, or chains of them, run as
``@`` on swapaxes/reshape views (``_apply_first``, ``_contract_first``);
mat-vecs, quadratic forms and traces stay einsum, and no einsum call passes
the ``optimize`` keyword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff
from .autodiff import _memo, field_partials, tensor_jet, tensor_value
from .errors import (
    DegenerateMetric,
    NonFiniteIntegrand,
    OutOfChart,
)

__all__ = [
    "Box",
    "QuadratureRule",
    "TangentVector",
    "ChartManifold",
    "TorusAction",
    "TORUS_OFFSETS",
    "torus_offsets",
    "torus_rules",
    "gram_schmidt",
    "covariant_derivative_vector",
    "codifferential_two_form",
    "nabla_endomorphism",
    "endomorphism_divergence",
    "lie_bracket",
    "metric_norms",
    "two_form_norm2",
    "TWO_FORM_CONVENTION",
]

# Inner product of 2-forms: <w, s> = sum_{a<b} w(e_a,e_b) s(e_a,e_b) over an
# orthonormal frame.  ||Omega||^2 = 1 on CP^1 under this choice; recorded in
# every report.
TWO_FORM_CONVENTION = "sum over a<b of w(e_a,e_b)*s(e_a,e_b), orthonormal frame"


@dataclass(frozen=True)
class Box:
    """Open axis-aligned coordinate box, optionally with excluded slices.

    Axes listed in ``periodic`` wrap (the chart expressions extend
    periodically), so containment does not constrain them; the stated range
    still parametrizes quadrature and sampling.
    """

    lower: tuple
    upper: tuple
    excluded: tuple = ()  # (axis, value) measure-zero slices
    periodic: tuple = ()  # axis indices

    @property
    def dim(self):
        return len(self.lower)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        ok = np.ones(x.shape[:-1], dtype=bool)
        for i in range(self.dim):
            if i in self.periodic:
                continue
            ok = ok & (x[..., i] > self.lower[i]) & (x[..., i] < self.upper[i])
        for axis, value in self.excluded:
            ok = ok & (x[..., axis] != value)
        return ok

    def finite(self):
        return np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))


@dataclass
class QuadratureRule:
    """Explicit nodes/weights realizing integrals against the volume form.

    ``density`` (sqrt det g at the nodes) and ``total_measure`` are those of
    the chart that made the rule (``ChartManifold.rule``).
    """

    nodes: np.ndarray  # (K, m)
    weights: np.ndarray  # (K,)
    total_measure: float
    density: np.ndarray  # (K,)


class TorusAction(NamedTuple):
    """A linear action, by rotations of R^dim, of the torus of a chart's periodic axes.

    Shifting the periodic axes by s (one angle each) turns the coordinate
    plane ``planes[p]`` = (re, im) by the angle sum_k weights[p][k] s_k, as
    z -> e^(i angle) z does; the other coordinates stay.
    """

    dim: int
    planes: tuple  # (re, im) index pairs
    weights: tuple  # per plane, one integer weight per periodic axis

    def matrices(self, s):
        """The action at the shifts s (S, P): (S, dim, dim)."""
        ang = np.asarray(s, dtype=float) @ np.asarray(self.weights, dtype=float).T
        c, sn = np.cos(ang), np.sin(ang)
        out = np.zeros((len(ang), self.dim, self.dim)) + np.eye(self.dim)
        re, im = np.asarray(self.planes).T
        out[:, re, re] = out[:, im, im] = c
        out[:, im, re], out[:, re, im] = sn, -sn
        return out

    def degree(self):
        """The Fourier degree of the matrices along each periodic axis: (P,)."""
        return np.max(np.abs(self.weights), axis=0)


@cache
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, computed once per order."""
    t, w = _gauss_legendre(order)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], bitwise those of
    numpy.polynomial.legendre.leggauss, without importing numpy.polynomial.

    numpy's algorithm, operation for operation: the eigenvalues of the
    symmetric companion matrix of P_order, one Newton step by Clenshaw's
    recursion, weights 1 / (P_(order-1) P'_order) scaled to sum to 2, and
    both symmetrized about 0.
    """
    c = np.zeros(order + 1)
    c[-1] = 1.0  # P_order
    scl = 1.0 / np.sqrt(2 * np.arange(order) + 1)
    mat = np.zeros((order, order))
    top = mat.reshape(-1)[1 :: order + 1]
    top[...] = np.arange(1, order) * scl[: order - 1] * scl[1:order]
    mat.reshape(-1)[order :: order + 1] = top
    x = np.linalg.eigvalsh(mat)
    dy = _legval(x, c)
    df = _legval(x, _legder(c))
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def _legval(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recursion, in numpy's legval's order."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c
    else:
        nd = len(c)
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            tmp = c0
            nd = nd - 1
            c0 = c[-i] - c1 * ((nd - 1) / nd)
            c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legder(c):
    """Legendre coefficients of the derivative of sum_k c[k] P_k, as numpy's legder."""
    c = c.copy()
    n = len(c) - 1
    der = np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


def _gauss_axis(lo, hi, order, axis_map=None):
    t, w = _leggauss(order)
    t = 0.5 * (hi - lo) * (t + 1.0) + lo
    w = 0.5 * (hi - lo) * w
    if axis_map is not None:
        map_fn, jac_fn = axis_map
        w = w * jac_fn(t)
        t = map_fn(t)
    return t, w


@dataclass
class TangentVector:
    """Chart components of a tangent vector at a base point."""

    base_point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float)
        self.components = np.asarray(self.components, dtype=float)
        if not np.all(np.isfinite(self.components)):
            raise ValueError("tangent vector components must be finite")


def _batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


class ChartManifold:
    """A Riemannian manifold presented in one coordinate chart.

    Parameters
    ----------
    metric : callable
        Coordinate expression ``coords -> dim x dim`` nested list, evaluable
        on floats, batches and dual numbers alike.
    box : Box
        Chart domain.  May be infinite if ``param_box``/``axis_maps`` supply a
        finite quadrature parametrization.
    embedding : callable, optional
        Coordinate expression into an ambient Euclidean space; used by
        oracles, Killing-field machinery and ambient-polynomial sections.
    complex_pairs : sequence of (re, im) index pairs, optional
        Declares a complex chart z^a = x[re] + i x[im].
    torus_action : TorusAction, optional
        How shifts of the periodic axes act on the embedding:
        e(x + s) = R(s) e(x).
    """

    def __init__(
        self,
        name,
        metric,
        box,
        quad_orders=12,
        *,
        param_box=None,
        axis_maps=None,
        embedding=None,
        complex_pairs=None,
        sample_box=None,
        torus_action=None,
    ):
        self.name = name
        self.metric_fn = metric
        self.box = box
        self.dim = box.dim
        self.embedding = embedding
        self.torus_action = torus_action
        self.complex_pairs = tuple(complex_pairs) if complex_pairs else None
        self.sample_box = sample_box or (box if box.finite() else None)
        self.param_box = param_box or box
        self.axis_maps = axis_maps
        self.quad_orders = quad_orders

    @cached_property
    def quadrature(self):
        """The full rule at ``quad_orders``, built on first use."""
        return self.rule()

    @cached_property
    def node_rules(self):
        """The rules of registration, the node residuals and the energies.

        With periodic axes: the two torus rules (``torus_rules``), which are
        exact only for what does not depend on theta, so a caller compares
        them.  Without: ``[quadrature]``.
        """
        return torus_rules(self) if self.box.periodic else [self.quadrature]

    def rule(self, orders=None, offsets=None, period_nodes=1):
        """A tensor-product rule of this chart, with its volume density.

        Gauss-Legendre at ``orders`` (one order, or one per axis; default
        ``quad_orders``) on every axis, remapped through ``axis_maps`` for
        charts of infinite extent.  Gauss nodes avoid endpoints, so excluded
        slices at box boundaries need no special handling.  With ``offsets``,
        periodic axis k (the k-th of ``box.periodic``) gets instead the
        T = ``period_nodes`` nodes lower + (offsets[k] + j / T) * period,
        j < T, each weighted period / T: the T-node trapezoid rule, exact for
        every Fourier mode |k| < T of that axis and for no other (Trefethen &
        Weideman, SIAM Review 56, 2014).  T = 1 is exact only for an
        integrand that does not depend on the axis.  A caller must show that
        T resolves its integrand, e.g. by comparing two offsets.
        """
        orders = self.quad_orders if orders is None else orders
        orders = [int(orders)] * self.dim if np.isscalar(orders) else list(orders)
        periodic = tuple(self.box.periodic) if offsets is not None else ()
        offsets = np.broadcast_to(np.asarray(offsets, dtype=float), (len(periodic),))
        axis_maps = self.axis_maps or [None] * self.dim
        steps = np.arange(period_nodes) / period_nodes
        axes = []
        for i in range(self.dim):
            lo, hi = self.param_box.lower[i], self.param_box.upper[i]
            if i in periodic:
                t = lo + (offsets[periodic.index(i)] + steps) * (hi - lo)
                axes.append((t, np.full(period_nodes, (hi - lo) / period_nodes)))
            else:
                axes.append(_gauss_axis(lo, hi, orders[i], axis_maps[i]))
        pts, wts = zip(*axes)
        nodes = np.stack([g.ravel() for g in np.meshgrid(*pts, indexing="ij")], axis=1)
        weights = wts[0]
        for w in wts[1:]:
            weights = np.multiply.outer(weights, w)
        weights = weights.ravel()
        density = self.volume_weight(nodes)
        return QuadratureRule(nodes, weights, float(np.sum(weights * density)), density)

    # -- basic fields --------------------------------------------------------
    def require_inside(self, x):
        if not np.all(self.box.contains(x)):
            raise OutOfChart(f"point outside chart {self.name!r}")

    def _g(self, x):
        return tensor_value(self.metric_fn, x)

    def _require_nondegenerate(self, g):
        """Raise DegenerateMetric unless g has a positive diagonal D and every
        eigenvalue of the Jacobi-scaled D^-1/2 g D^-1/2 is above the fixed guard.

        The scaled matrix does not see the scale of the coordinates (Golub &
        Van Loan, Matrix Computations): near a Hopf chart's pole the factors
        s_k^2 take g's eigenvalues to 0 while it stays near I.  A matrix with
        a diagonal entry <= 0 is tested unscaled, so the message reports its
        own smallest eigenvalue.  ``_cholesky_clears`` clears most matrices
        from one Cholesky factor; only the rest go to eigvalsh, whose minimum
        the message reports.  Both read the guard from one line.
        """
        floor = 1e-12
        g = np.reshape(g, (-1,) + np.shape(g)[-2:])
        d = np.diagonal(g, axis1=-2, axis2=-1)
        s = 1.0 / np.sqrt(np.where(np.all(d > 0, axis=-1, keepdims=True), d, 1.0))
        g = s[:, :, None] * g * s[:, None, :]
        g = g[~_cholesky_clears(g, floor)]
        if len(g):
            w = np.min(np.linalg.eigvalsh(g))
            if w <= floor:
                raise DegenerateMetric(f"metric on {self.name!r} has min eigenvalue {w:.3e}")

    def metric_at(self, x, check=True):
        """Metric matrix g(x); raises OutOfChart / DegenerateMetric."""
        if check:
            self.require_inside(x)
        g = self._g(x)
        if check:
            self._require_nondegenerate(g)
        return g

    def inverse_metric_at(self, x):
        """g(x)^-1, read-only; one inversion per point set."""
        return _memo("inverse_metric", self.metric_fn, x, lambda p: np.linalg.inv(self._g(p)))

    def metric_jet(self, x):
        """(g, dg) with dg[..., i, j, l] the l-th partial of g_ij."""
        return tensor_jet(self.metric_fn, x)

    def volume_weight(self, x):
        det = np.linalg.det(self._g(x))
        return np.sqrt(det)

    def christoffel_at(self, x):
        """Levi-Civita symbols Gamma^k_ij, symmetric in (i, j); read-only, once per point set."""
        self.require_inside(x)
        return _memo("christoffel", self.metric_fn, x, self._christoffel)

    def _christoffel(self, x):
        g, dg = self.metric_jet(x)
        ginv = np.linalg.inv(g)
        # dg axes: (..., i, j, l) = partial_l g_ij
        d = np.moveaxis(dg, -1, -3)  # d[..., l, i, j] = partial_l g_ij
        term = np.swapaxes(d, -3, -2) + np.swapaxes(d, -3, -1) - d
        # term[..., l, i, j] = d_i g_lj + d_j g_li - d_l g_ij  (g symmetric)
        return 0.5 * _apply_first(ginv, term)  # ...kl,...lij->...kij

    # -- frames and musical isomorphisms --------------------------------------
    def frame_at(self, x, rotation=None):
        """g-orthonormal frame columns via Gram-Schmidt on coordinate fields.

        Fixed index order makes the result deterministic; ``rotation`` mixes
        the coordinate fields first (frame-independence tests).
        """
        g = self._g(x)
        m = self.dim
        basis = np.eye(m)
        if rotation is not None:
            basis = basis @ rotation
        vecs = np.broadcast_to(basis, g.shape[:-2] + (m, m)).copy()
        return gram_schmidt(vecs, g)

    def sharp(self, x, omega):
        """Raise an index: (w^sharp)^i = g^ij w_j."""
        self._require_nondegenerate(self._g(x))
        return np.einsum("...ij,...j->...i", self.inverse_metric_at(x), np.asarray(omega, float))

    def flat(self, x, vec):
        g = self._g(x)
        return np.einsum("...ij,...j->...i", g, np.asarray(vec, float))

    # -- integration -----------------------------------------------------------
    def integrate(self, f, rule=None):
        """Quadrature of a scalar field against the volume form.

        ``f`` is a batch callable on nodes (K, m) -> (K,), or an array of
        node values.  ``rule`` is a rule of this chart (``self.quadrature``
        by default, or one from ``rule``).  Summation uses numpy's fixed
        pairwise order, so results are reproducible.
        """
        rule = self.quadrature if rule is None else rule
        vals = f(rule.nodes) if callable(f) else np.asarray(f, dtype=float)
        vals = np.broadcast_to(vals, rule.weights.shape)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand(f"integrand non-finite on {self.name!r}")
        return float(np.sum(rule.weights * vals * rule.density))

    def random_points(self, rng, count, margin=0.02):
        """Seeded interior samples, margin-fraction away from the box boundary."""
        box = self.sample_box
        if box is None:
            raise OutOfChart(f"chart {self.name!r} has no finite sampling box")
        lo = np.asarray(box.lower)
        hi = np.asarray(box.upper)
        pad = margin * (hi - lo)
        return rng.uniform(lo + pad, hi - pad, size=(count, self.dim))


# Offsets of the two torus rules of the node rules and the hessian check, as
# fractions of the period: (start + k * step) mod 1 on the k-th periodic
# axis.  The steps differ, so the two rules differ by a shift that is not the
# same on every axis.  A shift that is the same on every axis moves along the
# Reeb flow, which is central in U(n+1) and so would prove nothing about
# invariance.
TORUS_OFFSETS = ((0.5, np.sqrt(2.0) - 1.0), (0.25, np.sqrt(3.0) - 1.0))


def torus_offsets(M):
    """The offsets of chart M's torus rules, one array per row of TORUS_OFFSETS."""
    k = np.arange(len(M.box.periodic))
    return [(start + k * step) % 1.0 for start, step in TORUS_OFFSETS]


def torus_rules(M, orders=None):
    """The torus rules of chart M at the offsets of TORUS_OFFSETS, in order.

    ``orders`` are the Gauss-Legendre orders of the other axes (default: the
    chart's own), as in ChartManifold.rule.
    """
    return [M.rule(orders, offsets=offsets) for offsets in torus_offsets(M)]


def gram_schmidt(vecs, g):
    """Orthonormalize column vectors (..., m, k) against metric g (..., m, m)."""
    vecs = np.array(vecs, dtype=float, copy=True)
    k = vecs.shape[-1]
    for a in range(k):
        v = vecs[..., a]
        for b in range(a):
            e = vecs[..., b]
            proj = np.einsum("...i,...ij,...j->...", v, g, e)
            v = v - proj[..., None] * e
        norm = _norm(g, v)
        vecs[..., a] = v / norm[..., None]
    return vecs


# ---------------------------------------------------------------------------
# tensor-field calculus (fields are batch callables (N, m) -> arrays)


def covariant_derivative_vector(M, X, Y, x, dY=None):
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at x.

    ``dY`` passes precomputed partials of Y at the batch x (derivative index
    last); without it they are central differences.
    """
    xb, squeeze = _batch(x)
    M.require_inside(xb)
    gamma = M.christoffel_at(xb)
    Xv = np.asarray(X(xb), dtype=float)
    Yv = np.asarray(Y(xb), dtype=float)
    if dY is None:
        dY = field_partials(lambda p: np.asarray(Y(p), dtype=float), xb, autodiff.FD_STEP)
    out = np.einsum("...i,...ki->...k", Xv, dY) + np.einsum(
        "...kij,...i,...j->...k", gamma, Xv, Yv
    )
    return out[0] if squeeze else out


def _nabla_two_tensor(M, T, x, Tv=None, dT=None):
    """(nabla_i T)_jk for a (0,2)-tensor field.

    Pass precomputed values/partials (``Tv``, ``dT`` with derivative index
    last), from an exact jet or a shared stencil; without ``dT`` the
    partials are central differences.
    """
    gamma = M.christoffel_at(x)
    if Tv is None:
        Tv = np.asarray(T(x), dtype=float)
    if dT is None:
        dT = field_partials(lambda p: np.asarray(T(p), dtype=float), x, autodiff.FD_STEP)
    dT = np.moveaxis(dT, -1, -3)  # derivative index first
    corr1 = _contract_first(gamma, Tv)  # ...lij,...lk->...ijk
    corr2 = _apply_first(Tv, gamma).swapaxes(-3, -2)  # ...lik,...jl->...ijk
    return dT - corr1 - corr2


def codifferential_two_form(M, omega, x, rotation=None, omega_values=None, omega_partials=None):
    """Codifferential of a 2-form field: (delta w)(Z) = -sum_a (nabla_{e_a} w)(e_a, Z).

    Realized over an explicit orthonormal frame (Gram-Schmidt on coordinate
    fields, optionally rotated); the result is frame-independent.  Optional
    precomputed field values/partials allow stencil sharing.
    """
    xb, squeeze = _batch(x)
    nab = _nabla_two_tensor(M, omega, xb, Tv=omega_values, dT=omega_partials)
    E = M.frame_at(xb, rotation=rotation)
    proj = E @ E.swapaxes(-1, -2)  # ...ia,...ja->...ij; = g^{-1} for any ON frame
    out = -np.einsum("...ij,...ijk->...k", proj, nab)
    return out[0] if squeeze else out


def nabla_endomorphism(M, F, x, extra_gamma=None, dF=None):
    """(nabla_i F)^k_j for an endomorphism field, axes (..., i, k, j).

    ``extra_gamma`` adds connection corrections C^k_ij on top of Levi-Civita
    (used for Weyl connections); ``dF`` passes precomputed partials
    (derivative index last).
    """
    xb, squeeze = _batch(x)
    gamma = M.christoffel_at(xb)
    if extra_gamma is not None:
        gamma = gamma + extra_gamma(xb)
    Fv = np.asarray(F(xb), dtype=float)
    if dF is None:
        dF = field_partials(lambda p: np.asarray(F(p), dtype=float), xb, autodiff.FD_STEP)
    dF = np.moveaxis(dF, -1, -3)  # (..., i, k, j)
    m = gamma.shape[-1]
    up = (gamma.reshape(gamma.shape[:-3] + (m * m, m)) @ Fv).reshape(gamma.shape)
    # + ...kil,...lj->...ikj - ...lij,...kl->...ikj
    nab = dF + (up - _apply_first(Fv, gamma)).swapaxes(-3, -2)
    return nab[0] if squeeze else nab


def endomorphism_divergence(M, F, x, extra_gamma=None, dF=None):
    """div F = trace nabla F for an endomorphism field F (..., k_up, j_low).

    ``extra_gamma`` and ``dF`` as in nabla_endomorphism.
    """
    xb, squeeze = _batch(x)
    nab = nabla_endomorphism(M, F, xb, extra_gamma=extra_gamma, dF=dF)
    ginv = M.inverse_metric_at(xb)
    out = np.einsum("...ij,...ikj->...k", ginv, nab)
    return out[0] if squeeze else out


def lie_bracket(M, X, Y, x, dX=None, dY=None):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k (chart computation).

    ``dX`` and ``dY`` pass precomputed partials of X and Y at the batch x
    (derivative index last); without them they are central differences.
    """
    xb, squeeze = _batch(x)
    Xv = np.asarray(X(xb), dtype=float)
    Yv = np.asarray(Y(xb), dtype=float)
    if dX is None:
        dX = field_partials(lambda p: np.asarray(X(p), dtype=float), xb, autodiff.FD_STEP)
    if dY is None:
        dY = field_partials(lambda p: np.asarray(Y(p), dtype=float), xb, autodiff.FD_STEP)
    out = np.einsum("...i,...ki->...k", Xv, dY) - np.einsum("...i,...ki->...k", Yv, dX)
    return out[0] if squeeze else out


def _apply_first(A, T):
    """sum_q A[..., p, q] T[..., q, r, s], (..., p, r, s): A on T's first index, one matmul."""
    out = A @ T.reshape(T.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + T.shape[-2:])


def _contract_first(T, B):
    """sum_q T[..., q, r, s] B[..., q, p], (..., r, s, p): B on T's first index, one matmul."""
    out = T.reshape(T.shape[:-2] + (-1,)).swapaxes(-1, -2) @ B
    return out.reshape(out.shape[:-2] + T.shape[-2:] + out.shape[-1:])


def _cholesky_clears(a, floor):
    """Which symmetric matrices of a (N, k, k) one Cholesky factor shows to be above floor.

    A matrix with a Cholesky factor a = L L^T is positive definite (Golub &
    Van Loan, Matrix Computations, section 4.2), det a = prod L_ii^2, and by
    AM-GM on the other k - 1 eigenvalues
    lambda_min >= det a * ((k - 1) / tr a)^(k - 1).  Matrix i clears when
    that bound is at least 100 * floor[i] and at least 1e-10 * tr a: its
    condition number is then below 1e10, so rounding in neither this bound
    nor an exact eigenvalue moves it across the floor.  The factor is what
    makes the bound a bound: an indefinite matrix of positive determinant and
    trace (eigenvalues -1, -1, 5) would pass AM-GM alone.  numpy factors the
    batch or raises, so one matrix without a factor clears none.  ``floor``
    is a scalar or (N,).
    """
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.zeros(len(a), dtype=bool)
    k = a.shape[-1]
    tr = np.trace(a, axis1=-2, axis2=-1)
    # the bound over tr a, from factors L_ii^2 / tr a <= 1 that cannot overflow
    rel = np.prod(np.diagonal(L, axis1=-2, axis2=-1) ** 2 / tr[:, None], axis=-1)
    rel = rel * float(k - 1) ** (k - 1)
    return (rel * tr >= 100 * np.asarray(floor)) & (rel >= 1e-10)


def _norm(g, v):
    """|v|_g for vectors v under metric values g (..., m, m)."""
    return np.sqrt(np.einsum("...i,...ij,...j->...", v, g, v))


def metric_norms(M, x, v):
    """|v|_g at each point of ``x`` for vectors ``v`` tangent to ``M``."""
    return _norm(M.metric_at(x, check=False), v)


def two_form_norm2(M, x, omega):
    """Squared norm of a 2-form value under the a<b convention.

    sum_{a<b} w(e_a, e_b)^2 = (1/2) tr(g^-1 w g^-1 w^T) = -(1/2) tr(a a) with
    a = g^-1 w, as w^T = -w; frame independent.
    """
    a = M.inverse_metric_at(x) @ np.asarray(omega, dtype=float)
    return -0.5 * np.einsum("...ij,...ji->...", a, a)  # ...ij,...jk,...kl,...li->...
