"""Built-in validated geometries and maps: the test-bed for every check.

Catalog ids:
  hopf-s3       S^3 -> CP^1, the classical Hopf fibration (Sasakian domain)
  hopf-s5       S^5 -> CP^2, generalized Hopf (unstable family, n = 2)
  hopf-s7       S^7 -> CP^3, generalized Hopf (n = 3)
  hopf-s3-s2    S^3 -> S^2(1/2) spherical-chart variant of hopf-s3
  flat-holo     linear holomorphic submersion C^2 -> C, flat baseline
  product-proj  (CP^1-chart x S^1, product metric) -> CP^1-chart
  warped-hopf   Hopf map with conformally rescaled domain metric (negative control)

Every scenario's "expected" block is re-derived at registration by the
checking modules; nothing is trusted from the catalog source.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .autodiff import _memo_empty, tensor_jet
from .errors import UnknownScenario
from .geometry import Box, ChartManifold
from .maps import SmoothMap
from .structures import (
    AlmostHermitianStructure,
    ContactMetricStructure,
    constant_endomorphism,
)

__all__ = [
    "Scenario",
    "build_scenario",
    "scenario_ids",
    "hopf_sphere_chart",
    "fs_chart",
    "flat_chart",
    "sasakian_structure",
    "hopf_map_expr",
]

@dataclass
class Scenario:
    id: str
    description: str
    domain: ChartManifold
    codomain: ChartManifold
    map: SmoothMap
    J: AlmostHermitianStructure | None = None
    contact: ContactMetricStructure | None = None
    expected: dict = dc_field(default_factory=dict)
    tolerances: dict = dc_field(default_factory=dict)  # overrides of validation.TOLERANCES
    n_complex: int = 1  # complex dimension of the codomain


# ---------------------------------------------------------------------------
# charts


def flat_chart(dim, half=1.0, quad_orders=6, name=None, complex_pairs=None):
    eye = np.eye(dim).tolist()
    return ChartManifold(
        name or f"flat-R{dim}",
        lambda x: eye,
        Box(tuple([-half] * dim), tuple([half] * dim)),
        quad_orders=quad_orders,
        complex_pairs=complex_pairs,
    )


def _s_factors(x, n):
    """Moduli s_0..s_n of the torus coordinates on S^(2n+1)."""
    s = []
    prod = 1.0
    for k in range(n):
        s.append(prod * np.cos(x[k]))
        prod = prod * np.sin(x[k])
    s.append(prod)
    return s


def hopf_sphere_chart(n, quad_orders, warp=None, name=None):
    """Round S^(2n+1) in torus coordinates (phi_1..phi_n, theta_0..theta_n).

    z_k = s_k e^(i theta_k) with s the spherical parametrization of the
    positive octant; the chart covers the sphere minus a measure-zero set.
    ``warp``: optional conformal factor expression x -> f, metric e^(2f) g.
    """
    m = 2 * n + 1

    def metric(x):
        s = _s_factors(x, n)
        diag = [1.0]
        prod = 1.0
        for k in range(1, n):
            prod = prod * np.sin(x[k - 1]) ** 2
            diag.append(prod)
        diag.extend(sk**2 for sk in s)
        scale = np.exp(2.0 * warp(x)) if warp is not None else None
        rows = []
        for i in range(m):
            row = [0.0] * m
            row[i] = diag[i] if scale is None else diag[i] * scale
            rows.append(row)
        return rows

    def embedding(x):
        s = _s_factors(x, n)
        thetas = [x[n + k] for k in range(n + 1)]
        return [s[k] * np.cos(thetas[k]) for k in range(n + 1)] + [
            s[k] * np.sin(thetas[k]) for k in range(n + 1)
        ]

    box = Box(
        tuple([0.0] * n + [0.0] * (n + 1)),
        tuple([np.pi / 2] * n + [2 * np.pi] * (n + 1)),
        periodic=tuple(range(n, m)),
    )
    return ChartManifold(
        name or f"S{2 * n + 1}",
        metric,
        box,
        quad_orders=quad_orders,
        embedding=embedding,
    )


def fs_chart(n, quad_orders=8, name=None):
    """Affine chart of CP^n with the Fubini-Study metric (hol. sec. curv. 4).

    Coordinates (u_1..u_n, v_1..v_n), w_a = u_a + i v_a.  The chart is all of
    R^2n; quadrature substitutes t -> tan t per axis, so the finite total
    measure pi^n / n! is recovered.
    """

    def metric(x):
        u = [x[a] for a in range(n)]
        v = [x[n + a] for a in range(n)]
        w2 = 0.0
        for a in range(n):
            w2 = w2 + u[a] * u[a] + v[a] * v[a]
        den = (1.0 + w2) ** 2
        re = [[None] * n for _ in range(n)]
        im = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                delta = 1.0 if a == b else 0.0
                re[a][b] = ((1.0 + w2) * delta - (u[a] * u[b] + v[a] * v[b])) / den
                im[a][b] = -(u[a] * v[b] - v[a] * u[b]) / den
        rows = []
        for a in range(n):
            rows.append([re[a][b] for b in range(n)] + [im[a][b] for b in range(n)])
        for a in range(n):
            rows.append([-im[a][b] for b in range(n)] + [re[a][b] for b in range(n)])
        return rows

    dim = 2 * n
    box = Box(tuple([-np.inf] * dim), tuple([np.inf] * dim))
    half = np.pi / 2
    param = Box(tuple([-half] * dim), tuple([half] * dim))
    axis_maps = [(np.tan, lambda t: 1.0 / np.cos(t) ** 2)] * dim
    return ChartManifold(
        name or f"CP{n}",
        metric,
        box,
        quad_orders=quad_orders,
        param_box=param,
        axis_maps=axis_maps,
        sample_box=Box(tuple([-3.0] * dim), tuple([3.0] * dim)),
        complex_pairs=[(a, n + a) for a in range(n)],
    )


def standard_complex_structure(dim):
    """J = multiplication by i on (u_1..u_k, v_1..v_k) coordinates.

    A constant_endomorphism, so it carries its coordinate expression and
    J_jet takes its zero partials by dual numbers.
    """
    k = dim // 2
    J = np.zeros((dim, dim))
    J[:k, k:] = -np.eye(k)
    J[k:, :k] = np.eye(k)
    return constant_endomorphism(J)


# ---------------------------------------------------------------------------
# maps and structures


def hopf_map_expr(n):
    """w_k = (s_k / s_0) e^(i (theta_k - theta_0)), k = 1..n."""

    def expr(x):
        s = _s_factors(x, n)
        th0 = x[n]
        u, v = [], []
        for k in range(1, n + 1):
            ratio = s[k] / s[0]
            ang = x[n + k] - th0
            u.append(ratio * np.cos(ang))
            v.append(ratio * np.sin(ang))
        return u + v

    return expr


def ambient_complex_rotation(n):
    """J0 = multiplication by i on C^(n+1) = R^(2n+2), (x, y) block layout."""
    k = n + 1
    J0 = np.zeros((2 * k, 2 * k))
    J0[:k, k:] = -np.eye(k)
    J0[k:, :k] = np.eye(k)
    return J0


def sasakian_structure(chart, n):
    """Standard Sasakian data on S^(2n+1): xi = -J0 p, phi = tangential J0.

    This sign pair satisfies phi X = -nabla_X xi and is the one that makes
    the Hopf map holomorphic onto the standard affine complex structure.
    """
    m = 2 * n + 1
    J0 = ambient_complex_rotation(n)
    xi_comps = np.zeros(m)
    xi_comps[n:] = -1.0

    def xi(x):
        return np.broadcast_to(xi_comps, (len(x), m))

    entries = xi_comps.tolist()
    xi.expr = lambda x: entries  # constant in the chart: exact zero partials

    def phi_field(x):
        _, Je = tensor_jet(chart.embedding, x)
        g = chart.metric_at(x, check=False)
        rhs = Je.swapaxes(-1, -2) @ J0 @ Je  # ...ei,ef,...fj->...ij
        return np.linalg.solve(g, rhs)

    return ContactMetricStructure(chart, phi_field, xi, name=f"sasakian-{chart.name}")


def s2_half_chart(quad_orders=24):
    """Round sphere of radius 1/2 in spherical coordinates, with its rotation J.

    The angle box is doubled in the azimuth so hopf-s3-s2's expression
    theta_1 - theta_0 lands inside without a modulo seam.
    """

    def metric(x):
        return [[0.25, 0.0], [0.0, 0.25 * np.sin(x[0]) ** 2]]

    chart = ChartManifold(
        "S2(1/2)",
        metric,
        Box((0.0, -2 * np.pi), (np.pi, 2 * np.pi), periodic=(1,)),
        quad_orders=quad_orders,
    )

    def J_field(y):
        th = y[:, 0]
        J = np.zeros((len(y), 2, 2))
        J[:, 1, 0] = 1.0 / np.sin(th)
        J[:, 0, 1] = -np.sin(th)
        return J

    def J_expr(y):
        return [[0.0, -np.sin(y[0])], [1.0 / np.sin(y[0]), 0.0]]

    return chart, J_field, J_expr


# ---------------------------------------------------------------------------
# catalog


def _hopf_family(n, quad_order, warp=None, sid=None):
    dom = hopf_sphere_chart(n, quad_order, warp=warp, name=None if warp is None else "S3-warped")
    cod = fs_chart(n, quad_orders=8)
    phi = SmoothMap(sid or f"hopf-s{2 * n + 1}", dom, cod, hopf_map_expr(n))
    J = AlmostHermitianStructure(cod, standard_complex_structure(2 * n), name=f"J-CP{n}")
    contact = None if warp is not None else sasakian_structure(dom, n)
    return dom, cod, phi, J, contact


def _build_hopf(n, quad_order):
    sid = f"hopf-s{2 * n + 1}"
    dom, cod, phi, J, contact = _hopf_family(n, quad_order)
    # Killing variations are energy-neutral (isometry flows); the reported
    # 4(1-n) value belongs to the reduced integrand only.  See the hessian
    # check and killing_reduced_hessian.
    stability = "stable-sampled" if n == 1 else "killing-neutral"
    return Scenario(
        id=sid,
        description=f"Hopf fibration S^{2 * n + 1} -> CP^{n} (Riemannian submersion)",
        domain=dom,
        codomain=cod,
        map=phi,
        J=J,
        contact=contact,
        expected={
            "is_phwc": True,
            "is_semiconformal": True,
            "is_critical": True,
            "minimal_fibres": True,
            "stability_class": stability,
        },
        n_complex=n,
    )


def _build_warped_hopf(quad_order):
    def warp(x):
        return 0.3 * np.cos(2.0 * x[0])

    dom, cod, phi, J, _ = _hopf_family(1, quad_order, warp=warp, sid="warped-hopf")
    return Scenario(
        id="warped-hopf",
        description="Hopf map with domain metric e^(0.6 cos 2 phi_1) g: PHWC, non-critical",
        domain=dom,
        codomain=cod,
        map=phi,
        J=J,
        contact=None,
        expected={
            "is_phwc": True,
            "is_semiconformal": True,
            "is_critical": False,
            "minimal_fibres": False,
            "stability_class": None,
        },
        tolerances={"phwc": 1e-8},
        n_complex=1,
    )


def _build_flat_holo(quad_order):
    dom = flat_chart(4, half=1.0, quad_orders=quad_order, name="C2-chart",
                     complex_pairs=[(0, 2), (1, 3)])
    cod = flat_chart(2, half=1.5, quad_orders=6, name="C1-chart", complex_pairs=[(0, 1)])
    JM = np.zeros((4, 4))
    JM[0, 2], JM[1, 3], JM[2, 0], JM[3, 1] = -1.0, -1.0, 1.0, 1.0

    def expr(x):
        return [x[0], x[2]]

    phi = SmoothMap("flat-holo", dom, cod, expr)
    J = AlmostHermitianStructure(cod, standard_complex_structure(2), name="J-C1")
    sc = Scenario(
        id="flat-holo",
        description="Linear holomorphic submersion C^2 -> C on flat charts",
        domain=dom,
        codomain=cod,
        map=phi,
        J=J,
        expected={
            "is_phwc": True,
            "is_semiconformal": True,
            "is_critical": True,
            "minimal_fibres": True,
            "stability_class": "stable-conditions",
        },
        n_complex=1,
    )
    sc.domain_J = AlmostHermitianStructure(dom, constant_endomorphism(JM), name="J-C2")
    return sc


def _build_product_proj(quad_order):
    base = fs_chart(1, quad_orders=8)

    def metric(x):
        u, v = x[0], x[1]
        w2 = u * u + v * v
        a = 1.0 / (1.0 + w2) ** 2
        return [[a, 0.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, 1.0]]

    half = np.pi / 2
    dom = ChartManifold(
        "CP1xS1",
        metric,
        Box((-np.inf, -np.inf, 0.0), (np.inf, np.inf, 2 * np.pi), periodic=(2,)),
        quad_orders=[quad_order, quad_order, 6],
        param_box=Box((-half, -half, 0.0), (half, half, 2 * np.pi)),
        axis_maps=[(np.tan, lambda t: 1.0 / np.cos(t) ** 2)] * 2 + [None],
        sample_box=Box((-3.0, -3.0, 0.0), (3.0, 3.0, 2 * np.pi)),
    )

    def expr(x):
        return [x[0], x[1]]

    phi = SmoothMap("product-proj", dom, base, expr)
    J = AlmostHermitianStructure(base, standard_complex_structure(2), name="J-CP1")
    return Scenario(
        id="product-proj",
        description="Riemannian product projection (CP^1-chart x S^1) -> CP^1-chart",
        domain=dom,
        codomain=base,
        map=phi,
        J=J,
        expected={
            "is_phwc": True,
            "is_semiconformal": True,
            "is_critical": True,
            "minimal_fibres": True,
            "stability_class": "stable-conditions",
        },
        n_complex=1,
    )


def _build_hopf_s3_s2(quad_order):
    dom = hopf_sphere_chart(1, quad_order)
    cod, J_field, J_expr = s2_half_chart()

    def expr(x):
        return [2.0 * x[0], x[2] - x[1]]

    phi = SmoothMap("hopf-s3-s2", dom, cod, expr)
    J = AlmostHermitianStructure(cod, J_field, name="J-S2(1/2)", expr=J_expr)
    return Scenario(
        id="hopf-s3-s2",
        description="Hopf fibration onto the S^2(1/2) spherical chart (cross-check)",
        domain=dom,
        codomain=cod,
        map=phi,
        J=J,
        contact=sasakian_structure(dom, 1),
        expected={
            "is_phwc": True,
            "is_semiconformal": True,
            "is_critical": True,
            "minimal_fibres": True,
            "stability_class": None,
        },
        n_complex=1,
    )


_DEFAULT_ORDERS = {
    "hopf-s3": 24,
    "hopf-s5": 6,
    "hopf-s7": 5,
    "hopf-s3-s2": 24,
    "flat-holo": 6,
    "product-proj": 10,
    "warped-hopf": 16,
}

_BUILDERS = {
    "hopf-s3": lambda o: _build_hopf(1, o),
    "hopf-s5": lambda o: _build_hopf(2, o),
    "hopf-s7": lambda o: _build_hopf(3, o),
    "hopf-s3-s2": _build_hopf_s3_s2,
    "flat-holo": _build_flat_holo,
    "product-proj": _build_product_proj,
    "warped-hopf": _build_warped_hopf,
}

_CACHE = {}


def scenario_ids():
    return sorted(_BUILDERS)


def build_scenario(scenario_id, quad_order=None, validate=True, seed=0):
    """Construct (and by default validate) a catalog scenario.

    Validation re-derives the declared "expected" block with the checking
    modules at seeded sample points; see ``validation.validate_scenario``.
    Building one empties the memo of evaluations by point set
    (``autodiff._memo``): its values live as long as their scenario.
    """
    if scenario_id not in _BUILDERS:
        raise UnknownScenario(
            f"unknown scenario {scenario_id!r}; known: {', '.join(scenario_ids())}"
        )
    order = quad_order or _DEFAULT_ORDERS[scenario_id]
    key = (scenario_id, order, validate, seed)
    if key in _CACHE:
        return _CACHE[key]
    _memo_empty()
    sc = _BUILDERS[scenario_id](order)
    if validate:
        from .validation import validate_scenario

        validate_scenario(sc, seed=seed)
    _CACHE[key] = sc
    return sc
