"""Differentiation engine: duals, second-order jets, exact jets against stencils."""

import re

import numpy as np
import pytest

import phwc_lab
from phwc_lab import autodiff
from phwc_lab.autodiff import Dual, Jet2, field_partials, tensor_jet, tensor_second, tensor_value
from phwc_lab.errors import ConfigError, DifferentiationFailure
from phwc_lab.report import RunConfig


def expr(x):
    return [np.sin(x[0]) * x[1], x[0] ** 2 + np.exp(x[1]), 3.0]


def expr_hard(x):
    return [
        np.tan(x[0]) / (1.0 + x[1] ** 2),
        np.sqrt(x[0] + 2.0) * np.log(x[1] + 3.0),
        np.tanh(x[0]) + np.arctan(x[1]) + np.cosh(x[0] * 0.3),
    ]


X = np.array([[0.3, 0.7], [1.1, -0.4], [0.05, 0.9]])


class TestConfig:
    def test_defaults(self):
        # one fixed step for the black-box stencils of the oracles and the
        # identity suites; no configuration object carries a step
        assert autodiff.FD_STEP == 1e-5
        assert not hasattr(autodiff, "DiffConfig") and not hasattr(phwc_lab, "DiffConfig")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fd_step": 0.0},
            {"fd_step": -1e-5},
            {"fd_step": 1e-9},
            {"fd_step": 0.5},
            {"fd_step": 1e-5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # no run differentiates by a step, so a run configuration refuses one
        # at any value, the former default included
        with pytest.raises(ConfigError, match="unknown config keys: fd_step"):
            RunConfig.from_mapping({"scenario_id": "flat-holo", **kwargs})


class TestFirstDerivatives:
    def test_dual_exact(self):
        _, der = tensor_jet(expr, X)
        assert np.allclose(der[:, 0, 0], np.cos(X[:, 0]) * X[:, 1])
        assert np.allclose(der[:, 0, 1], np.sin(X[:, 0]))
        assert np.allclose(der[:, 1, 0], 2 * X[:, 0])
        assert np.allclose(der[:, 1, 1], np.exp(X[:, 1]))
        assert np.allclose(der[:, 2], 0.0)

    def test_modes_agree(self):
        # the dual jet against the default-step stencil of the value; the
        # bound assumes moderate third derivatives, so sample a tame region
        h = autodiff.FD_STEP
        Xt = np.array([[0.3, 0.7], [0.5, -0.4], [0.05, 0.6]])
        _, d_dual = tensor_jet(expr_hard, Xt)
        d_fd = field_partials(lambda p: tensor_value(expr_hard, p), Xt, h)
        assert np.max(np.abs(d_dual - d_fd)) < 10 * h**2

    def test_single_point(self):
        v, d = tensor_jet(expr, X[0])
        assert v.shape == (3,) and d.shape == (3, 2)

    def test_matrix_output(self):
        fn = lambda x: [[1.0, 0.0], [0.0, np.sin(x[0]) ** 2]]
        v, d = tensor_jet(fn, np.array([np.pi / 4, 0.0]))
        assert v.shape == (2, 2) and d.shape == (2, 2, 2)
        assert np.isclose(d[1, 1, 0], 1.0)  # d/dth sin^2 at pi/4


class TestSecondDerivatives:
    def test_nested_matches_central(self):
        # the Jet2 Hessian against the default-step stencil of the dual jet
        s_fd = field_partials(lambda p: tensor_jet(expr_hard, p)[1], X, autodiff.FD_STEP)
        _, _, s_nd = tensor_second(expr_hard, X)
        assert np.max(np.abs(s_fd - s_nd)) < 1e-7

    def test_nested_exact_values(self):
        _, _, s = tensor_second(expr, X)
        assert np.allclose(s[:, 0, 0, 0], -np.sin(X[:, 0]) * X[:, 1])
        assert np.allclose(s[:, 0, 0, 1], np.cos(X[:, 0]))
        assert np.allclose(s[:, 1, 1, 1], np.exp(X[:, 1]))

    def test_symmetry(self):
        _, _, s = tensor_second(expr_hard, X)
        assert np.allclose(s, np.swapaxes(s, -1, -2))


class TestDualAlgebra:
    def test_division_and_power(self):
        a = Dual(np.array([2.0]), np.array([[1.0]]))
        out = (1.0 / a) + a**3 - 2 * a
        # d/dx (1/x + x^3 - 2x) at 2 = -1/4 + 12 - 2
        assert np.isclose(out.b[0, 0], -0.25 + 12 - 2)

    def test_numpy_ufunc_dispatch(self):
        a = Dual(np.array([0.5]), np.array([[1.0]]))
        out = np.exp(np.sin(a)) / np.sqrt(a)
        f = lambda t: np.exp(np.sin(t)) / np.sqrt(t)
        h = 1e-7
        expect = (f(0.5 + h) - f(0.5 - h)) / (2 * h)
        assert np.isclose(out.b[0, 0], expect, atol=1e-6)

    def test_jet2_chain(self):
        a = Jet2(np.array([0.4]), np.array([[1.0]]), np.array([[[0.0]]]))
        out = np.cos(a * a)
        t = 0.4
        assert np.isclose(out.v[0], np.cos(t * t))
        assert np.isclose(out.g[0, 0], -np.sin(t * t) * 2 * t)
        assert np.isclose(out.h[0, 0, 0], -np.cos(t * t) * 4 * t * t - 2 * np.sin(t * t))

    def test_floor_zero_derivative(self):
        a = Dual(np.array([2.7]), np.array([[1.0]]))
        out = np.floor(a)
        assert out.a[0] == 2.0 and out.b[0, 0] == 0.0


# every unary ufunc an expression may apply to a Dual or a Jet2
UNARY_UFUNCS = (
    np.sin, np.cos, np.tan, np.exp, np.log, np.sqrt, np.sinh, np.cosh, np.tanh,
    np.arctan, np.arcsin, np.arccos, np.floor, np.square, np.negative, np.positive,
)
# points of two coordinates whose argument u = 0.2 + 0.3 x0 + 0.2 x0 x1 lies in
# (0.25, 0.75): inside the domain of every ufunc above, away from floor's jumps
U_POINTS = np.array([[0.3, 0.7], [1.1, -0.4], [0.5, 0.9], [0.8, 0.5]])


def _argument(x):
    return 0.2 + 0.3 * x[0] + 0.2 * x[0] * x[1]


def _dual_derivative(ufunc, x):
    n, m = x.shape
    coords = [Dual(x[:, i], np.broadcast_to(np.eye(m)[i], (n, m))) for i in range(m)]
    return ufunc(_argument(coords)).b


class TestDerivativeTable:
    """Dual and Jet2 differentiate every unary ufunc alike."""

    @pytest.mark.parametrize("ufunc", UNARY_UFUNCS, ids=lambda u: u.__name__)
    def test_dual_derivative_is_jet2_gradient(self, ufunc):
        n, m = U_POINTS.shape
        coords = [
            Jet2(U_POINTS[:, i], np.broadcast_to(np.eye(m)[i], (n, m)), np.zeros((n, m, m)))
            for i in range(m)
        ]
        jet = ufunc(_argument(coords))
        dual = ufunc(_argument([Dual(c.v, c.g) for c in coords]))
        assert np.allclose(jet.v, ufunc(_argument(U_POINTS.T)), rtol=1e-13, atol=0.0)
        assert np.allclose(dual.a, jet.v, rtol=1e-13, atol=0.0)
        assert np.allclose(dual.b, jet.g, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("ufunc", UNARY_UFUNCS, ids=lambda u: u.__name__)
    def test_jet2_hessian_is_central_difference_of_dual(self, ufunc):
        n, m = U_POINTS.shape
        coords = [Jet2(U_POINTS[:, i], np.broadcast_to(np.eye(m)[i], (n, m)), np.zeros((n, m, m)))
                  for i in range(m)]
        hess = ufunc(_argument(coords)).h
        h = 1e-5
        fd = np.stack(
            [(_dual_derivative(ufunc, U_POINTS + h * e) - _dual_derivative(ufunc, U_POINTS - h * e))
             / (2.0 * h) for e in np.eye(m)],
            axis=-1,
        )
        assert np.allclose(hess, fd, rtol=1e-7, atol=1e-8)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))

    def test_table_covers_the_tested_ufuncs_and_the_docstring_names_them(self):
        from phwc_lab import autodiff

        table = {*autodiff._DERIVATIVES, *autodiff._ARITHMETIC}
        assert {u for u in table if u.nin == 1} == set(UNARY_UFUNCS)
        for ufunc in table:
            assert re.search(rf"\b{ufunc.__name__}\b", autodiff.__doc__), ufunc.__name__


class TestFieldPartials:
    def test_matches_hand_derivative(self):
        f = lambda P: np.stack([P[:, 0] ** 3, P[:, 0] * P[:, 1]], axis=1)
        fp = field_partials(f, X, 1e-5)
        assert np.allclose(fp[:, 0, 0], 3 * X[:, 0] ** 2, atol=1e-8)
        assert np.allclose(fp[:, 1, 1], X[:, 0], atol=1e-10)

    def test_non_finite_raises(self):
        f = lambda P: np.full(len(P), np.nan)
        with pytest.raises(DifferentiationFailure):
            field_partials(f, X, 1e-5)


def _per_shift_partials(field, x, h):
    """Reference stencil: 2m separate field calls, one per shifted copy of x."""
    m = x.shape[1]
    out = None
    for i in range(m):
        step = np.zeros(m)
        step[i] = h
        vp = np.asarray(field(x + step), dtype=float)
        vm = np.asarray(field(x - step), dtype=float)
        if out is None:
            out = np.zeros(vp.shape + (m,))
        out[..., i] = (vp - vm) / (2.0 * h)
    return out


class TestStackedStencil:
    """A stencil is one field call on the 2m shifted copies, stacked shift-major."""

    def test_field_partials_equals_per_shift_loop(self):
        f = lambda P: np.stack([np.sin(P[:, 0]) * np.exp(P[:, 1]), P[:, 0] ** 3 / (1.0 + P[:, 1] ** 2)], axis=1)
        assert np.array_equal(field_partials(f, X, 1e-5), _per_shift_partials(f, X, 1e-5))

    def test_shift_major_order(self):
        seen = []
        field_partials(lambda P: seen.append(P.copy()) or P[:, 0], X, 1e-3)
        (P,) = seen
        want = [X + s * 1e-3 * np.eye(2)[i] for s in (1, -1) for i in range(2)]
        assert np.array_equal(P, np.concatenate(want))

    def test_one_field_call_per_field_partials(self):
        calls = []
        field_partials(lambda P: calls.append(len(P)) or np.sin(P), X, 1e-5)
        assert calls == [2 * 2 * len(X)]

    def test_unrepeated_per_point_data_is_refused(self):
        data = np.arange(len(X), dtype=float)
        with pytest.raises(DifferentiationFailure, match=r"expected 12 = 2m\*N rows \(m = 2, N = 3\)"):
            field_partials(lambda P: data, X, 1e-5)


def test_tensor_value_broadcasts_constants():
    out = tensor_value(lambda x: [1.0, np.array([3.0]), x[0]], X)
    assert out.shape == (3, 3)
    assert np.array_equal(out, np.stack([np.full(3, 1.0), np.full(3, 3.0), X[:, 0]], axis=1))


EVALUATORS = {"value": tensor_value, "dual": tensor_jet, "nested_dual": tensor_second}


class TestMalformedOutput:
    """Entries are scalars, (1,) or (N,); anything else is a DifferentiationFailure."""

    @pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS.keys())
    @pytest.mark.parametrize(
        "fn, message",
        [
            (lambda x: [x[0], np.ones((len(X), 1))], r"entry 1 has shape \(3, 1\)"),
            (lambda x: [x[0], np.ones(len(X) + 1)], r"entry 1 has shape \(4,\)"),
            (lambda x: [x[0] * np.ones((len(X), 1)), x[1]], r"entry 0 has shape \(3, 3\)"),
            (lambda x: [], r"output of shape \(0,\) has no entries"),
            (lambda x: [[], []], r"output of shape \(2, 0\) has no entries"),
        ],
        ids=["column", "row-count", "outer-product", "empty", "empty-nested"],
    )
    def test_raises_differentiation_failure(self, evaluate, fn, message):
        with pytest.raises(DifferentiationFailure, match=message):
            evaluate(fn, X)

    @pytest.mark.parametrize("evaluate", EVALUATORS.values(), ids=EVALUATORS.keys())
    def test_ragged_output(self, evaluate):
        with pytest.raises(DifferentiationFailure, match="ragged"):
            evaluate(lambda x: [[x[0], x[1]], [x[0]]], X)

    def test_malformed_output_exits_numerical_with_one_line(self, capsys, monkeypatch):
        from phwc_lab import cli
        from phwc_lab.scenarios import build_scenario

        M = build_scenario("flat-holo").domain
        monkeypatch.setattr(M, "metric_fn", lambda x: [[np.ones((len(x[0]), 1))] * M.dim] * M.dim)
        assert cli.main(["run", "--scenario", "flat-holo", "--checks", "energy"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "entry 0 has shape" in err[0]


# -- reference assembly: one np.broadcast_to per entry, recursive flatten ------


def _reference_flatten(out):
    if isinstance(out, (list, tuple)):
        flats, inner = [], None
        for item in out:
            s, f = _reference_flatten(item)
            inner = s if inner is None else inner
            assert s == inner
            flats.extend(f)
        return (len(out),) + inner, flats
    return (), [out]


def _reference_entry(entry, n):
    return np.broadcast_to(np.asarray(entry, dtype=float), (n,))


def _reference_value(fn, x):
    n, m = x.shape
    shape, flats = _reference_flatten(fn([x[:, i] for i in range(m)]))
    out = np.empty((n, len(flats)))
    for j, entry in enumerate(flats):
        out[:, j] = _reference_entry(entry, n)
    return out.reshape((n,) + shape)


def _reference_dual(fn, x):
    n, m = x.shape
    coords = []
    for i in range(m):
        b = np.zeros((n, m))
        b[:, i] = 1.0
        coords.append(Dual(x[:, i], b))
    shape, flats = _reference_flatten(fn(coords))
    val = np.empty((n, len(flats)))
    der = np.zeros((n, len(flats), m))
    for j, entry in enumerate(flats):
        if isinstance(entry, Dual):
            val[:, j] = entry.a
            der[:, j, :] = entry.b
        else:
            val[:, j] = _reference_entry(entry, n)
    return val.reshape((n,) + shape), der.reshape((n,) + shape + (m,))


def _reference_jet2(fn, x):
    n, m = x.shape
    coords = []
    for i in range(m):
        g = np.zeros((n, m))
        g[:, i] = 1.0
        coords.append(Jet2(x[:, i], g, np.zeros((n, m, m))))
    shape, flats = _reference_flatten(fn(coords))
    val = np.empty((n, len(flats)))
    der = np.zeros((n, len(flats), m))
    sec = np.zeros((n, len(flats), m, m))
    for j, entry in enumerate(flats):
        if isinstance(entry, Jet2):
            val[:, j] = entry.v
            der[:, j] = entry.g
            sec[:, j] = entry.h
        else:
            val[:, j] = _reference_entry(entry, n)
    return (
        val.reshape((n,) + shape),
        der.reshape((n,) + shape + (m,)),
        sec.reshape((n,) + shape + (m, m)),
    )


def _catalog_expressions(sid):
    """(name, expression, points) for a scenario's metrics, map and embeddings.

    Domain expressions run on the nodes of the domain's first node rule,
    codomain expressions on their images under the map.
    """
    from phwc_lab.scenarios import build_scenario

    sc = build_scenario(sid, validate=False)
    nodes = sc.domain.node_rules[0].nodes
    images = sc.map.value(nodes)
    out = [
        ("domain-metric", sc.domain.metric_fn, nodes),
        ("codomain-metric", sc.codomain.metric_fn, images),
        ("map", sc.map.expr, nodes),
    ]
    for name, chart, pts in (("domain-embedding", sc.domain, nodes), ("codomain-embedding", sc.codomain, images)):
        if chart.embedding is not None:
            out.append((name, chart.embedding, pts))
    return out


def _catalog_ids():
    from phwc_lab.scenarios import scenario_ids

    return scenario_ids()


def _reference_at(reference, fn, x):
    """A reference evaluator on a batch (N, m), or on one point (m,) without the batch axis."""
    out = reference(fn, np.atleast_2d(x))
    if x.ndim == 2:
        return out
    return out[0] if isinstance(out, np.ndarray) else tuple(a[0] for a in out)


@pytest.mark.parametrize("sid", _catalog_ids())
def test_assembly_equals_broadcast_reference(sid):
    """Column assignment writes the same bits as one np.broadcast_to per entry."""
    for name, fn, pts in _catalog_expressions(sid):
        for x in (pts, pts[0]):
            assert np.array_equal(tensor_value(fn, x), _reference_at(_reference_value, fn, x)), name
            for got, want in zip(tensor_jet(fn, x), _reference_at(_reference_dual, fn, x)):
                assert np.array_equal(got, want), name
            for got, want in zip(tensor_second(fn, x), _reference_at(_reference_jet2, fn, x)):
                assert np.array_equal(got, want), name
