"""Chart-manifold core: metrics, connection, musical maps, codifferential, quadrature."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phwc_lab
from oracles import divergence_two_tensor, divergence_vector_field
from phwc_lab import autodiff, geometry, maps
from phwc_lab.autodiff import field_partials, tensor_value
from phwc_lab.errors import DegenerateMetric, NonFiniteIntegrand, OutOfChart
from phwc_lab.geometry import (
    Box,
    ChartManifold,
    _cholesky_clears,
    codifferential_two_form,
    covariant_derivative_vector,
    gram_schmidt,
    torus_rules,
    two_form_norm2,
)
from phwc_lab import scenarios
from phwc_lab.report import RunConfig, report_json, run_checks, run_identities
from phwc_lab.scenarios import build_scenario, fs_chart, hopf_sphere_chart, scenario_ids

from conftest import sphere2_chart


def embedding_metric_oracle(chart, x, h=1e-6):
    """Independent oracle: J^T J with the embedding Jacobian by central differences."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    cols = []
    for i in range(m):
        step = np.zeros(m)
        step[i] = h
        ep = np.asarray([float(v) for v in chart.embedding([*(x + step)])])
        em = np.asarray([float(v) for v in chart.embedding([*(x - step)])])
        cols.append((ep - em) / (2 * h))
    J = np.stack(cols, axis=1)
    return J.T @ J


class TestMetric:
    def test_flat_identity(self, flat3):
        assert np.allclose(flat3.metric_at(np.zeros(3)), np.eye(3))

    def test_s2_equator(self, s2):
        g = s2.metric_at(np.array([np.pi / 2, 0.0]))
        assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-12)

    def test_s2_against_embedding_jacobian(self, s2):
        x = np.array([np.pi / 4, 0.0])
        g = s2.metric_at(x)
        assert np.allclose(g, np.diag([1.0, 0.5]), atol=1e-12)
        assert np.allclose(g, embedding_metric_oracle(s2, x), atol=1e-8)
        # a few more points
        for x in [(0.3, 1.2), (2.0, 4.4), (1.4, 0.1)]:
            assert np.allclose(
                s2.metric_at(np.array(x)), embedding_metric_oracle(s2, x), atol=1e-8
            )

    def test_out_of_chart(self, s2):
        with pytest.raises(OutOfChart):
            s2.metric_at(np.array([-0.1, 0.0]))

    def test_degenerate_metric(self):
        # x^2 dx^2 + dy^2 loses rank on the slice x = 0.  Beside it only the
        # coordinate factor x^2 is small: the Jacobi-scaled metric is I there,
        # so the guard passes x = 1e-9 (g = diag(1e-18, 1)), which a floor on
        # g's own eigenvalues rejected
        chart = ChartManifold(
            "pinched",
            lambda x: [[x[0] * x[0], 0.0], [0.0, 1.0]],
            Box((-1.0, -1.0), (1.0, 1.0)),
            quad_orders=4,
        )
        with pytest.raises(DegenerateMetric):
            chart.metric_at(np.array([0.0, 0.0]))
        chart.metric_at(np.array([1e-9, 0.0]))

    def test_volume_weight_matches_det(self, s2, rng):
        pts = s2.random_points(rng, 50)
        vw = s2.volume_weight(pts)
        det = np.linalg.det(s2.metric_at(pts, check=False))
        assert np.allclose(vw, np.sqrt(det), rtol=1e-12)


_EIGVALSH = np.linalg.eigvalsh
# a fixed rotation, so that Q diag(x) Q^T is not diagonal
_Q = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))[0]


def eigenvalue_chart():
    """A chart whose metric at x is Q diag(x) Q^T: its eigenvalues are the coordinates."""

    def metric(x):
        return [[sum(_Q[i, k] * _Q[j, k] * x[k] for k in range(3)) for j in range(3)] for i in range(3)]

    return ChartManifold("eigen", metric, Box((-10.0,) * 3, (10.0,) * 3), quad_orders=2)


def _exact_message(chart, x):
    """The DegenerateMetric message of the exact test over every matrix at x:
    the smallest eigenvalue of the Jacobi-scaled D^-1/2 g D^-1/2, or of g
    itself where its diagonal D is not positive."""
    g = np.reshape(chart.metric_at(x, check=False), (-1, 3, 3))
    d = np.diagonal(g, axis1=1, axis2=2)
    s = np.where(np.all(d > 0, axis=1, keepdims=True), 1.0 / np.sqrt(np.abs(d)), 1.0)
    w = np.min(_EIGVALSH(s[:, :, None] * g * s[:, None, :]))
    return f"metric on {chart.name!r} has min eigenvalue {w:.3e}"


class TestNondegeneracyGuard:
    """The guard clears a metric from a Cholesky factor or runs eigvalsh on it."""

    @pytest.fixture
    def exact_rows(self, monkeypatch):
        """The number of matrices of each call the guard hands to eigvalsh."""
        rows = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or _EIGVALSH(a))
        return rows

    def test_indefinite_with_positive_determinant_and_trace_raises(self, exact_rows):
        # det 5 and trace 3: AM-GM alone would bound lambda_min by 2.2
        chart, x = eigenvalue_chart(), np.array([-1.0, -1.0, 5.0])
        assert not _cholesky_clears(chart.metric_at(x, check=False)[None], 1e-12)[0]
        with pytest.raises(DegenerateMetric, match="min eigenvalue -1.000e"):
            chart.metric_at(x)
        assert exact_rows == [1]

    def test_just_below_the_guard_raises_with_the_exact_message(self, exact_rows):
        chart, x = eigenvalue_chart(), np.array([5e-13, 1.0, 2.0])
        message = _exact_message(chart, x)
        for guarded in (lambda: chart.metric_at(x), lambda: chart.sharp(x, np.ones(3))):
            with pytest.raises(DegenerateMetric) as err:
                guarded()
            assert str(err.value) == message
        assert exact_rows == [1, 1]

    def test_just_above_the_guard_passes_through_the_exact_test(self, exact_rows):
        chart = eigenvalue_chart()
        chart.metric_at(np.array([1e-11, 1.0, 2.0]))
        assert exact_rows == [1]

    def test_a_well_conditioned_batch_is_cleared(self, exact_rows, rng):
        chart = eigenvalue_chart()
        chart.metric_at(rng.uniform(0.1, 3.0, size=(20, 3)))
        chart.sharp(rng.uniform(0.1, 3.0, size=(20, 3)), np.ones(3))
        assert exact_rows == []

    def test_one_bad_matrix_in_a_batch_raises(self, exact_rows, rng):
        # eigenvalues (1, 5e-14, 2): 4.0e-13 after Jacobi scaling in this frame
        # ((1, 5e-13, 2) scales to 4.0e-12, above the guard)
        chart = eigenvalue_chart()
        x = rng.uniform(0.1, 3.0, size=(10, 3))
        x[6] = (1.0, 5e-14, 2.0)
        with pytest.raises(DegenerateMetric) as err:
            chart.metric_at(x)
        assert str(err.value) == _exact_message(chart, x)
        assert exact_rows == [1]  # the other nine are cleared

    def test_a_batch_without_a_cholesky_factor_goes_wholly_to_the_exact_test(
        self, exact_rows, rng
    ):
        chart = eigenvalue_chart()
        x = rng.uniform(0.1, 3.0, size=(10, 3))
        x[3] = (-1.0, -1.0, 5.0)
        with pytest.raises(DegenerateMetric) as err:
            chart.metric_at(x)
        assert str(err.value) == _exact_message(chart, x)
        assert exact_rows == [10]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_a_cleared_matrix_is_above_its_floor(self, k):
        # eigenvalues log-uniform over 16 decades, in random orthonormal frames
        rng = np.random.default_rng(k)
        lam = 10.0 ** rng.uniform(-14, 2, size=(4000, k))
        Q = np.linalg.qr(rng.normal(size=(4000, k, k)))[0]
        a = np.einsum("nik,nk,njk->nij", Q, lam, Q)
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        w, tr = _EIGVALSH(a)[:, 0], np.trace(a, axis1=-2, axis2=-1)
        for floor in (1e-12, 1e-16 * tr):
            cleared = _cholesky_clears(a, floor)
            assert cleared.any()
            assert np.all(w[cleared] >= 100 * (1 - 1e-6) * np.broadcast_to(floor, w.shape)[cleared])
            assert np.all(w[cleared] >= 1e-10 * (1 - 1e-6) * tr[cleared])
        assert not _cholesky_clears(a, 1e-12).all()


    def test_a_diagonal_rescaling_moves_no_verdict(self):
        # the guard reads D^-1/2 g D^-1/2, which a rescaling of the coordinates
        # leaves as it is: a well-conditioned metric with a factor 1e-8 on one
        # axis passes, one with rank loss raises at every scale
        chart = eigenvalue_chart()
        for lam, degenerate in (((0.5, 1.0, 2.0), False), ((5e-14, 1.0, 2.0), True)):
            g = chart.metric_at(np.array(lam), check=False)
            for c in (1.0, 1e-4, 1e-8):
                D = np.diag([c, 1.0, 1.0])
                scaled = ChartManifold("scaled", lambda x, a=(D @ g @ D).tolist(): a, chart.box)
                if degenerate:
                    with pytest.raises(DegenerateMetric):
                        scaled.metric_at(np.zeros(3))
                else:
                    scaled.metric_at(np.zeros(3))

    @pytest.mark.parametrize("order", [16, 20])
    def test_hopf_s7_node_checks_at_high_orders(self, order):
        # at orders 16 and 20 the torus rule's polar nodes come within 3e-13
        # and 2.5e-14 of g's eigenvalues to 0 through the coordinate factors
        # s_k^2 alone; the Jacobi-scaled metric stays near I
        cfg = RunConfig(
            "hopf-s7", quadrature_order=order, seed=1,
            checks=("phwc", "tension", "energy", "criticality"),
        )
        assert run_checks(cfg)["all_verdicts_match"]


def _clears_nothing(a, floor):
    return np.zeros(len(a), dtype=bool)


def _guarded_outputs(monkeypatch):
    """The hopf-s5 hessian body, every hopf-s3 check body and the flat-holo and
    hopf-s3 identity tables, from newly built scenarios and an empty memo."""
    monkeypatch.setattr(scenarios, "_CACHE", {})
    autodiff._memo_clear()
    out = [report_json(run_checks(RunConfig("hopf-s5", checks=("hessian",), hessian_generators=0, seed=1)))]
    out.append(report_json(run_checks(RunConfig("hopf-s3", seed=1))))
    out += [json.dumps(run_identities(sid, n_points=100, seed=1)) for sid in ("flat-holo", "hopf-s3")]
    return out


def _spy_guards(monkeypatch):
    """The names of the functions that call numpy.linalg.svd or eigvalsh from now on."""
    callers = []
    for name in ("svd", "eigvalsh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return callers


GUARDS = {"_require_nondegenerate", "_submersion_jet"}


def test_what_the_cholesky_factor_clears_moves_no_output(monkeypatch):
    default = _guarded_outputs(monkeypatch)
    monkeypatch.setattr(geometry, "_cholesky_clears", _clears_nothing)
    monkeypatch.setattr(maps, "_cholesky_clears", _clears_nothing)
    callers = _spy_guards(monkeypatch)
    exact = _guarded_outputs(monkeypatch)
    assert GUARDS <= set(callers)  # every guard ran its exact test
    assert exact == default


def test_the_guards_decompose_nothing_in_the_hopf_s5_hessian_check(monkeypatch):
    cfg = RunConfig("hopf-s5", checks=("hessian",), hessian_generators=0, seed=1)
    build_scenario(cfg.scenario_id)
    callers = _spy_guards(monkeypatch)
    run_checks(cfg)
    assert not GUARDS & set(callers)


class TestChristoffel:
    def test_flat_zero(self, flat3, rng):
        pts = flat3.random_points(rng, 10)
        assert np.allclose(flat3.christoffel_at(pts), 0.0, atol=1e-14)

    def test_s2_hand_computed(self, s2):
        # symbolic Christoffels of diag(1, sin^2): G^th_phph = -sin cos, G^ph_thph = cot
        x = np.array([np.pi / 2, 0.0])
        gam = s2.christoffel_at(x)
        assert abs(gam[0, 1, 1] - 0.0) < 1e-9
        assert abs(gam[1, 0, 1] - 0.0) < 1e-9
        x = np.array([np.pi / 4, 0.0])
        gam = s2.christoffel_at(x)
        assert abs(gam[0, 1, 1] - (-0.5)) < 1e-9
        assert abs(gam[1, 0, 1] - 1.0) < 1e-9  # cot(pi/4) = 1

    def test_symmetry_at_random_points(self, s2, rng):
        pts = s2.random_points(rng, 100)
        gam = s2.christoffel_at(pts)
        assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-9

    def test_dual_vs_fd_modes(self, rng):
        # the dual metric jet against the fixed-step stencil of the metric value
        s2 = sphere2_chart(quad_orders=4)
        pts = s2.random_points(rng, 20)
        h = autodiff.FD_STEP
        gf = field_partials(lambda p: tensor_value(s2.metric_fn, p), pts, h)
        assert np.max(np.abs(s2.metric_jet(pts)[1] - gf)) < 10 * h**2

    def test_metric_compatibility(self, s2, rng):
        # directional derivative of g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)
        pts = s2.random_points(rng, 30)
        Y = lambda p: np.stack([np.sin(p[:, 1]), np.cos(p[:, 0])], axis=1)
        Z = lambda p: np.stack([p[:, 0] * 0 + 1.0, p[:, 0] * p[:, 1]], axis=1)
        X = lambda p: np.stack([np.cos(p[:, 1]), p[:, 0] * 0 + 0.5], axis=1)
        h = 1e-6
        Xv = X(pts)
        gYZ = lambda p: np.einsum(
            "nij,ni,nj->n", s2.metric_at(p, check=False), Y(p), Z(p)
        )
        dirder = np.zeros(len(pts))
        for i in range(2):
            step = np.zeros(2)
            step[i] = h
            dirder += Xv[:, i] * (gYZ(pts + step) - gYZ(pts - step)) / (2 * h)
        nXY = covariant_derivative_vector(s2, X, Y, pts)
        nXZ = covariant_derivative_vector(s2, X, Z, pts)
        g = s2.metric_at(pts, check=False)
        rhs = np.einsum("nij,ni,nj->n", g, nXY, Z(pts)) + np.einsum(
            "nij,ni,nj->n", g, Y(pts), nXZ
        )
        assert np.max(np.abs(dirder - rhs)) < 1e-6


class TestCovariantDerivative:
    def test_flat_constant_fields(self, flat2, rng):
        pts = flat2.random_points(rng, 5)
        X = lambda p: np.tile([1.0, 2.0], (len(p), 1))
        out = covariant_derivative_vector(flat2, X, X, pts)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_coordinate_field_flat(self, flat3, rng):
        pts = flat3.random_points(rng, 5)
        e1 = lambda p: np.tile([0.0, 1.0, 0.0], (len(p), 1))
        assert np.allclose(covariant_derivative_vector(flat3, e1, e1, pts), 0.0, atol=1e-9)

    def test_s2_dphi_dphi(self, s2):
        # nabla_{d_phi} d_phi = Gamma^th_phph d_th = -sin cos d_th
        x = np.array([np.pi / 4, 0.0])
        dphi = lambda p: np.tile([0.0, 1.0], (len(p), 1))
        out = covariant_derivative_vector(s2, dphi, dphi, x)
        assert np.allclose(out, [-0.5, 0.0], atol=1e-9)


class TestMusical:
    def test_flat_sharp_identity(self, flat2, rng):
        pts = flat2.random_points(rng, 4)
        w = rng.normal(size=(4, 2))
        assert np.allclose(flat2.sharp(pts, w), w)

    def test_s2_sharp_value(self, s2):
        out = s2.sharp(np.array([np.pi / 4, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 2.0], atol=1e-12)

    def test_round_trip(self, s2, rng):
        pts = s2.random_points(rng, 20)
        w = rng.normal(size=(20, 2))
        back = s2.flat(pts, s2.sharp(pts, w))
        assert np.allclose(back, w, atol=1e-12)


class TestCodifferential:
    def test_constant_form_flat(self, flat3, rng):
        pts = flat3.random_points(rng, 6)
        w0 = np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 2.0], [0.5, -2.0, 0.0]])
        omega = lambda p: np.tile(w0, (len(p), 1, 1))
        out = codifferential_two_form(flat3, omega, pts)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_x1_dx1_wedge_dx2(self, flat2, rng):
        # w = x^1 dx^1 ^ dx^2 on flat R^2: delta w = -dx^2, hand computation
        def omega(p):
            out = np.zeros((len(p), 2, 2))
            out[:, 0, 1] = p[:, 0]
            out[:, 1, 0] = -p[:, 0]
            return out

        pts = flat2.random_points(rng, 6)
        out = codifferential_two_form(flat2, omega, pts)
        expect = np.tile([0.0, -1.0], (6, 1))
        assert np.allclose(out, expect, atol=1e-9)

    def test_frame_independence(self, s2, rng):
        def omega(p):
            out = np.zeros((len(p), 2, 2))
            val = np.sin(p[:, 0]) * np.cos(p[:, 1])
            out[:, 0, 1] = val
            out[:, 1, 0] = -val
            return out

        pts = s2.random_points(rng, 20)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        a = codifferential_two_form(s2, omega, pts)
        b = codifferential_two_form(s2, omega, pts, rotation=rot)
        assert np.max(np.abs(a - b)) < 1e-9


class TestIntegration:
    def test_sphere_area(self, s2):
        area = s2.integrate(lambda p: np.ones(len(p)))
        assert abs(area - 4 * np.pi) / (4 * np.pi) < 1e-3
        # refinement oracle: doubling the order does not move the value
        fine = sphere2_chart(quad_orders=48)
        area_fine = fine.integrate(lambda p: np.ones(len(p)))
        assert abs(area - area_fine) / area_fine < 1e-3

    def test_zero_integrand(self, s2):
        assert s2.integrate(lambda p: np.zeros(len(p))) == 0.0

    def test_linearity_on_fixed_nodes(self, s2, rng):
        nodes = s2.quadrature.nodes
        f = np.sin(nodes[:, 0]) + nodes[:, 1]
        g = np.cos(nodes[:, 1]) ** 2
        a, b = 2.3, -0.7
        lhs = s2.integrate(a * f + b * g)
        rhs = a * s2.integrate(f) + b * s2.integrate(g)
        scale = abs(a) * s2.integrate(np.abs(f)) + abs(b) * s2.integrate(np.abs(g))
        assert abs(lhs - rhs) < 1e-12 * scale

    def test_non_finite_integrand(self, s2):
        with pytest.raises(NonFiniteIntegrand):
            s2.integrate(lambda p: np.full(len(p), np.nan))

    def test_total_measure_cached(self, s2):
        assert abs(s2.quadrature.total_measure - 4 * np.pi) / (4 * np.pi) < 1e-3

    # fs_chart remaps its infinite axes through axis_maps
    CHARTS = {
        "S5": lambda order: hopf_sphere_chart(2, order),
        "CP1": lambda order: fs_chart(1, order),
    }

    @pytest.mark.parametrize("chart, orders", [("S5", 4), ("CP1", 6), ("CP1", [3, 5])])
    @pytest.mark.parametrize("offsets", [None, 0.5])
    def test_rule_orders_match_a_chart_built_at_them(self, chart, orders, offsets):
        build = self.CHARTS[chart]
        got = build(8).rule(orders=orders, offsets=offsets)
        want = build(orders).rule(offsets=offsets)
        for attr in ("nodes", "weights", "density"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        assert got.total_measure == want.total_measure


class TestTorusRule:
    """Gauss-Legendre on the polar axes, one node per theta axis."""

    # n -> (catalog polar order, bound on |total_measure / vol - 1|); measured
    # gaps 7.2e-16, 5.2e-10 and 4.0e-4
    CATALOG = {1: (24, 1e-13), 2: (6, 1e-9), 3: (5, 1e-3)}

    @pytest.mark.parametrize("n", sorted(CATALOG))
    def test_total_measure_is_the_sphere_volume(self, n):
        order, bound = self.CATALOG[n]
        M = hopf_sphere_chart(n, order)
        vol = 2 * np.pi ** (n + 1) / math.factorial(n)
        for rule in torus_rules(M):
            assert len(rule.nodes) == order**n
            assert abs(rule.total_measure / vol - 1) < bound
            # the volume density does not depend on theta
            full = M.quadrature.total_measure
            assert abs(rule.total_measure - full) <= 1e-12 * full

    def test_nodes_and_weights(self):
        M = hopf_sphere_chart(2, 4)
        rule = M.rule(offsets=[0.0, 0.25, 0.5])
        assert np.array_equal(np.unique(rule.nodes[:, :2]), np.unique(M.quadrature.nodes[:, :2]))
        assert np.array_equal(rule.nodes[:, 2:], np.tile([0.0, 0.5 * np.pi, np.pi], (16, 1)))
        polar = M.quadrature.weights.reshape(16, 64).sum(axis=1)
        assert np.allclose(rule.weights, polar, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", sorted(CATALOG))
    def test_the_check_rules_are_off_the_reeb_diagonal(self, n):
        # a function of theta_j - theta_k is invariant under the Reeb flow,
        # which shifts every theta alike, but not under the torus: the two
        # rules of the hessian check must tell it apart for every pair
        M = hopf_sphere_chart(n, 3)
        first, second = torus_rules(M)
        for j in range(n + 1):
            for k in range(j + 1, n + 1):
                f = lambda x: np.cos(x[:, n + j] - x[:, n + k])
                a, b = M.integrate(f, rule=first), M.integrate(f, rule=second)
                assert abs(a - b) > 0.1 * M.quadrature.total_measure


class TestGaussLegendre:
    """numpy's Gauss-Legendre rule, computed without importing numpy.polynomial."""

    def test_bitwise_numpy(self):
        import numpy.polynomial.legendre as legendre

        for order in range(1, 65):
            t, w = geometry._leggauss(order)
            want_t, want_w = legendre.leggauss(order)
            assert t.tobytes() == want_t.tobytes(), order
            assert w.tobytes() == want_w.tobytes(), order

    def test_a_build_does_not_import_numpy_polynomial(self):
        code = (
            "import sys; from phwc_lab.scenarios import build_scenario; "
            "build_scenario('hopf-s5'); print('numpy.polynomial' in sys.modules)"
        )
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(phwc_lab.__file__).parents[1])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]


class TestLazyRules:
    """The full rule is built on first use; the node rules once per chart."""

    def test_gauss_legendre_once_per_order(self, monkeypatch):
        calls = []
        real = geometry._gauss_legendre
        monkeypatch.setattr(
            geometry, "_gauss_legendre", lambda order: calls.append(order) or real(order)
        )
        geometry._leggauss.cache_clear()
        M = hopf_sphere_chart(2, 4)
        first = M.rule(offsets=[0.0, 0.25, 0.5])
        assert calls == [4]
        second = M.rule(offsets=[0.0, 0.25, 0.5])
        assert calls == [4]
        for key in ("nodes", "weights", "density"):
            assert np.array_equal(getattr(first, key), getattr(second, key))
        t, w = geometry._leggauss(4)
        assert not t.flags.writeable and not w.flags.writeable

    def test_quadrature_on_first_use(self):
        M = hopf_sphere_chart(2, 4)
        assert "quadrature" not in vars(M)
        rule, want = M.quadrature, M.rule()
        assert M.quadrature is rule
        for key in ("nodes", "weights", "density"):
            assert np.array_equal(getattr(rule, key), getattr(want, key))
        assert rule.total_measure == want.total_measure

    def test_node_rules(self, flat2):
        M = hopf_sphere_chart(2, 4)
        rules = M.node_rules
        assert M.node_rules is rules and "quadrature" not in vars(M)
        for got, want in zip(rules, torus_rules(M), strict=True):
            assert np.array_equal(got.nodes, want.nodes)
            assert np.array_equal(got.weights * got.density, want.weights * want.density)
        assert flat2.node_rules == [flat2.quadrature]

    @pytest.mark.parametrize("sid", scenario_ids())
    def test_no_full_rule_where_nothing_integrates(self, sid, monkeypatch):
        # every check and the identity suites read the node rules, the torus
        # rules of the hessian check or a rule of their own order
        monkeypatch.setattr(scenarios, "_CACHE", {})
        sc = build_scenario(sid)
        run_checks(RunConfig(scenario_id=sid))
        run_identities(sid)
        assert build_scenario(sid) is sc
        assert "quadrature" not in vars(sc.codomain)
        if sc.domain.box.periodic:
            assert "quadrature" not in vars(sc.domain)
        else:
            # flat-holo's node rule is its full rule
            assert "quadrature" in vars(sc.domain)


class TestDivergence:
    def test_constant_field(self, flat2, rng):
        pts = flat2.random_points(rng, 5)
        X = lambda p: np.tile([3.0, -1.0], (len(p), 1))
        assert np.allclose(divergence_vector_field(flat2, X, pts), 0.0, atol=1e-9)

    def test_radial_field_r3(self, flat3, rng):
        pts = flat3.random_points(rng, 5)
        X = lambda p: p
        assert np.allclose(divergence_vector_field(flat3, X, pts), 3.0, atol=1e-9)

    def test_metric_is_parallel(self, s2, rng):
        pts = s2.random_points(rng, 10)
        T = lambda p: s2.metric_at(p, check=False)
        out = divergence_two_tensor(s2, T, pts)
        assert np.max(np.abs(out)) < 1e-8


class TestFrames:
    def test_gram_schmidt_orthonormal(self, s2, rng):
        pts = s2.random_points(rng, 10)
        E = s2.frame_at(pts)
        g = s2.metric_at(pts, check=False)
        gram = np.einsum("nia,nij,njb->nab", E, g, E)
        assert np.allclose(gram, np.eye(2), atol=1e-12)

    def test_gram_schmidt_general(self, rng):
        g = np.eye(3) + 0.1 * np.ones((3, 3))
        vecs = rng.normal(size=(3, 3))
        E = gram_schmidt(vecs[None], g[None])[0]
        assert np.allclose(E.T @ g @ E, np.eye(3), atol=1e-12)


class TestTwoFormNorm:
    def test_flat_convention(self, flat3):
        w = np.zeros((3, 3))
        w[0, 1], w[1, 0] = 1.0, -1.0
        w[1, 2], w[2, 1] = 2.0, -2.0
        val = two_form_norm2(flat3, np.zeros(3), w)
        assert np.isclose(val, 1.0 + 4.0)  # sum over a<b of squares
