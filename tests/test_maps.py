"""Map calculus: jets, adjoint, tension, pullbacks, fibre geometry."""

import sys

import numpy as np
import pytest

from oracles import second_fundamental_form
from phwc_lab import autodiff
from phwc_lab.autodiff import field_partials
from phwc_lab.errors import RankDeficient
from phwc_lab.geometry import Box, ChartManifold, TangentVector, gram_schmidt, metric_norms
from phwc_lab.maps import (
    SVD_RANK_RTOL,
    SmoothMap,
    _energy_density_partials,
    _log_dilation_partials,
    _projector_partials,
    _pullback_metric_jet,
    _submersion_jet,
    adjoint_differential,
    dilation_hwc,
    energy_density,
    fibre_splitting,
    horizontal_lift,
    horizontal_projector,
    mean_curvature_fibres,
    nabla_pullback_metric,
    pullback_metric,
    second_fundamental_form_tensor,
    stress_energy_residual,
    tension_field_direct,
)
from phwc_lab.scenarios import build_scenario, flat_chart, scenario_ids
from phwc_lab.structures import f_div_f, induced_f_structure
from phwc_lab.variational import semiconformal_criticality

from conftest import sphere2_chart


@pytest.fixture(scope="module")
def hopf():
    return build_scenario("hopf-s3", quad_order=8, validate=False)


@pytest.fixture(scope="module")
def hopf_pts(hopf):
    rng = np.random.default_rng(0)
    return hopf.domain.random_points(rng, 100, margin=0.03)


class TestAdjoint:
    def test_flat_isometry_inverse(self, rng):
        dom = flat_chart(2, name="dom2")
        cod = flat_chart(2, half=2.0, name="cod2")
        th = 0.6
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        phi = SmoothMap("rot", dom, cod, lambda x: [R[0, 0] * x[0] + R[0, 1] * x[1],
                                                    R[1, 0] * x[0] + R[1, 1] * x[1]])
        pts = dom.random_points(rng, 5)
        adj = adjoint_differential(phi, pts)
        assert np.allclose(adj, np.linalg.inv(R), atol=1e-12)

    def test_hopf_submersion_identity(self, hopf, hopf_pts):
        jet = hopf.map.jet(hopf_pts)
        adj = adjoint_differential(hopf.map, hopf_pts)
        q = jet.dphi @ adj
        assert np.max(np.abs(q - np.eye(2))) < 1e-9

    def test_constant_map_zero(self, rng):
        dom = flat_chart(2)
        cod = flat_chart(2, half=2.0)
        phi = SmoothMap("const", dom, cod, lambda x: [0.3, 0.1 + 0.0 * x[0]])
        adj = adjoint_differential(phi, dom.random_points(rng, 4))
        assert np.allclose(adj, 0.0)

    def test_algebraic_identity(self, hopf, hopf_pts, rng):
        # g(X, dphi^t E) = h(dphi X, E) exactly
        jet = hopf.map.jet(hopf_pts)
        adj = adjoint_differential(hopf.map, hopf_pts)
        X = rng.normal(size=(len(hopf_pts), 3))
        E = rng.normal(size=(len(hopf_pts), 2))
        g = hopf.domain.metric_at(hopf_pts, check=False)
        h = hopf.codomain.metric_at(jet.y, check=False)
        lhs = np.einsum("ni,nij,nja,na->n", X, g, adj, E)
        rhs = np.einsum("nai,ni,nab,nb->n", jet.dphi, X, h, E)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSecondFundamentalForm:
    def test_linear_map_flat(self, rng):
        dom = flat_chart(3)
        cod = flat_chart(2, half=3.0)
        phi = SmoothMap("lin", dom, cod, lambda x: [x[0] + 0.5 * x[1], x[2] - x[0]])
        nd = second_fundamental_form_tensor(phi, dom.random_points(rng, 5))
        assert np.max(np.abs(nd)) < 1e-9

    def test_identity_map(self, rng):
        s2 = sphere2_chart(quad_orders=6)
        phi = SmoothMap("id", s2, s2, lambda x: [x[0], x[1]])
        nd = second_fundamental_form_tensor(phi, s2.random_points(rng, 10))
        assert np.max(np.abs(nd)) < 1e-8

    def test_symmetry_in_xy(self, hopf, hopf_pts, rng):
        nd = second_fundamental_form_tensor(hopf.map, hopf_pts)
        assert np.max(np.abs(nd - np.swapaxes(nd, -1, -2))) < 1e-6

    def test_vector_contraction(self, hopf, rng):
        x = hopf.domain.random_points(rng, 1)[0]
        X = TangentVector(x, rng.normal(size=3))
        Y = TangentVector(x, rng.normal(size=3))
        out = second_fundamental_form(hopf.map, X, Y)
        nd = second_fundamental_form_tensor(hopf.map, x)
        expect = np.einsum("gij,i,j->g", nd, X.components, Y.components)
        assert np.allclose(out, expect)

    def test_richardson_step_halving(self, hopf, rng, monkeypatch, cold_memo):
        # nabla dphi reads phi's exact second jet and the Christoffel symbols
        # of the metric jets: halving the stencil step moves no bit of it
        # (the memo is emptied in between, so no evaluation is shared)
        x = hopf.domain.random_points(rng, 20, margin=0.1)
        nds = []
        for step in (1e-4, 5e-5):
            monkeypatch.setattr(autodiff, "FD_STEP", step)
            cold_memo._memo_clear()
            nds.append(second_fundamental_form_tensor(hopf.map, x))
        assert np.max(np.abs(nds[0])) > 0.1
        assert np.array_equal(nds[0], nds[1])


class TestTension:
    def test_identity_map_harmonic(self, rng):
        s2 = sphere2_chart(quad_orders=6)
        phi = SmoothMap("id", s2, s2, lambda x: [x[0], x[1]])
        tau = tension_field_direct(phi, s2.random_points(rng, 10))
        assert np.max(np.abs(tau)) < 1e-8

    def test_hopf_harmonic(self, hopf, hopf_pts):
        tau = tension_field_direct(hopf.map, hopf_pts)
        y = hopf.map.value(hopf_pts)
        h = hopf.codomain.metric_at(y, check=False)
        norms = np.sqrt(np.einsum("na,nab,nb->n", tau, h, tau))
        assert np.max(norms) < 1e-5

    def test_one_dimensional_second_derivative(self):
        dom = flat_chart(1)
        cod = flat_chart(1, half=2.0)
        phi = SmoothMap("sq", dom, cod, lambda x: [x[0] ** 2])
        tau = tension_field_direct(phi, np.array([[0.3]]))
        assert np.allclose(tau, 2.0, atol=1e-9)

    def test_stress_energy_identity(self, hopf, hopf_pts, rng):
        Z = rng.normal(size=hopf_pts.shape)
        resid = stress_energy_residual(hopf.map, hopf_pts, Z=Z)
        assert np.max(resid) < 1e-4


class TestPullbackMetric:
    def test_isometric_immersion(self, rng):
        s2 = sphere2_chart(quad_orders=6)
        phi = SmoothMap("id", s2, s2, lambda x: [x[0], x[1]])
        pts = s2.random_points(rng, 10)
        assert np.allclose(pullback_metric(phi, pts), s2.metric_at(pts, check=False), atol=1e-12)

    def test_constant_map(self, rng):
        dom = flat_chart(2)
        cod = flat_chart(2, half=2.0)
        phi = SmoothMap("const", dom, cod, lambda x: [0.2, 0.1 + 0.0 * x[0]])
        pts = dom.random_points(rng, 5)
        assert np.allclose(pullback_metric(phi, pts), 0.0)
        X = TangentVector(pts, rng.normal(size=pts.shape))
        assert np.allclose(nabla_pullback_metric(phi, X, X, X), 0.0, atol=1e-10)

    def test_lemma_two_sided(self, hopf, hopf_pts, rng):
        X, Y, Z = (TangentVector(hopf_pts, rng.normal(size=hopf_pts.shape)) for _ in range(3))
        lhs = nabla_pullback_metric(hopf.map, X, Y, Z, direct=True)
        rhs = nabla_pullback_metric(hopf.map, X, Y, Z, direct=False)
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestFibreGeometry:
    def test_hopf_splitting(self, hopf, rng):
        x = hopf.domain.random_points(rng, 1)[0]
        split = fibre_splitting(hopf.map, x)
        assert split.rank == 2
        assert split.vertical.shape == (3, 1)
        jet = hopf.map.jet(x)
        assert np.max(np.abs(jet.dphi @ split.vertical)) < 1e-9
        # kernel is the Reeb direction
        xi = hopf.contact.xi_at(x)
        g = hopf.domain.metric_at(x, check=False)
        inner = split.vertical[:, 0] @ g @ xi
        assert abs(abs(inner) - 1.0) < 1e-9

    @pytest.mark.parametrize("sid", scenario_ids())
    def test_splitting_frame_is_the_chart_frame(self, sid, monkeypatch):
        # the frame E comes from the metric fibre_splitting already holds
        from phwc_lab import maps

        sc = build_scenario(sid, validate=False)
        frames = []
        real = maps.gram_schmidt
        monkeypatch.setattr(maps, "gram_schmidt", lambda v, g: frames.append(real(v, g)) or frames[-1])
        for x in sc.domain.node_rules[0].nodes[:3]:
            frames.clear()
            fibre_splitting(sc.map, x)
            assert np.array_equal(frames[0], sc.domain.frame_at(x))

    def test_identity_and_constant_ranks(self, rng):
        dom = flat_chart(2)
        phi_id = SmoothMap("id", dom, flat_chart(2, half=2.0), lambda x: [x[0], x[1]])
        split = fibre_splitting(phi_id, np.zeros(2))
        assert split.rank == 2 and split.vertical.shape[1] == 0
        phi_const = SmoothMap("const", dom, flat_chart(2, half=2.0), lambda x: [0.1, 0.2 + 0.0 * x[0]])
        split = fibre_splitting(phi_const, np.zeros(2))
        assert split.rank == 0 and split.vertical.shape[1] == 2

    def test_require_rank(self, rng):
        dom = flat_chart(2)
        phi_const = SmoothMap("const", dom, flat_chart(2, half=2.0), lambda x: [0.1, 0.2 + 0.0 * x[0]])
        with pytest.raises(RankDeficient):
            fibre_splitting(phi_const, np.zeros(2), require_rank=2)

    def test_projectors(self, hopf, hopf_pts):
        ph = horizontal_projector(hopf.map, hopf_pts)
        pv = np.eye(3) - ph
        xi = hopf.contact.xi_at(hopf_pts)
        assert np.max(np.abs(np.einsum("nij,nj->ni", pv, xi) - xi)) < 1e-9
        assert np.max(np.abs(ph @ ph - ph)) < 1e-9

    def test_horizontal_lift_inverts(self, hopf, hopf_pts, rng):
        E = rng.normal(size=(len(hopf_pts), 2))
        X = horizontal_lift(hopf.map, hopf_pts, E)
        jet = hopf.map.jet(hopf_pts)
        assert np.max(np.abs(np.einsum("nai,ni->na", jet.dphi, X) - E)) < 1e-9



_SVD = np.linalg.svd


def rotated_map(angle=0.3):
    """R^3 -> R^2, x -> R(angle) (x0, x1 x2): singular values 1 and |(x1, x2)|.

    The rotation makes dphi dphi^T a full matrix; angle 0 keeps it diagonal,
    so a zero (x1, x2) gives it an exact zero pivot.
    """
    c, s = np.cos(angle), np.sin(angle)
    return SmoothMap(
        "rot",
        flat_chart(3, half=2.0),
        flat_chart(2, half=10.0),
        lambda x: [c * x[0] - s * x[1] * x[2], s * x[0] + c * x[1] * x[2]],
    )


class TestSubmersionGuard:
    """The guard clears dphi from a Cholesky factor of dphi dphi^T or runs an SVD on it."""

    MESSAGE = "map 'rot' is not submersive at the given point(s)"

    @pytest.fixture
    def exact_rows(self, monkeypatch):
        """The number of matrices of each call the guard hands to the SVD."""
        rows = []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: rows.append(len(a)) or _SVD(a, **kw))
        return rows

    @staticmethod
    def points(ratios):
        """Points at which sigma_2 / sigma_1 takes the given values."""
        r = np.asarray(ratios, dtype=float)
        return np.stack([np.full_like(r, 0.1), 0.6 * r, 0.8 * r], axis=1)

    def test_a_ratio_below_the_threshold_raises(self, exact_rows):
        with pytest.raises(RankDeficient) as err:
            _submersion_jet(rotated_map(), self.points([1e-9])[0])
        assert str(err.value) == self.MESSAGE
        assert exact_rows == [1]

    def test_a_ratio_above_the_threshold_passes_through_the_exact_test(self, exact_rows):
        x = self.points([1e-6])
        sv = _SVD(rotated_map().jet(x).dphi, compute_uv=False)
        assert np.allclose(sv[:, 1] / sv[:, 0], 1e-6, rtol=1e-6)
        _submersion_jet(rotated_map(), x)
        assert exact_rows == [1]

    def test_a_well_conditioned_batch_is_cleared(self, exact_rows):
        phi, x = rotated_map(), self.points(np.linspace(0.01, 1.5, 20))
        assert np.array_equal(_submersion_jet(phi, x).dphi, phi.jet(x).dphi)
        horizontal_lift(phi, x, np.ones((20, 2)))
        assert exact_rows == []

    def test_one_bad_point_in_a_batch_raises(self, exact_rows):
        ratios = np.linspace(0.01, 1.5, 10)
        ratios[4] = 1e-9
        with pytest.raises(RankDeficient, match="not submersive"):
            _submersion_jet(rotated_map(), self.points(ratios))
        assert exact_rows == [1]  # the other nine are cleared

    def test_a_batch_without_a_cholesky_factor_goes_wholly_to_the_exact_test(self, exact_rows):
        ratios = np.linspace(0.01, 1.5, 10)
        ratios[7] = 0.0  # dphi dphi^T = diag(1, 0) exactly
        with pytest.raises(RankDeficient, match="not submersive"):
            _submersion_jet(rotated_map(angle=0.0), self.points(ratios))
        assert exact_rows == [10]


class TestFibreSplittingBatch:
    @pytest.mark.parametrize("sid", scenario_ids())
    def test_batch_equals_points(self, sid):
        sc = build_scenario(sid, validate=False)
        x = sc.domain.node_rules[0].nodes[:8]
        batch = fibre_splitting(sc.map, x)
        assert batch.vertical.shape[0] == batch.horizontal.shape[0] == len(x)
        for k, p in enumerate(x):
            one = fibre_splitting(sc.map, p)
            assert np.array_equal(batch.vertical[k], one.vertical)
            assert np.array_equal(batch.horizontal[k], one.horizontal)
            assert batch.rank == one.rank

    def test_mixed_ranks_raise(self):
        # rank of dphi = diag(2 x0, 1) drops to 1 on x0 = 0
        phi = SmoothMap("fold", flat_chart(2), flat_chart(2, half=2.0), lambda x: [x[0] * x[0], x[1]])
        assert fibre_splitting(phi, np.array([0.0, 0.3])).rank == 1
        assert fibre_splitting(phi, np.array([[0.5, 0.3], [-0.5, 0.1]])).rank == 2
        with pytest.raises(RankDeficient):
            fibre_splitting(phi, np.array([[0.5, 0.3], [0.0, 0.3]]))

    def test_require_rank_batch(self, hopf, hopf_pts):
        assert fibre_splitting(hopf.map, hopf_pts[:4], require_rank=2).vertical.shape == (4, 3, 1)
        with pytest.raises(RankDeficient):
            fibre_splitting(hopf.map, hopf_pts[:4], require_rank=3)

class TestMeanCurvature:
    def test_product_projection(self, rng):
        sc = build_scenario("product-proj", validate=False)
        pts = sc.domain.random_points(rng, 20, margin=0.05)
        mu = mean_curvature_fibres(sc.map, pts)
        g = sc.domain.metric_at(pts, check=False)
        assert np.max(np.sqrt(np.einsum("ni,nij,nj->n", mu, g, mu))) < 1e-9

    def test_hopf_minimal_fibres(self, hopf, hopf_pts):
        mu = mean_curvature_fibres(hopf.map, hopf_pts)
        g = hopf.domain.metric_at(hopf_pts, check=False)
        assert np.max(np.sqrt(np.einsum("ni,nij,nj->n", mu, g, mu))) < 1e-6

    def test_radial_projection_vs_scaled_plane(self, rng):
        # polar (r, theta) -> S^1: rays are geodesics, mu = 0
        annulus = ChartManifold(
            "annulus",
            lambda x: [[1.0, 0.0], [0.0, x[0] ** 2]],
            Box((0.5, 0.0), (2.0, 2 * np.pi), periodic=(1,)),
            quad_orders=6,
        )
        circle = ChartManifold(
            "S1", lambda x: [[1.0]], Box((0.0,), (2 * np.pi,), periodic=(0,)), quad_orders=6
        )
        proj = SmoothMap("radial", annulus, circle, lambda x: [x[1]])
        pts = annulus.random_points(rng, 10)
        mu = mean_curvature_fibres(proj, pts)
        assert np.max(np.abs(mu)) < 1e-9
        # non-example: (x, y) -> x on e^(2x) delta; hand value |mu|_g = e^(-x)
        plane = ChartManifold(
            "scaled-plane",
            lambda x: [[np.exp(2 * x[0]), 0.0], [0.0, np.exp(2 * x[0])]],
            Box((-1.0, -1.0), (1.0, 1.0)),
            quad_orders=6,
        )
        line = ChartManifold("line", lambda x: [[1.0]], Box((-2.0,), (2.0,)), quad_orders=6)
        projx = SmoothMap("x-proj", plane, line, lambda x: [x[0]])
        pts = plane.random_points(rng, 10)
        mu = mean_curvature_fibres(projx, pts)
        g = plane.metric_at(pts, check=False)
        norms = np.sqrt(np.einsum("ni,nij,nj->n", mu, g, mu))
        assert np.max(np.abs(norms - np.exp(-pts[:, 0]))) < 1e-6


def _mu_by_frame_differences(phi, x, h):
    """mu = (1/dim V) sum_a P_H nabla_(V_a) V_a over a g-orthonormal vertical
    frame: the projected coordinate fields of largest g-norm at x, chosen at x
    and kept for the shifted points, Gram-Schmidt, and the frame's partials
    by central differences at step h."""
    m, n = phi.domain.dim, phi.codomain.dim
    ph = horizontal_projector(phi, x)
    pv = np.eye(m) - ph
    norms = np.einsum("nik,nij,njk->nk", pv, phi.domain.metric_at(x, check=False), pv)
    seeds = np.argsort(-norms, axis=-1, kind="stable")[:, : m - n]

    def frame(p):
        cols = np.eye(m) - horizontal_projector(phi, p)
        cols = np.take_along_axis(cols, seeds[np.arange(len(p)) % len(x)][:, None, :], axis=2)
        return gram_schmidt(cols, phi.domain.metric_at(p, check=False))

    V, dV = frame(x), field_partials(frame, x, h)
    nabla = np.einsum("nia,nkai->nk", V, dV) + np.einsum(
        "nkij,nia,nja->nk", phi.domain.christoffel_at(x), V, V
    )
    return np.einsum("nki,ni->nk", ph, nabla) / (m - n)


@pytest.fixture(scope="module", params=["warped-hopf", "hopf-s5"])
def fibred(request):
    sc = build_scenario(request.param, validate=False)
    return sc, sc.domain.random_points(np.random.default_rng(0), 20, margin=0.05)


def _converges(gaps):
    """Gaps at steps 1e-4 and 3e-5 of central differences that are their own
    O(h^2) truncation: they shrink by (10/3)^2 ~ 11 (measured 11.1-11.2)."""
    coarse, fine = gaps
    assert fine < 1e-8
    assert abs(coarse / fine - (10 / 3) ** 2) < 1.5


class TestExactFibreJets:
    """d P_H, mu, d ln lambda^2, d(phi^*h) and d||dphi||^2 from phi's second
    jet and the metric jets, against central differences of the values."""

    STEPS = (1e-4, 3e-5)

    def test_projector_partials(self, fibred):
        sc, p = fibred
        exact = np.moveaxis(_projector_partials(sc.map, p), 0, -1)
        gaps = []
        for h in self.STEPS:
            fd = field_partials(lambda q: horizontal_projector(sc.map, q), p, h)
            gaps.append(np.max(np.abs(exact - fd)) / np.max(np.abs(fd)))
        _converges(gaps)

    def test_pullback_metric_jet(self, fibred):
        sc, p = fibred
        T, dT = _pullback_metric_jet(sc.map, p)
        assert np.max(np.abs(T - pullback_metric(sc.map, p))) <= 1e-14 * np.max(np.abs(T))
        gaps = []
        for h in self.STEPS:
            fd = field_partials(lambda q: pullback_metric(sc.map, q), p, h)
            gaps.append(np.max(np.abs(dT - fd)) / np.max(np.abs(fd)))
        _converges(gaps)

    def test_energy_density_partials(self, fibred):
        sc, p = fibred
        exact = _energy_density_partials(sc.map, p)
        fds = [field_partials(lambda q: energy_density(sc.map, q), p, h) for h in self.STEPS]
        if sc.id == "hopf-s5":
            # a Riemannian submersion: ||dphi||^2 = 4, and the differences are roundoff
            assert np.max(np.abs(exact)) <= 1e-13
            assert all(np.max(np.abs(fd)) < 1e-9 for fd in fds)
        else:
            _converges([np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) for fd in fds])

    def test_log_dilation_partials(self, fibred):
        sc, p = fibred
        exact = _log_dilation_partials(sc.map, p)
        fds = [
            field_partials(lambda q: np.log(dilation_hwc(sc.map, q)[0]), p, h) for h in self.STEPS
        ]
        if sc.id == "hopf-s5":
            # a Riemannian submersion: lambda = 1, and the differences are roundoff
            assert np.max(np.abs(exact)) <= 1e-14
            assert all(np.max(np.abs(fd)) < 1e-9 for fd in fds)
        else:
            _converges([np.max(np.abs(exact - fd)) / np.max(np.abs(fd)) for fd in fds])

    def test_mean_curvature_against_a_frame_stencil(self, fibred):
        # mu reads d P_H only as P_H (nabla P_V) P_V, which the frame's
        # truncation error does not reach: the stencil agrees to its roundoff
        # (1e-12 to 1e-11) at both steps, so no h^2 ratio shows
        sc, p = fibred
        mu = mean_curvature_fibres(sc.map, p)
        size = np.max(metric_norms(sc.domain, p, mu))
        if sc.id == "warped-hopf":
            assert size > 0.6
        else:
            assert size <= 1e-14
        for h in self.STEPS:
            assert np.max(np.abs(mu - _mu_by_frame_differences(sc.map, p, h))) < 1e-10

    @pytest.mark.parametrize("sid", ["hopf-s3", "hopf-s5", "hopf-s7"])
    def test_hopf_fibres_minimal_to_roundoff(self, sid):
        # measured 1e-16 to 6e-16; the frame stencil gave 1e-11 to 5e-11
        sc = build_scenario(sid, quad_order=3 if sid == "hopf-s7" else None, validate=False)
        p = sc.domain.random_points(np.random.default_rng(1), 40, margin=0.05)
        mu = mean_curvature_fibres(sc.map, p)
        scale = np.max(np.abs(horizontal_projector(sc.map, p)))
        assert np.max(metric_norms(sc.domain, p, mu)) <= 1e-14 * scale

    def test_no_stencil(self, fibred, monkeypatch):
        # mean_curvature_fibres, F div F (from F's exact jet) and
        # semiconformal_criticality difference nothing
        sc, p = fibred
        real, calls = autodiff.field_partials, []
        for name, module in list(sys.modules.items()):
            if name.startswith("phwc_lab") and getattr(module, "field_partials", None) is real:
                monkeypatch.setattr(
                    module, "field_partials", lambda f, x, h: calls.append(x) or real(f, x, h)
                )
        mean_curvature_fibres(sc.map, p)
        f_div_f(induced_f_structure(sc.map, sc.J), p)
        semiconformal_criticality(sc.map, sc.J, p)
        assert calls == []


class TestDilationAndEnergy:
    def test_hopf(self, hopf, hopf_pts):
        lam2, resid = dilation_hwc(hopf.map, hopf_pts)
        assert np.max(np.abs(lam2 - 1.0)) < 1e-9
        assert np.max(resid) < 1e-9
        assert np.max(np.abs(energy_density(hopf.map, hopf_pts) - 2.0)) < 1e-9

    def test_constant_map(self, rng):
        dom = flat_chart(2)
        phi = SmoothMap("const", dom, flat_chart(2, half=2.0), lambda x: [0.1, 0.2 + 0.0 * x[0]])
        lam2, resid = dilation_hwc(phi, dom.random_points(rng, 4))
        assert np.allclose(lam2, 0.0) and np.allclose(resid, 0.0)
        assert np.allclose(energy_density(phi, dom.random_points(rng, 4)), 0.0)

    def test_identity_energy(self, rng):
        dom = flat_chart(3)
        phi = SmoothMap("id", dom, flat_chart(3, half=2.0), lambda x: [x[0], x[1], x[2]])
        assert np.allclose(energy_density(phi, dom.random_points(rng, 4)), 3.0)

    def test_generic_map_not_semiconformal(self, rng):
        dom = flat_chart(3)
        cod = flat_chart(2, half=30.0)

        def expr(x):
            return [x[0] ** 2 + 0.7 * x[1] - x[2], 0.3 * x[0] + x[1] * x[2]]

        phi = SmoothMap("poly", dom, cod, expr)
        _, resid = dilation_hwc(phi, dom.random_points(rng, 20))
        assert np.max(resid) > 0.1

    def test_rank_profile_constant(self, hopf):
        rank, _ = hopf.map.rank_profile()
        assert rank == 2

    @pytest.mark.parametrize("sid", scenario_ids())
    def test_rank_profile_matches_the_full_rule(self, sid):
        # the profile reads the node rules; the full rule's rank is the oracle
        sc = build_scenario(sid)
        rank, _ = sc.map.rank_profile()
        sv = np.linalg.svd(sc.map.jet(sc.domain.quadrature.nodes).dphi, compute_uv=False)
        full = np.sum(sv > SVD_RANK_RTOL * sv[..., :1], axis=-1)
        assert np.all(full == rank)

    def test_rank_profile_is_computed_once(self, monkeypatch):
        # registration computes it; the structure check reads the same result
        sc = build_scenario("hopf-s3")
        profile = sc.map.rank_profile()
        monkeypatch.setattr(sc.map, "jet", None)
        assert sc.map.rank_profile() is profile
