"""Almost Hermitian / f-structures, PHWC residuals, induced structure."""

import numpy as np
import pytest

from oracles import cond_div_residual, phh_residual
from phwc_lab import autodiff
from phwc_lab.autodiff import field_partials
from phwc_lab.errors import ComplexChartMissing, NotPHWC
from phwc_lab.geometry import Box, ChartManifold
from phwc_lab.maps import SmoothMap
from phwc_lab.report import RunConfig, run_checks
from phwc_lab.scenarios import build_scenario, flat_chart, standard_complex_structure
from phwc_lab.structures import (
    AlmostHermitianStructure,
    ContactMetricStructure,
    MetricFStructure,
    cond_b_residual,
    f_div_f,
    holomorphy_residual,
    induced_f_structure,
    phwc_residual,
    phwc_residual_coordinates,
)


@pytest.fixture(scope="module")
def hopf():
    return build_scenario("hopf-s3", quad_order=8, validate=False)


@pytest.fixture(scope="module")
def pts(hopf):
    rng = np.random.default_rng(0)
    return hopf.domain.random_points(rng, 100, margin=0.03)


@pytest.fixture(scope="module")
def flat4():
    return build_scenario("flat-holo", validate=False)


class TestStructureInvariants:
    def test_fs_J(self, hopf, pts, rng):
        images = hopf.map.value(pts)
        assert hopf.J.check_invariants(images) < 1e-10
        assert hopf.J.check_kaehler(images) < 1e-8
        assert hopf.J.kaehler

    def test_contact(self, hopf, pts):
        assert hopf.contact.check_invariants(pts) < 1e-10

    def test_induced_f_is_metric_f_structure(self, hopf, pts):
        F = induced_f_structure(hopf.map, hopf.J)
        assert F.check_invariants(pts) < 1e-8
        assert F.rank == 2

    def test_failure_reads_pass_false_in_the_report(self, monkeypatch):
        # a scenario that passed registration, then broken by one part in 1e9
        sc = build_scenario("flat-holo")
        J_at = sc.J.J_at
        monkeypatch.setattr(sc.J, "J_at", lambda y: (1 + 1e-9) * J_at(y))
        body = run_checks(RunConfig(scenario_id="flat-holo", checks=("structure",)))
        check = body["checks"]["structure"]
        entry = check["residuals"]["J_invariants"]
        assert entry["max"] > entry["tolerance"] and entry["pass"] is False
        assert check["verdicts"]["matches_expected"] is False

    def test_f_structure_returns_its_residual(self, flat4):
        # F = 2J on C^2: |F^3 + F| = |-6J| = 6, and F stays skew
        F = MetricFStructure(flat4.domain, lambda x: 2 * flat4.domain_J.J_at(x))
        assert F.check_invariants(flat4.domain.quadrature.nodes[:3]) == pytest.approx(6.0)
        odd = MetricFStructure(flat4.domain, lambda x: np.zeros((len(x), 4, 4)), rank=1)
        with pytest.raises(ValueError, match="odd"):
            odd.check_invariants(flat4.domain.quadrature.nodes[:3])

    def test_contact_phi_equals_induced(self, hopf, pts):
        # for the Hopf map the induced structure is the Sasakian phi-tensor
        F = induced_f_structure(hopf.map, hopf.J)
        diff = F.F_at(pts) - hopf.contact.phi_at(pts)
        assert np.max(np.abs(diff)) < 1e-9


class TestPHWC:
    def test_hopf(self, hopf, pts):
        assert np.max(phwc_residual(hopf.map, hopf.J, pts)) < 1e-9
        assert np.max(phwc_residual_coordinates(hopf.map, pts)) < 1e-9

    def test_holomorphic_square(self, rng):
        # z -> z^2 away from the origin is semiconformal, hence PHWC
        dom = ChartManifold(
            "right-half", lambda x: [[1.0, 0.0], [0.0, 1.0]],
            Box((0.5, -0.5), (1.5, 0.5)), quad_orders=4,
        )
        cod = flat_chart(2, half=4.0, complex_pairs=[(0, 1)])
        phi = SmoothMap("square", dom, cod, lambda x: [x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1]])
        J = AlmostHermitianStructure(cod, standard_complex_structure(2))
        pts = dom.random_points(rng, 30)
        assert np.max(phwc_residual(phi, J, pts)) < 1e-9
        assert np.max(phwc_residual_coordinates(phi, pts)) < 1e-9

    def test_generic_linear_map_fails(self, rng):
        dom = flat_chart(4, complex_pairs=[(0, 2), (1, 3)])
        cod = flat_chart(4, half=10.0, complex_pairs=[(0, 2), (1, 3)])
        A = rng.normal(size=(4, 4))
        phi = SmoothMap("lin", dom, cod, lambda x: [sum(A[i, j] * x[j] for j in range(4)) for i in range(4)])
        J = AlmostHermitianStructure(cod, standard_complex_structure(4))
        pts = dom.random_points(rng, 10)
        assert np.max(phwc_residual(phi, J, pts)) > 1e-3

    def test_both_routes_agree_on_random_maps(self, rng):
        # commutator and coordinate residuals vanish together
        dom = flat_chart(4, complex_pairs=[(0, 2), (1, 3)])
        cod = flat_chart(4, half=20.0, complex_pairs=[(0, 2), (1, 3)])
        J = AlmostHermitianStructure(cod, standard_complex_structure(4))
        pts = dom.random_points(rng, 10)
        agreements = 0
        for k in range(20):
            if k % 2 == 0:
                # complex-linear, hence holomorphic and PHWC
                B = rng.normal(size=(2, 2))
                C = rng.normal(size=(2, 2))

                def expr(x, B=B, C=C):
                    # z' = (B + iC) z, coordinates (u1, u2, v1, v2)
                    u = [x[0], x[1]]
                    v = [x[2], x[3]]
                    up = [B[a][0] * u[0] + B[a][1] * u[1] - C[a][0] * v[0] - C[a][1] * v[1] for a in range(2)]
                    vp = [C[a][0] * u[0] + C[a][1] * u[1] + B[a][0] * v[0] + B[a][1] * v[1] for a in range(2)]
                    return up + vp

            else:
                A = rng.normal(size=(4, 4))

                def expr(x, A=A):
                    return [sum(A[i, j] * x[j] for j in range(4)) for i in range(4)]

            phi = SmoothMap(f"map{k}", dom, cod, expr)
            r1 = np.max(phwc_residual(phi, J, pts))
            r2 = np.max(phwc_residual_coordinates(phi, pts))
            if (r1 < 1e-9) == (r2 < 1e-9):
                agreements += 1
        assert agreements == 20

    def test_complex_chart_missing(self, hopf, rng):
        sc = build_scenario("hopf-s3-s2", validate=False)
        with pytest.raises(ComplexChartMissing):
            phwc_residual_coordinates(sc.map, sc.domain.random_points(rng, 2))

    def test_conformal_invariance_of_zero_set(self, rng):
        # warped metric keeps the PHWC property (conformal class only)
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        pts = warped.domain.random_points(rng, 50, margin=0.03)
        assert np.max(phwc_residual(warped.map, warped.J, pts)) < 1e-8


class TestInducedStructure:
    def test_rank_formula(self, hopf, flat4):
        # rank F^phi = rank F + rank dphi - dim N
        for sc in (hopf, flat4):
            F = induced_f_structure(sc.map, sc.J)
            rank_dphi, _ = sc.map.rank_profile()
            assert F.rank == sc.J.rank + rank_dphi - sc.codomain.dim

    def test_kernel_is_vertical(self, hopf, pts):
        F = induced_f_structure(hopf.map, hopf.J)
        xi = hopf.contact.xi_at(pts)
        Fv = F.F_at(pts)
        assert np.max(np.abs(np.einsum("nij,nj->ni", Fv, xi))) < 1e-9

    def test_holomorphic_identity_gives_J(self, rng):
        dom = flat_chart(2, complex_pairs=[(0, 1)])
        cod = flat_chart(2, half=2.0, complex_pairs=[(0, 1)])
        phi = SmoothMap("id", dom, cod, lambda x: [x[0], x[1]])
        J = AlmostHermitianStructure(cod, standard_complex_structure(2))
        F = induced_f_structure(phi, J)
        pts = dom.random_points(rng, 10)
        assert np.max(np.abs(F.F_at(pts) - J.J_at(pts))) < 1e-12

    def test_not_phwc_raises(self, rng):
        dom = flat_chart(4)
        cod = flat_chart(4, half=10.0)
        A = np.random.default_rng(5).normal(size=(4, 4))
        phi = SmoothMap("lin", dom, cod, lambda x: [sum(A[i, j] * x[j] for j in range(4)) for i in range(4)])
        J = AlmostHermitianStructure(cod, standard_complex_structure(4))
        # the factory probes the construction, so the gate fires immediately,
        # and again on the next construction: a probe that raises keeps no rank
        for _ in range(2):
            with pytest.raises(NotPHWC):
                induced_f_structure(phi, J)


def _reference_induced(phi, J, x):
    """The induced structure composed from the public functions: (gate residual, F, kept)."""
    from phwc_lab.maps import adjoint_differential
    from phwc_lab.structures import _complex_orthonormalize, j_adapted_frame

    jet = phi.jet(x)
    res = phwc_residual(phi, J, x)
    h = phi.codomain.metric_at(jet.y, check=False)
    u = j_adapted_frame(h, J.J_at(jet.y), phi.codomain.dim // 2)
    adj = adjoint_differential(phi, x)
    cols = np.einsum("...ia,...ab->...ib", adj, u[..., 0::2]) - 1j * np.einsum(
        "...ia,...ab->...ib", adj, u[..., 1::2]
    )
    g = phi.domain.metric_at(x, check=False)
    B, kept = _complex_orthonormalize(cols, g)
    bb = np.einsum("...ik,...jk->...ij", B, B.conj())
    return res, -2.0 * np.einsum("...ij,...jk->...ik", bb.imag, g), kept


@pytest.mark.parametrize("sid", ["hopf-s3", "warped-hopf"])
def test_induced_structure_evaluates_each_field_once(sid, cold_memo, monkeypatch):
    from phwc_lab import structures

    sc = build_scenario(sid)
    phi, J = sc.map, sc.J
    F = induced_f_structure(phi, J)
    x = np.concatenate([r.nodes for r in sc.domain.node_rules])
    res_ref, F_ref, kept_ref = _reference_induced(phi, J, x)

    calls = {"g": 0, "h": 0, "J": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    fresh = induced_f_structure(phi, J)  # probed before anything is counted
    monkeypatch.setattr(sc.domain, "metric_fn", counted("g", sc.domain.metric_fn))
    monkeypatch.setattr(sc.codomain, "metric_fn", counted("h", sc.codomain.metric_fn))
    monkeypatch.setattr(J, "J_fn", counted("J", J.J_fn))
    Fv = F.F_at(x)
    assert calls == {"g": 1, "h": 1, "J": 1}
    assert np.array_equal(Fv, F_ref) and F.rank == 2 * kept_ref

    # the gate residual is phwc_residual's own (the memo holds F at x, and
    # fresh is an F of the same map and J, so it starts from an empty memo)
    cold_memo._memo_clear()
    gates = []
    real_norm = structures._commutator_norm
    monkeypatch.setattr(
        structures, "_commutator_norm", lambda *a: gates.append(real_norm(*a)) or gates[-1]
    )
    fresh.F_at(x)
    (gate,) = gates
    assert np.array_equal(gate, res_ref)


def _counted_fields(sc, monkeypatch):
    """Count every evaluation of g, h and J of a scenario from now on."""
    calls = {"g": 0, "h": 0, "J": 0}

    def counted(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(sc.domain, "metric_fn", counted("g", sc.domain.metric_fn))
    monkeypatch.setattr(sc.codomain, "metric_fn", counted("h", sc.codomain.metric_fn))
    monkeypatch.setattr(sc.J, "J_fn", counted("J", sc.J.J_fn))
    return calls


def _f_entries(memo):
    """Keys of the induced-structure values the shared memo holds."""
    return [k for k in memo._MEMO if k[0] == "induced_f_structure"]


class TestInducedStructureMemo:
    @pytest.fixture
    def sc(self):
        return build_scenario("hopf-s3", quad_order=8, validate=False)

    def test_copy_of_the_points_is_evaluated_once(self, sc, pts, monkeypatch):
        F = induced_f_structure(sc.map, sc.J)
        calls = _counted_fields(sc, monkeypatch)
        first = F.F_at(pts)
        again = F.F_at(pts.copy())
        assert calls == {"g": 1, "h": 1, "J": 1}
        assert again is first

    def test_f_is_evaluated_once_and_differentiated_exactly(self, sc, pts, monkeypatch):
        from phwc_lab import structures

        F = induced_f_structure(sc.map, sc.J)
        evals = []  # one gate residual per evaluation of F
        real_norm = structures._commutator_norm
        monkeypatch.setattr(
            structures, "_commutator_norm", lambda *a: evals.append(1) or real_norm(*a)
        )
        first = f_div_f(F, pts)
        assert len(evals) == 1  # the centre; F's partials are exact
        assert np.array_equal(f_div_f(F, pts), first)
        assert len(evals) == 1

    def test_f_div_f_is_kept_for_phi_and_J(self, sc, pts, monkeypatch):
        from phwc_lab import autodiff

        stencils = []
        real = autodiff._stencil
        monkeypatch.setattr(
            autodiff, "_stencil", lambda f, x, h: stencils.append(len(x)) or real(f, x, h)
        )
        first = f_div_f(induced_f_structure(sc.map, sc.J), pts)
        assert stencils == [] and not first.flags.writeable
        # another F of the same phi and J asks the memo; an F without a key
        # computes, from the same exact partials, or from a stencil of its
        # values when it is given none
        assert f_div_f(induced_f_structure(sc.map, sc.J), pts) is first
        F = induced_f_structure(sc.map, sc.J)
        exact = MetricFStructure(sc.domain, F.F_at, rank=F.rank, partials=F.partials)
        assert np.array_equal(f_div_f(exact, pts), first)
        assert stencils == []
        plain = f_div_f(MetricFStructure(sc.domain, F.F_at, rank=F.rank), pts)
        assert stencils == [len(pts)]
        # the Hopf F is cosymplectic: roundoff exactly, the stencil's truncation by differences
        assert np.max(np.abs(first)) < 1e-12 < np.max(np.abs(plain)) < 1e-5

    def test_values_are_read_only(self, sc, pts):
        F = induced_f_structure(sc.map, sc.J)
        for Fv in (F.F_at(pts), F.F_at(pts[0])):
            assert not Fv.flags.writeable
            with pytest.raises(ValueError):
                Fv[..., 0, 0] = 1.0

    def test_not_phwc_leaves_nothing(self, sc, pts, cold_memo, monkeypatch):
        from phwc_lab import structures

        F = induced_f_structure(sc.map, sc.J)
        before = _f_entries(cold_memo)  # the rank probe's
        real_norm = structures._commutator_norm
        monkeypatch.setattr(structures, "_commutator_norm", lambda *a: real_norm(*a) + 1.0)
        with pytest.raises(NotPHWC):
            F.F_at(pts)
        assert _f_entries(cold_memo) == before
        monkeypatch.undo()
        assert np.array_equal(F.F_at(pts), induced_f_structure(sc.map, sc.J).F_at(pts))

    def test_entries_stay_within_the_bound(self, sc, pts, cold_memo, monkeypatch):
        F = induced_f_structure(sc.map, sc.J)
        cold_memo._memo_clear()
        sets = [pts[k : k + 3] for k in range(8 + 3)]
        F.F_at(sets[0])
        # a bound of eight point sets' worth of bytes: F, the map jet, both
        # metrics and the inverse at each set
        bound = 8 * cold_memo._memo_stats()["held_bytes"]
        monkeypatch.setattr(cold_memo, "_MEMO_BYTES", bound)
        for x in sets:
            F.F_at(x)
            assert cold_memo._memo_stats()["held_bytes"] <= bound
        # the ninth set's first store emptied the memo; the last three are kept
        assert cold_memo._memo_stats()["flushes"] == 1
        assert len(_f_entries(cold_memo)) == 3
        calls = _counted_fields(sc, monkeypatch)
        F.F_at(sets[-1])  # kept
        assert calls["g"] == 0
        F.F_at(sets[0])  # emptied with the rest
        assert calls["g"] == 1


class TestExactJets:
    """F's and xi's partials from exact jets against central differences of
    their values at two steps: a gap that is the stencil's O(h^2) truncation
    shrinks by (10/3)^2 ~ 11 from 1e-4 to 3e-5."""

    @staticmethod
    def _converges(exact, field, p):
        gaps = [np.max(np.abs(exact - field_partials(field, p, h))) for h in (1e-4, 3e-5)]
        assert gaps[1] < 3e-7 * np.max(np.abs(exact))
        assert abs(gaps[0] / gaps[1] - (10 / 3) ** 2) < 1.5

    @pytest.mark.parametrize("sid", ["hopf-s3-s2", "warped-hopf", "hopf-s5"])
    def test_induced_f_partials(self, sid):
        # hopf-s3-s2's J is not constant, warped-hopf's metric is not the
        # round one, hopf-s5's Q = C^H g C has a kernel (rank 2 of 4)
        sc = build_scenario(sid, validate=False)
        F = induced_f_structure(sc.map, sc.J)
        p = sc.domain.random_points(np.random.default_rng(0), 20, margin=0.05)
        Fv, dF = F.F_jet(p)
        assert np.array_equal(Fv, F.F_at(p))  # the values are F_at's
        self._converges(dF, F.F_at, p)

    @pytest.mark.parametrize("sid", ["hopf-s3", "hopf-s5"])
    def test_catalog_xi_partials(self, sid):
        # the catalog's xi is constant in the chart: its exact partials are
        # the zeros the stencil gives too, bit for bit, at either step
        sc = build_scenario(sid, validate=False)
        p = sc.domain.random_points(np.random.default_rng(0), 20, margin=0.05)
        xi, dxi = sc.contact.xi_jet(p)
        assert np.array_equal(xi, sc.contact.xi_at(p)) and not np.any(dxi)
        for h in (1e-4, 3e-5):
            assert np.array_equal(dxi, field_partials(sc.contact.xi_at, p, h))

    def test_a_varying_xi(self):
        # with an expression the partials are exact; without one, xi_jet is
        # the stencil at autodiff.FD_STEP
        chart = build_scenario("hopf-s3", validate=False).domain

        def xi(x):
            return np.stack([np.sin(x[:, 0]), np.cos(x[:, 1]) * x[:, 2], x[:, 0] * x[:, 1]], axis=1)

        p = chart.random_points(np.random.default_rng(0), 20, margin=0.05)
        plain = ContactMetricStructure(chart, None, xi)
        xi.expr = lambda c: [np.sin(c[0]), np.cos(c[1]) * c[2], c[0] * c[1]]
        exact = ContactMetricStructure(chart, None, xi)
        self._converges(exact.xi_jet(p)[1], xi, p)
        assert np.array_equal(plain.xi_jet(p)[1], field_partials(xi, p, autodiff.FD_STEP))


class TestHolomorphy:
    def test_identity_same_structure(self, rng):
        dom = flat_chart(2, complex_pairs=[(0, 1)])
        cod = flat_chart(2, half=2.0, complex_pairs=[(0, 1)])
        phi = SmoothMap("id", dom, cod, lambda x: [x[0], x[1]])
        J = AlmostHermitianStructure(cod, standard_complex_structure(2))
        JM = AlmostHermitianStructure(dom, standard_complex_structure(2))
        assert np.max(holomorphy_residual(phi, JM, J, dom.random_points(rng, 5))) < 1e-12

    def test_hopf_phi_J_holomorphic(self, hopf, pts):
        FM = hopf.contact.as_f_structure()
        assert np.max(holomorphy_residual(hopf.map, FM, hopf.J, pts)) < 1e-8

    def test_induced_structure_makes_map_holomorphic(self, hopf, pts):
        F = induced_f_structure(hopf.map, hopf.J)
        assert np.max(holomorphy_residual(hopf.map, F, hopf.J, pts)) < 1e-8


class TestHarmonicityConditions:
    def test_parallel_J_flat(self, flat4, rng):
        J_dom = flat4.domain_J
        Fd = J_dom  # full-rank f-structure
        pts = flat4.domain.random_points(rng, 10)
        v = f_div_f(Fd, pts)
        assert np.max(np.abs(v)) < 1e-10

    def test_sasakian_phi_tensor_cosymplectic(self, hopf, pts):
        F = hopf.contact.as_f_structure()
        v = f_div_f(F, pts)
        g = hopf.domain.metric_at(pts, check=False)
        assert np.max(np.sqrt(np.einsum("ni,nij,nj->n", v, g, v))) < 1e-5

    def test_induced_hopf_cosymplectic(self, hopf, pts):
        F = induced_f_structure(hopf.map, hopf.J)
        v = f_div_f(F, pts)
        g = hopf.domain.metric_at(pts, check=False)
        assert np.max(np.sqrt(np.einsum("ni,nij,nj->n", v, g, v))) < 1e-5

    def test_phh(self, hopf, pts, flat4, rng):
        assert np.max(phh_residual(hopf.map, hopf.J, pts)) < 1e-5
        fp = flat4.domain.random_points(rng, 10)
        assert np.max(phh_residual(flat4.map, flat4.J, fp)) < 1e-9

    def test_cond_b_dominates_cond_div(self, hopf, pts):
        F = induced_f_structure(hopf.map, hopf.J)
        sub = pts[:20]
        b = cond_b_residual(F, sub)
        d = cond_div_residual(F, sub)
        # F is a metric f-structure, so |F| <= 1 on the image of F
        assert np.all(d <= b + 1e-9)

    def test_flat_conditions_vanish(self, flat4, rng):
        F = induced_f_structure(flat4.map, flat4.J)
        fp = flat4.domain.random_points(rng, 10)
        assert np.max(cond_b_residual(F, fp)) < 1e-9
        assert np.max(cond_div_residual(F, fp)) < 1e-9
