"""Second variation, Killing families, vertical codifferential, conditions."""

import numpy as np
import pytest

from phwc_lab.errors import NotCritical, NotSasakianScenario
from phwc_lab.geometry import covariant_derivative_vector
from phwc_lab.scenarios import build_scenario
from phwc_lab.stability import (
    VariationField,
    ambient_killing_field,
    bracket_identity_sasakian,
    hessian,
    hessian_suite,
    killing_fields_sphere,
    killing_hessian_family,
    killing_lie_residual,
    killing_reduced_hessian,
    random_variation_fields,
    sasakian_hessian,
    stability_conditions,
    variation_from_killing,
    variation_l2_norm2,
    vertical_codifferential_formula,
)


@pytest.fixture(scope="module")
def hopf():
    return build_scenario("hopf-s3", quad_order=10, validate=False)


@pytest.fixture(scope="module")
def s5():
    return build_scenario("hopf-s5", quad_order=5, validate=False)


@pytest.fixture(scope="module")
def fam1():
    return killing_fields_sphere(1)


@pytest.fixture(scope="module")
def fam2():
    return killing_fields_sphere(2)


class TestKillingFamilies:
    def test_counts(self, fam1, fam2):
        # dim so(2n+2) and the anticommuting block n(n+1)
        assert len(fam1.generators) == 6 and len(fam1.perp_indices) == 2
        assert len(fam2.generators) == 15 and len(fam2.perp_indices) == 6
        fam3 = killing_fields_sphere(3)
        assert len(fam3.generators) == 28 and len(fam3.perp_indices) == 12

    def test_generators_skew(self, fam2):
        for A in fam2.generators:
            assert np.array_equal(A, -A.T)

    def test_lie_derivative_residual(self, hopf, fam1, rng):
        pts = hopf.domain.random_points(rng, 20, margin=0.05)
        for A in fam1.generators[:4]:
            assert np.max(killing_lie_residual(hopf.domain, A, pts)) < 1e-8

    def test_killing_identities(self, s5, fam2, rng):
        # |nabla_xi X|^2 = g(nabla_xi X, phi X) = |X|^2
        pts = s5.domain.random_points(rng, 20, margin=0.05)
        g = s5.domain.metric_at(pts, check=False)
        xiF = lambda p: s5.contact.xi_at(p)
        for A in fam2.perpendicular()[:3]:
            X = ambient_killing_field(s5.domain, A)
            nab = covariant_derivative_vector(s5.domain, xiF, X, pts)
            Xv = X(pts)
            phiX = np.einsum("nij,nj->ni", s5.contact.phi_at(pts), Xv)
            n1 = np.einsum("ni,nij,nj->n", nab, g, nab)
            n2 = np.einsum("ni,nij,nj->n", nab, g, phiX)
            n3 = np.einsum("ni,nij,nj->n", Xv, g, Xv)
            assert np.max(np.abs(n1 - n3)) < 1e-8
            assert np.max(np.abs(n2 - n3)) < 1e-8

    def test_perp_filter(self, s5, fam2, rng):
        pts = s5.domain.random_points(rng, 30, margin=0.05)
        g = s5.domain.metric_at(pts, check=False)
        xi = s5.contact.xi_at(pts)
        for A in fam2.perpendicular():
            X = ambient_killing_field(s5.domain, A)(pts)
            assert np.max(np.abs(np.einsum("ni,nij,nj->n", X, g, xi))) < 1e-8


class TestBracketIdentity:
    def test_killing_field(self, s5, fam2, rng):
        pts = s5.domain.random_points(rng, 30, margin=0.05)
        X = ambient_killing_field(s5.domain, fam2.perpendicular()[0])
        lhs, rhs = bracket_identity_sasakian(s5.contact, X, pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_zero_field(self, hopf, rng):
        pts = hopf.domain.random_points(rng, 5)
        X = lambda p: np.zeros((len(p), 3))
        lhs, rhs = bracket_identity_sasakian(hopf.contact, X, pts)
        assert np.allclose(lhs, 0.0, atol=1e-9) and np.allclose(rhs, 0.0, atol=1e-9)

    def test_blair_subidentity(self, hopf, rng):
        # phi X = -nabla_X xi at random horizontal X
        pts = hopf.domain.random_points(rng, 30, margin=0.05)
        Xc = rng.normal(size=pts.shape)
        X = lambda p: np.broadcast_to(Xc[: len(p)], (len(p), 3))
        nab = covariant_derivative_vector(hopf.domain, X, lambda p: hopf.contact.xi_at(p), pts)
        phiX = np.einsum("nij,nj->ni", hopf.contact.phi_at(pts), Xc)
        assert np.max(np.abs(phiX + nab)) < 1e-5

    def test_requires_contact(self, rng):
        sc = build_scenario("flat-holo", validate=False)
        with pytest.raises(NotSasakianScenario):
            bracket_identity_sasakian(None, lambda p: p, sc.domain.random_points(rng, 2))


class TestVariationField:
    def test_generator_must_be_skew(self):
        with pytest.raises(ValueError):
            VariationField("x", lambda p: p, generator=np.eye(4))

    def test_scaling(self, hopf, fam1, rng):
        v = variation_from_killing(hopf.map, fam1.perpendicular()[0])
        pts = hopf.domain.random_points(rng, 5)
        assert np.allclose(v.scaled(2.0).v_at(pts), 2.0 * v.v_at(pts))


class TestHessian:
    def test_homogeneity(self, hopf, rng):
        v = random_variation_fields(hopf.map, 1, rng)[0]
        h1 = hessian(hopf.map, hopf.J, v)
        h2 = hessian(hopf.map, hopf.J, v.scaled(3.0))
        assert np.isclose(h2, 9.0 * h1, rtol=1e-10)

    def test_killing_neutral_on_s3(self, hopf, fam1):
        for A in fam1.perpendicular():
            v = variation_from_killing(hopf.map, A)
            hv = hessian(hopf.map, hopf.J, v)
            n2 = variation_l2_norm2(hopf.map, v)
            assert abs(hv) < 1e-3 * n2

    def test_symmetry_direction_neutral(self, hopf, fam1):
        # any isometry flow of the whole configuration is neutral
        v = variation_from_killing(hopf.map, fam1.generators[0])
        hv = hessian(hopf.map, hopf.J, v)
        n2 = variation_l2_norm2(hopf.map, v)
        assert abs(hv) <= 1e-3 * max(n2, 1.0)

    def test_random_suite_nonnegative(self, hopf, rng):
        fields = random_variation_fields(hopf.map, 10, rng)
        for hv, n2 in hessian_suite(hopf.map, hopf.J, fields):
            assert hv >= -1e-3 * n2

    def test_not_critical_refuses(self, rng):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        v = random_variation_fields(warped.map, 1, rng)[0]
        with pytest.raises(NotCritical):
            hessian(warped.map, warped.J, v)
        # diagnostics override returns a finite number
        out = hessian(warped.map, warped.J, v, allow_noncritical=True)
        assert np.isfinite(out)

    def test_matches_direct_second_difference(self, hopf, rng):
        # independent oracle: second difference of the energy along the
        # chart-linear variation curve (valid at a critical point)
        from phwc_lab.autodiff import field_partials
        from phwc_lab.geometry import two_form_norm2

        v = random_variation_fields(hopf.map, 1, rng)[0]
        M = hopf.domain
        nodes = M.quadrature.nodes
        jet = hopf.map.jet(nodes)
        vv = v.v_at(nodes)
        dv = field_partials(lambda p: v.v_at(p), nodes, 1e-5)

        def energy(t):
            y = jet.y + t * vv
            d = jet.dphi + t * dv
            om = hopf.J.omega_at(y)
            pb = np.swapaxes(d, -1, -2) @ om @ d
            return 0.5 * M.integrate(two_form_norm2(M, nodes, pb))

        e0 = energy(0.0)
        d1, d2 = 2e-3, 1e-3
        second = lambda d: (energy(d) - 2 * e0 + energy(-d)) / d**2
        richardson = (4 * second(d2) - second(d1)) / 3
        hv = hessian(hopf.map, hopf.J, v)
        # order-10 quadrature separates the two integrand families at ~1e-5
        assert abs(hv - richardson) < 1e-4 * max(abs(richardson), 1.0)


class TestSasakianHessian:
    def test_agreement_with_general(self, hopf, rng):
        fields = random_variation_fields(hopf.map, 10, rng)
        nodes_scale = None
        for v in fields:
            hv = hessian(hopf.map, hopf.J, v)
            hs = sasakian_hessian(hopf.map, hopf.contact, hopf.J, v)
            scale = max(abs(hv), 0.01 * variation_l2_norm2(hopf.map, v))
            assert abs(hs - hv) / scale < 1e-2

    def test_requires_contact(self, rng):
        sc = build_scenario("flat-holo", validate=False)
        v = random_variation_fields(sc.map, 1, rng)[0]
        with pytest.raises(NotSasakianScenario):
            sasakian_hessian(sc.map, None, sc.J, v)

    def test_reduced_killing_value(self, s5, fam2):
        # the final-proof reduced integrand integrates to 4(1-n) |X|^2
        for A in fam2.perpendicular():
            v = variation_from_killing(s5.map, A)
            red = killing_reduced_hessian(s5.map, s5.contact, s5.J, v)
            n2 = variation_l2_norm2(s5.map, v)
            assert abs(red / n2 + 4.0) < 0.04


class TestKillingHessianFamily:
    """One stencil for the family, exactly the single-field values."""

    @pytest.mark.parametrize("sid, n, order, count", [("hopf-s3", 1, 10, None), ("hopf-s5", 2, 4, 2)])
    def test_equals_single_field_routines(self, sid, n, order, count):
        sc = build_scenario(sid, quad_order=order, validate=False)
        gens = killing_fields_sphere(n).perpendicular()[:count]
        fields = [variation_from_killing(sc.map, A) for A in gens]
        family = killing_hessian_family(sc.map, sc.contact, sc.J, gens)
        suite = hessian_suite(sc.map, sc.J, fields)
        assert len(family) == len(fields) == len(suite)
        for got, v, (hv, n2) in zip(family, fields, suite):
            assert got.hessian == hv
            assert got.norm2 == n2
            assert got.reduced == killing_reduced_hessian(sc.map, sc.contact, sc.J, v)
            assert got.sasakian == sasakian_hessian(sc.map, sc.contact, sc.J, v)

    def test_block_partition_does_not_change_values(self, s5, fam2):
        # G = 1 runs the stencil on all nodes at once, G = 6 in six blocks
        gens = fam2.perpendicular()
        assert len(gens) == 6
        alone = killing_hessian_family(s5.map, s5.contact, s5.J, gens[:1])
        together = killing_hessian_family(s5.map, s5.contact, s5.J, gens)
        assert alone[0] == together[0]

    def test_not_critical_refuses(self, hopf, fam1):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        # warped-hopf carries no contact structure; lend it that of the round S^3
        with pytest.raises(NotCritical, match="exceeds 0.0001"):
            killing_hessian_family(warped.map, hopf.contact, warped.J, fam1.perpendicular())

    def test_suite_refusal_names_the_tolerance(self, rng):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        v = random_variation_fields(warped.map, 1, rng)[0]
        with pytest.raises(NotCritical, match="exceeds 0.0001"):
            hessian_suite(warped.map, warped.J, [v])

    def test_requires_contact_before_any_work(self, fam1):
        # the map is not critical either, but the missing structure is named first
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        with pytest.raises(NotSasakianScenario):
            killing_hessian_family(warped.map, warped.contact, warped.J, fam1.perpendicular())


class TestVerticalCodifferential:
    def test_hopf_reeb_value(self, hopf, rng):
        # -delta(phi*Omega)(xi) = 2n = 2
        pts = hopf.domain.random_points(rng, 20, margin=0.05)
        for p in pts[:10]:
            xi = hopf.contact.xi_at(p)
            lhs, rhs = vertical_codifferential_formula(hopf.map, hopf.J, xi, p)
            assert abs(lhs - 2.0) < 1e-3
            assert abs(lhs - rhs) < 1e-3

    def test_s5_reeb_value(self, s5, rng):
        pts = s5.domain.random_points(rng, 6, margin=0.08)
        for p in pts[:4]:
            xi = s5.contact.xi_at(p)
            lhs, rhs = vertical_codifferential_formula(s5.map, s5.J, xi, p)
            assert abs(lhs - 4.0) < 1e-3
            assert abs(lhs - rhs) < 1e-3

    def test_integrable_horizontal_distribution(self, rng):
        sc = build_scenario("product-proj", validate=False)
        pts = sc.domain.random_points(rng, 6, margin=0.05)
        from phwc_lab.maps import fibre_splitting

        for p in pts[:4]:
            V = fibre_splitting(sc.map, p).vertical[:, 0]
            lhs, rhs = vertical_codifferential_formula(sc.map, sc.J, V, p)
            assert abs(lhs) < 1e-4 and abs(rhs) < 1e-4


class TestStabilityConditions:
    def test_product_integrable(self, rng):
        sc = build_scenario("product-proj", validate=False)
        pts = sc.domain.random_points(rng, 10, margin=0.05)
        rep = stability_conditions(sc.map, sc.J, pts)
        assert rep["cond_a_integrability"] < 1e-8
        assert rep["weakly_stable_sufficient"]

    def test_flat_both_conditions(self, rng):
        sc = build_scenario("flat-holo", validate=False)
        pts = sc.domain.random_points(rng, 10)
        rep = stability_conditions(sc.map, sc.J, pts)
        assert rep["cond_a_integrability"] < 1e-8
        assert rep["cond_b_structure"] < 1e-8

    def test_hopf_contact_distribution_not_integrable(self, hopf, rng):
        pts = hopf.domain.random_points(rng, 10, margin=0.05)
        rep = stability_conditions(hopf.map, hopf.J, pts)
        assert rep["cond_a_integrability"] > 0.1
        assert not rep["weakly_stable_sufficient"]
        # [E, phi E] has a -2g(E,E) Reeb component on Sasakian spheres
        assert abs(rep["cond_a_integrability"] - 2.0) < 1e-3
