"""Second variation, Killing families, vertical codifferential, conditions."""

import numpy as np
import pytest

from phwc_lab.errors import EigenframeDegenerate, NotCritical, NotSasakianScenario
from phwc_lab.geometry import covariant_derivative_vector
from phwc_lab.report import RunConfig, run_checks
from phwc_lab.scenarios import build_scenario
from phwc_lab import stability
from phwc_lab.stability import (
    VariationField,
    ambient_killing_field,
    bracket_identity_sasakian,
    hessian,
    hessian_matrix,
    hessian_suite,
    killing_fields_sphere,
    killing_lie_residual,
    killing_reduced_hessian,
    killing_span,
    polynomial_span,
    random_variation_fields,
    rayleigh_quotients,
    sasakian_hessian,
    span_spectrum,
    stability_conditions,
    torus_rules,
    variation_from_killing,
    variation_l2_norm2,
    vertical_codifferential_formula,
)


def _stencil_rows(monkeypatch):
    """Record the stacked stencil rows (2m per node) of each stability-module stencil."""
    rows = []
    real = stability.field_partials

    def counting(field, x, h):
        rows.append(2 * x.shape[1] * len(x))
        return real(field, x, h)

    monkeypatch.setattr(stability, "field_partials", counting)
    return rows


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
        # the algebraic selection against g(X_A, xi) on the chart, both ways:
        # measured max |g(X_A, xi)| is <= 1.2e-16 selected, >= 0.63 not
        pts = s5.domain.random_points(rng, 30, margin=0.05)
        g = s5.domain.metric_at(pts, check=False)
        xi = s5.contact.xi_at(pts)
        for idx, A in enumerate(fam2.generators):
            X = ambient_killing_field(s5.domain, A)(pts)
            inner = np.max(np.abs(np.einsum("ni,nij,nj->n", X, g, xi)))
            if idx in fam2.perp_indices:
                assert inner < 1e-8, idx
            else:
                assert inner > 0.1, idx


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


def _block_invariance(sc, span, contact, monkeypatch, one_block_rows, small_rows):
    """The forms of one block against those of many blocks, within 1e-12 of each form's
    scale: its largest entry or the Gram matrix's (|v|^2), whichever is larger, since
    a neutral Hessian is summation roundoff at the |v|^2 scale."""
    forms = hessian_matrix(sc.map, sc.J, span, contact=contact)
    monkeypatch.setattr(stability, "SPAN_BLOCK", one_block_rows)
    one = hessian_matrix(sc.map, sc.J, span, contact=contact)
    monkeypatch.setattr(stability, "SPAN_BLOCK", small_rows)
    many = hessian_matrix(sc.map, sc.J, span, contact=contact)
    gram_scale = np.max(np.abs(forms.gram))
    for want, a, b in zip(forms, one, many):
        if want is None:
            assert a is None and b is None
            continue
        scale = max(np.max(np.abs(want)), gram_scale)
        for got in (a, b):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _block_rows(sc, span, contact, monkeypatch):
    """Stencil rows of each block; every block holds at most SPAN_BLOCK of them."""
    rows = _stencil_rows(monkeypatch)
    hessian_matrix(sc.map, sc.J, span, contact=contact)
    assert max(rows) <= stability.SPAN_BLOCK
    return rows


class TestKillingHessianFamily:
    """The Killing fields as a span: the diagonals of hessian_matrix against
    the single-field oracles."""

    @pytest.mark.parametrize("sid, n, order, count", [("hopf-s3", 1, 10, None), ("hopf-s5", 2, 4, 2)])
    def test_equals_single_field_routines(self, sid, n, order, count):
        sc = build_scenario(sid, quad_order=order, validate=False)
        gens = killing_fields_sphere(n).perpendicular()[:count]
        fields = [variation_from_killing(sc.map, A) for A in gens]
        forms = hessian_matrix(sc.map, sc.J, killing_span(sc.map, gens), contact=sc.contact)
        suite = hessian_suite(sc.map, sc.J, fields)
        assert forms.hessian.shape == (len(gens), len(gens)) and len(suite) == len(gens)
        for k, (v, (hv, n2)) in enumerate(zip(fields, suite)):
            want = (
                hv,
                n2,
                killing_reduced_hessian(sc.map, sc.contact, sc.J, v),
                sasakian_hessian(sc.map, sc.contact, sc.J, v),
            )
            for form, value in zip(forms, want):
                assert abs(form[k, k] - value) <= 1e-10 * n2

    @pytest.mark.parametrize("sid, n, order", [("hopf-s3", 1, 8), ("hopf-s5", 2, 4)])
    def test_torus_rule_matches_the_full_rule(self, sid, n, order):
        sc = build_scenario(sid, quad_order=order, validate=False)
        span = killing_span(sc.map, killing_fields_sphere(n).perpendicular())
        full = [np.diag(f) for f in hessian_matrix(sc.map, sc.J, span, contact=sc.contact)]
        for rule in torus_rules(sc.domain):
            assert len(rule.nodes) == order**n
            forms = hessian_matrix(sc.map, sc.J, span, rule=rule, contact=sc.contact)
            for got, want in zip(forms, full):
                assert np.max(np.abs(np.diag(got) - want)) <= 1e-8 * np.min(full[1])

    def test_block_partition_does_not_change_values(self, hopf, fam1, monkeypatch):
        # 2m = 6 rows a node: one block of the 1000 nodes, then 63 of 16
        span = killing_span(hopf.map, fam1.perpendicular())
        _block_invariance(hopf, span, hopf.contact, monkeypatch, 6 * 1000, 96)

    def test_blocks_hold_at_most_span_block_stencil_rows(self, hopf, fam1, monkeypatch):
        rows = _block_rows(hopf, killing_span(hopf.map, fam1.perpendicular()), hopf.contact, monkeypatch)
        # two stencils a block: the sections' pieces and the Reeb field's
        assert sum(rows) == 2 * 2 * hopf.domain.dim * len(hopf.domain.quadrature.nodes)

    def test_full_rule_forms_are_diagonal(self):
        # on the full rule the cross terms B(v_A, v_B) of distinct generators
        # vanish to quadrature error, so the spectral radius of (H, G) is the
        # largest diagonal ratio; on a one-node torus rule they do not (the
        # cross terms depend on theta), which is why the check reads diagonals
        sc = build_scenario("hopf-s5", quad_order=4, validate=False)
        span = killing_span(sc.map, killing_fields_sphere(2).perpendicular())
        forms = hessian_matrix(sc.map, sc.J, span, contact=sc.contact)
        G = forms.gram
        scale = np.sqrt(np.outer(np.diag(G), np.diag(G)))
        off = ~np.eye(len(G), dtype=bool)
        for form in forms:
            assert np.max(np.abs(form[off]) / scale[off]) <= 1e-5
        radius = np.max(np.abs(span_spectrum(forms.hessian, G)))
        assert radius == pytest.approx(np.max(np.abs(np.diag(forms.hessian) / np.diag(G))), rel=1e-6)

    def test_not_critical_refuses(self, hopf, fam1):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        # warped-hopf carries no contact structure; lend it that of the round S^3
        span = killing_span(warped.map, fam1.perpendicular())
        with pytest.raises(NotCritical, match="exceeds 0.0001$"):
            hessian_matrix(warped.map, warped.J, span, contact=hopf.contact)

    def test_suite_refusal_names_the_tolerance(self, rng):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        v = random_variation_fields(warped.map, 1, rng)[0]
        with pytest.raises(NotCritical, match="exceeds 0.0001"):
            hessian_suite(warped.map, warped.J, [v])


class TestHessianMatrix:
    """The span matrices against the field-by-field oracle."""

    @pytest.fixture(scope="class")
    def span_matrices(self, hopf):
        span = polynomial_span(hopf.map)
        H, G, reduced, sasakian = hessian_matrix(hopf.map, hopf.J, span)
        assert reduced is None and sasakian is None  # no contact structure given
        return span, H, G

    def test_quadratic_forms_match_single_fields(self, hopf, span_matrices):
        span, H, G = span_matrices
        for c in span.random_coefficients(3, np.random.default_rng(11)):
            v = span.field(c)
            hv, n2 = hessian(hopf.map, hopf.J, v), variation_l2_norm2(hopf.map, v)
            flat = c.ravel()
            assert abs(flat @ H @ flat - hv) <= 1e-10 * abs(hv)
            assert abs(flat @ G @ flat - n2) <= 1e-10 * n2
            assert rayleigh_quotients(H, G, flat[None])[0] == pytest.approx(hv / n2, rel=1e-10)

    def test_symmetric(self, span_matrices):
        _, H, G = span_matrices
        assert H.shape == G.shape == (30, 30)
        assert np.array_equal(H, H.T) and np.array_equal(G, G.T)

    def test_block_partition_does_not_change_values(self, hopf, span_matrices, monkeypatch):
        assert len(hopf.domain.quadrature.nodes) == 1000
        # 2m = 6 rows a node: one block, then 63 blocks of 16 nodes
        _block_invariance(hopf, span_matrices[0], None, monkeypatch, 6 * 1000, 96)

    def test_blocks_hold_at_most_span_block_stencil_rows(self, hopf, span_matrices, monkeypatch):
        rows = _block_rows(hopf, span_matrices[0], None, monkeypatch)
        assert sum(rows) == 2 * hopf.domain.dim * len(hopf.domain.quadrature.nodes)

    def test_not_critical_refuses(self):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        with pytest.raises(NotCritical, match="exceeds 0.0001"):
            hessian_matrix(warped.map, warped.J, polynomial_span(warped.map))

    def test_rule_of_another_order_equals_a_rebuild(self, hopf, span_matrices):
        # the catalog chart (order 24) at order 10 against the order-10 build
        catalog = build_scenario("hopf-s3", validate=False)
        rule = catalog.domain.rule(orders=10)
        H, G, _, _ = hessian_matrix(catalog.map, catalog.J, span_matrices[0], rule=rule)
        assert np.array_equal(H, span_matrices[1]) and np.array_equal(G, span_matrices[2])

    def test_stability_check_honours_fd_step(self):
        # the check's span Hessian runs on the run's own scenario, so the
        # run's central-difference step reaches it
        def span_bound(fd_step):
            cfg = RunConfig("hopf-s3", checks=("stability",), seed=1, fd_step=fd_step)
            residuals = run_checks(cfg)["checks"]["stability"]["residuals"]
            return residuals["span_nonnegativity"]["max"]

        sc = build_scenario("hopf-s3", quad_order=12, validate=False, fd_step=1e-4)
        H, G, _, _ = hessian_matrix(sc.map, sc.J, polynomial_span(sc.map))
        assert span_bound(1e-4) == -float(span_spectrum(H, G)[0])
        assert span_bound(1e-4) != span_bound(1e-5)

    def test_gram_rank_and_span_bound(self, span_matrices):
        # |e|^2 = 1 on S^3 makes one feature combination vanish per output
        _, H, G = span_matrices
        spec = span_spectrum(H, G)
        assert len(spec) == 28
        assert np.all(np.diff(spec) >= 0)
        assert abs(spec[0]) < 1e-6  # a neutral direction, not a negative one
        assert spec[1] > 1.0

    def test_random_fields_unchanged(self):
        # values of the third field drawn from seed 5, recorded before the
        # fields became images of coefficient matrices over the span
        want = {
            "hopf-s3": [[0.21415741320445844, -0.38363897090094423],
                        [-0.13375167842006547, -0.6399585059717441]],
            "flat-holo": [[0.602368840260229, -0.5607629768548187],
                          [0.47629532574749367, -1.1688375466397605]],
        }
        for sid, values in want.items():
            sc = build_scenario(sid, validate=False)
            field = random_variation_fields(sc.map, 3, np.random.default_rng(5))[2]
            pts = sc.domain.random_points(np.random.default_rng(9), 2, margin=0.05)
            np.testing.assert_allclose(field.v_at(pts), values, rtol=1e-14, atol=0)


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

    @pytest.mark.parametrize("sid", ["hopf-s3", "warped-hopf"])
    def test_batch_matches_single_points(self, sid, rng):
        from phwc_lab.maps import fibre_splitting

        sc = build_scenario(sid, validate=False)
        pts = sc.domain.random_points(rng, 20, margin=0.05)
        Vs = np.array([fibre_splitting(sc.map, p).vertical[:, 0] for p in pts])
        lhs, rhs = vertical_codifferential_formula(sc.map, sc.J, Vs, pts)
        assert lhs.shape == rhs.shape == (20,)
        single = np.array(
            [vertical_codifferential_formula(sc.map, sc.J, V, p) for V, p in zip(Vs, pts)]
        )
        assert np.max(np.abs(lhs - single[:, 0])) <= 1e-14
        assert np.max(np.abs(rhs - single[:, 1])) <= 1e-14

    def test_degenerate_points_nan_in_batch_raise_alone(self, hopf, rng):
        # a negative cluster tolerance splits every cluster into odd singletons
        pts = hopf.domain.random_points(rng, 5, margin=0.05)
        xi = hopf.contact.xi_at(pts)
        lhs, rhs = vertical_codifferential_formula(hopf.map, hopf.J, xi, pts, cluster_tol=-1.0)
        assert lhs.shape == rhs.shape == (5,)
        assert np.all(np.isnan(lhs)) and np.all(np.isnan(rhs))
        with pytest.raises(EigenframeDegenerate, match="odd eigenvalue cluster"):
            vertical_codifferential_formula(hopf.map, hopf.J, xi[0], pts[0], cluster_tol=-1.0)


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
