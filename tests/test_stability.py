"""Second variation, Killing families, vertical codifferential, conditions."""

import hashlib
import sys

import numpy as np
import pytest

from oracles import (
    ambient_killing_field,
    eigenframe_bracket_rhs,
    killing_lie_residual,
    random_coefficients,
    random_variation_fields,
    span_field,
    span_sections,
    variation_from_killing,
)
from phwc_lab.autodiff import field_partials, tensor_value
from phwc_lab.errors import EigenframeDegenerate, NotCritical, NotSasakianScenario
from phwc_lab.geometry import covariant_derivative_vector, torus_offsets, torus_rules
from phwc_lab.maps import (
    _lift,
    _lift_jet,
    adjoint_differential,
    horizontal_frame,
    horizontal_lift,
    vertical_projector,
)
from phwc_lab.report import RunConfig, run_checks
from phwc_lab.scenarios import build_scenario
from phwc_lab import autodiff, report, stability
from phwc_lab.stability import (
    bracket_identity_sasakian,
    hessian,
    hessian_matrix,
    hessian_suite,
    killing_fields_sphere,
    killing_reduced_hessian,
    killing_span,
    polynomial_span,
    sasakian_hessian,
    span_forms,
    span_rule,
    span_spectrum,
    stability_conditions,
    torus_average,
    variation_l2_norm2,
    vertical_codifferential_formula,
)


def _recorded_span(span, calls):
    """The span with a section_jet that records the node count of each call."""

    def section_jet(p):
        calls.append(len(p))
        return span.section_jet(p)

    return stability.VariationSpan(span.map_id, section_jet, span.shape, span.bandwidth)


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

    def test_exact_partials_are_the_stencil_zeros(self, hopf, rng):
        # the catalog's xi is constant in the chart and so is a row-constant
        # X: xi_jet's partials and dX = 0 are the zeros the stencils give,
        # bit for bit
        pts = hopf.domain.random_points(rng, 10, margin=0.05)
        Xc = rng.normal(size=pts.shape)
        stencil = bracket_identity_sasakian(hopf.contact, lambda p: Xc[np.arange(len(p)) % len(Xc)], pts)
        exact = bracket_identity_sasakian(hopf.contact, lambda p: Xc, pts, dX=np.zeros((10, 3, 3)))
        assert all(np.array_equal(a, b) for a, b in zip(stencil, exact))

    def test_requires_contact(self, rng):
        sc = build_scenario("flat-holo", validate=False)
        with pytest.raises(NotSasakianScenario):
            bracket_identity_sasakian(None, lambda p: p, sc.domain.random_points(rng, 2))


class TestVariationField:
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


def _block_invariance(sc, span, contact, monkeypatch, one_block, small_block):
    """The forms of one block against those of many blocks, within 1e-12 of each form's
    scale: its largest entry or the Gram matrix's (|v|^2), whichever is larger, since
    a neutral Hessian is summation roundoff at the |v|^2 scale."""
    [forms] = hessian_matrix(sc.map, sc.J, span, contact=contact)
    monkeypatch.setattr(stability, "SPAN_BLOCK", one_block)
    [one] = hessian_matrix(sc.map, sc.J, span, contact=contact)
    monkeypatch.setattr(stability, "SPAN_BLOCK", small_block)
    [many] = hessian_matrix(sc.map, sc.J, span, contact=contact)
    gram_scale = np.max(np.abs(forms.gram))
    for want, a, b in zip(forms, one, many):
        if want is None:
            assert a is None and b is None
            continue
        scale = max(np.max(np.abs(want)), gram_scale)
        for got in (a, b):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def _batch_nodes(sc, span, contact):
    """Nodes of each evaluation batch; no batch holds above SPAN_BATCH_BYTES of
    stacked partials, N x K x width x m doubles."""
    calls = []
    hessian_matrix(sc.map, sc.J, _recorded_span(span, calls), contact=contact)
    m, n = sc.domain.dim, sc.codomain.dim
    width = n + m if contact is None else n + 2 * m
    assert max(calls) * span.dim * width * m * 8 <= stability.SPAN_BATCH_BYTES
    return calls


def _batch_invariance(sc, span, contact, monkeypatch, small_bytes):
    """The forms bitwise the same when the evaluation batches split each chunk
    of the sums (``small_bytes``) or hold the whole rule (no bound)."""
    [want] = hessian_matrix(sc.map, sc.J, span, contact=contact)
    for bound in (small_bytes, 1 << 40):
        monkeypatch.setattr(stability, "SPAN_BATCH_BYTES", bound)
        [got] = hessian_matrix(sc.map, sc.J, span, contact=contact)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)


class TestKillingHessianFamily:
    """The Killing fields as a span: the diagonals of hessian_matrix against
    the single-field oracles."""

    @pytest.mark.parametrize("sid, n, order, count", [("hopf-s3", 1, 10, None), ("hopf-s5", 2, 4, 2)])
    def test_equals_single_field_routines(self, sid, n, order, count, monkeypatch, cold_memo):
        # the exact forms against the central-difference oracles at two steps:
        # an oracle's gap is its own O(h^2) truncation, so it shrinks by
        # (10/3)^2 ~ 11 from 1e-4 to 3e-5 (measured 11.0-11.2), and a gap that
        # does not shrink would be an error of the forms.  Where an oracle
        # differentiates nothing, or differentiates exactly (|v|^2; hopf-s5's
        # reduced integrand), both gaps are roundoff.
        gaps = []
        sc = build_scenario(sid, quad_order=order, validate=False)
        for step in (1e-4, 3e-5):
            monkeypatch.setattr(autodiff, "FD_STEP", step)
            cold_memo._memo_clear()
            gens = killing_fields_sphere(n).perpendicular()[:count]
            fields = [variation_from_killing(sc.map, A) for A in gens]
            [forms] = hessian_matrix(sc.map, sc.J, killing_span(sc.map, gens), contact=sc.contact)
            suite = hessian_suite(sc.map, sc.J, fields)
            assert forms.hessian.shape == (len(gens), len(gens)) and len(suite) == len(gens)
            gap = []
            for k, (v, (hv, n2)) in enumerate(zip(fields, suite)):
                want = (
                    hv,
                    n2,
                    killing_reduced_hessian(sc.map, sc.contact, sc.J, v),
                    sasakian_hessian(sc.map, sc.contact, sc.J, v),
                )
                gap.append([abs(form[k, k] - value) / n2 for form, value in zip(forms, want)])
            gaps.append(np.array(gap))
        coarse, fine = gaps
        assert np.all(fine < 3e-9)
        truncated = coarse > 1e-12
        assert np.all(fine[~truncated] < 1e-12)
        assert np.all(np.abs(coarse[truncated] / fine[truncated] - (10 / 3) ** 2) < 1.5)
        assert np.all(truncated[:, 0]) and np.all(truncated[:, 3])  # H and the Sasakian sum

    @pytest.mark.parametrize("sid, n, order", [("hopf-s3", 1, 8), ("hopf-s5", 2, 4)])
    def test_torus_rule_matches_the_full_rule(self, sid, n, order):
        sc = build_scenario(sid, quad_order=order, validate=False)
        span = killing_span(sc.map, killing_fields_sphere(n).perpendicular())
        [full] = hessian_matrix(sc.map, sc.J, span, contact=sc.contact)
        full = [np.diag(f) for f in full]
        rules = torus_rules(sc.domain)
        for rule, forms in zip(rules, hessian_matrix(sc.map, sc.J, span, rules, sc.contact)):
            assert len(rule.nodes) == order**n
            for got, want in zip(forms, full):
                assert np.max(np.abs(np.diag(got) - want)) <= 1e-8 * np.min(full[1])

    def test_block_partition_does_not_change_values(self, hopf, fam1, monkeypatch):
        # one block of the 1000 nodes, then 63 of 16
        span = killing_span(hopf.map, fam1.perpendicular())
        _block_invariance(hopf, span, hopf.contact, monkeypatch, 1000, 16)

    def test_partials_hold_at_most_span_batch_bytes(self, hopf, fam1):
        # 2 sections x 8 pieces x 3 partials x 8 B = 384 B a node: the 1000
        # nodes are one batch
        span = killing_span(hopf.map, fam1.perpendicular())
        assert _batch_nodes(hopf, span, hopf.contact) == [len(hopf.domain.quadrature.nodes)]

    def test_batches_do_not_change_values(self, hopf, fam1, monkeypatch):
        # 20 000 B: batches of 52 nodes against chunks of 64
        span = killing_span(hopf.map, fam1.perpendicular())
        _batch_invariance(hopf, span, hopf.contact, monkeypatch, 20_000)

    def test_hessian_check_evaluates_one_second_jet_and_no_piece_stencil(self, monkeypatch):
        # the check over all six generators (the killing-s5 benchmark): phi's
        # second jet is evaluated once, on the 2 x 36 nodes of both torus
        # rules stacked (Z, the gate and the one batch of the pieces share
        # it), and so is the embedding's.  No stencil runs: J and the Reeb
        # field are constant and declare their expressions.
        sc = build_scenario("hopf-s5", validate=False)
        cfg = RunConfig("hopf-s5", checks=("hessian",), seed=1, hessian_generators=0)
        real, stencils = autodiff.field_partials, []

        def counting(field, x, h):
            stencils.append(np.shape(x))
            return real(field, x, h)

        for name, module in list(sys.modules.items()):
            if name.startswith("phwc_lab") and getattr(module, "field_partials", None) is real:
                monkeypatch.setattr(module, "field_partials", counting)
        real_second, seconds = autodiff._second, []

        def recording(fn, x):
            seconds.append((fn, len(x)))
            return real_second(fn, x)

        monkeypatch.setattr(autodiff, "_second", recording)
        report._check_hessian(sc, cfg, None)
        assert stencils == []
        assert seconds == [(sc.map.expr, 72), (sc.domain.embedding, 72)]

    def test_hessian_check_factors_each_matrix_once(self, monkeypatch):
        # the killing-s5 check, at the 72 nodes of both torus rules: each
        # metric (5 x 5) once for the six Killing sections and their partials
        # and once for the contact phi, each q = dphi dphi^t (4 x 4) once for
        # P_H and once for the six lifts and their partials: 4 x 72 matrices.
        # A stack (N, 1, k, k) against (N, 6, k, 1) would factor each one six
        # times.
        sc = build_scenario("hopf-s5", validate=False)
        cfg = RunConfig("hopf-s5", checks=("hessian",), seed=1, hessian_generators=0)
        real, stacks = np.linalg.solve, []

        def recording(a, b):
            stacks.append((np.shape(a)[:-2], np.shape(b)[:-2]))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        report._check_hessian(sc, cfg, None)
        assert stacks and all(a == b for a, b in stacks)
        assert sorted(stacks) == [((72,), (72,))] * 4

    def test_stacked_sections_and_lifts_match_single_fields(self):
        # one factorization for six columns against six one-column solves,
        # on a torus rule of the check: equal up to roundoff of the largest
        # entry (the lifts' columns mix through q^-1; their sizes span 1 to 313)
        sc = build_scenario("hopf-s5", validate=False)
        phi, p = sc.map, sc.domain.node_rules[0].nodes
        gens = killing_fields_sphere(2).perpendicular()
        vv = span_sections(killing_span(phi, gens), p)
        adj = adjoint_differential(phi, p)
        lifts = _lift(adj, phi.jet(p).dphi @ adj, vv)
        assert vv.shape[:2] == lifts.shape[:2] == (len(p), len(gens))
        for k, A in enumerate(gens):
            v = variation_from_killing(phi, A).v_at(p)
            X = horizontal_lift(phi, p, vv[:, k])
            assert np.max(np.abs(vv[:, k] - v)) <= 1e-14 * np.max(np.abs(vv))
            assert np.max(np.abs(lifts[:, k] - X)) <= 1e-14 * np.max(np.abs(lifts))

    def test_one_evaluation_for_both_torus_rules(self, s5):
        # all six generators with contact: each rule's forms bitwise what a
        # call with that rule alone returns
        span = killing_span(s5.map, killing_fields_sphere(2).perpendicular())
        rules = s5.domain.node_rules
        both = hessian_matrix(s5.map, s5.J, span, rules, s5.contact)
        assert len(both) == 2
        for rule, got in zip(rules, both):
            [want] = hessian_matrix(s5.map, s5.J, span, [rule], s5.contact)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_full_rule_forms_are_diagonal(self):
        # on the full rule the cross terms B(v_A, v_B) of distinct generators
        # vanish to quadrature error, so the spectral radius of (H, G) is the
        # largest diagonal ratio; on a one-node torus rule they do not (the
        # cross terms depend on theta), which is why the check reads diagonals
        sc = build_scenario("hopf-s5", quad_order=4, validate=False)
        span = killing_span(sc.map, killing_fields_sphere(2).perpendicular())
        [forms] = hessian_matrix(sc.map, sc.J, span, contact=sc.contact)
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


class TestExactPartials:
    """The partials of the sections and of their lifts against central differences
    of the values: the gap is the differences' own O(h^2) truncation, so it
    shrinks by (10/3)^2 ~ 11 from 1e-4 to 3e-5 (measured 11.0-11.2)."""

    @pytest.mark.parametrize("sid, n", [("hopf-s5", 2), ("hopf-s3", None), ("hopf-s3-s2", None)])
    def test_section_and_lift_partials_converge(self, sid, n):
        sc = build_scenario(sid, quad_order=4, validate=False)
        phi = sc.map
        gens = None if n is None else killing_fields_sphere(n).perpendicular()
        span = polynomial_span(phi) if gens is None else killing_span(phi, gens)
        p = sc.domain.random_points(np.random.default_rng(0), 20, margin=0.05)
        b, db = span.section_jet(p)
        _, dX = _lift_jet(phi, p, b, db)

        def lifts(q):
            adj = adjoint_differential(phi, q)
            return _lift(adj, phi.jet(q).dphi @ adj, span_sections(span, q))

        gaps = []
        for step in (1e-4, 3e-5):
            gaps.append([
                np.max(np.abs(np.moveaxis(exact, 0, -1) - fd)) / np.max(np.abs(fd))
                for exact, fd in ((db, field_partials(lambda q: span_sections(span, q), p, step)),
                                  (dX, field_partials(lifts, p, step)))
            ])
        coarse, fine = np.array(gaps)
        assert np.all(fine < 2e-7)
        assert np.all(np.abs(coarse / fine - (10 / 3) ** 2) < 1.5)


class TestHessianMatrix:
    """The span matrices against the field-by-field oracle."""

    @pytest.fixture(scope="class")
    def span_matrices(self, hopf):
        span = polynomial_span(hopf.map)
        [(H, G, reduced, sasakian)] = hessian_matrix(hopf.map, hopf.J, span)
        assert reduced is None and sasakian is None  # no contact structure given
        return span, H, G

    def test_quadratic_forms_match_single_fields(self, hopf, span_matrices, monkeypatch, cold_memo):
        # the exact forms against the central-difference oracle at two steps:
        # its gap is its own O(h^2) truncation and shrinks by (10/3)^2 ~ 11
        # from 1e-4 to 3e-5 (measured 11.1); |v|^2 differentiates nothing
        span, H, G = span_matrices
        gaps = []
        sc = build_scenario("hopf-s3", quad_order=10, validate=False)
        for step in (1e-4, 3e-5):
            monkeypatch.setattr(autodiff, "FD_STEP", step)
            cold_memo._memo_clear()
            gap = []
            for c in random_coefficients(span, 3, np.random.default_rng(11)):
                v = span_field(span, c)
                hv, n2 = hessian(sc.map, sc.J, v), variation_l2_norm2(sc.map, v)
                flat = c.ravel()
                gap.append(abs(flat @ H @ flat - hv) / abs(hv))
                assert abs(flat @ G @ flat - n2) <= 1e-10 * n2
                assert (flat @ H @ flat) / (flat @ G @ flat) == pytest.approx(hv / n2, rel=1e-7)
            gaps.append(np.array(gap))
        coarse, fine = gaps
        assert np.all(fine < 3e-9)
        assert np.all(np.abs(coarse / fine - (10 / 3) ** 2) < 1.5)

    def test_symmetric(self, span_matrices):
        _, H, G = span_matrices
        assert H.shape == G.shape == (30, 30)
        assert np.array_equal(H, H.T) and np.array_equal(G, G.T)

    def test_block_partition_does_not_change_values(self, hopf, span_matrices, monkeypatch):
        assert len(hopf.domain.quadrature.nodes) == 1000
        # one block, then 63 blocks of 16 nodes
        _block_invariance(hopf, span_matrices[0], None, monkeypatch, 1000, 16)

    def test_partials_hold_at_most_span_batch_bytes(self, hopf, span_matrices):
        # 30 sections x 5 pieces x 3 partials x 8 B = 3 600 B a node: a batch
        # of 291 nodes holds four chunks of 64, so there are 4 batches
        assert _batch_nodes(hopf, span_matrices[0], None) == [256, 256, 256, 232]

    def test_batches_do_not_change_values(self, hopf, span_matrices, monkeypatch):
        # 200 000 B: batches of 55 nodes against chunks of 64
        _batch_invariance(hopf, span_matrices[0], None, monkeypatch, 200_000)

    def test_one_evaluation_for_both_span_rules(self):
        # the stability check's rule at both torus offsets, without contact
        sc = build_scenario("hopf-s3", validate=False)
        span = polynomial_span(sc.map)
        rules = [sc.domain.rule(12, off, span.bandwidth + 1) for off in torus_offsets(sc.domain)]
        both = hessian_matrix(sc.map, sc.J, span, rules)
        for rule, got in zip(rules, both, strict=True):
            [want] = hessian_matrix(sc.map, sc.J, span, [rule])
            assert got.reduced is None and got.sasakian is None
            assert np.array_equal(got.hessian, want.hessian)
            assert np.array_equal(got.gram, want.gram)

    def test_not_critical_refuses(self):
        warped = build_scenario("warped-hopf", quad_order=8, validate=False)
        with pytest.raises(NotCritical, match="exceeds 0.0001"):
            hessian_matrix(warped.map, warped.J, polynomial_span(warped.map))

    def test_rule_of_another_order_equals_a_rebuild(self, hopf, span_matrices):
        # the catalog chart (order 24) at order 10 against the order-10 build
        catalog = build_scenario("hopf-s3", validate=False)
        rule = catalog.domain.rule(orders=10)
        [(H, G, _, _)] = hessian_matrix(catalog.map, catalog.J, span_matrices[0], [rule])
        assert np.array_equal(H, span_matrices[1]) and np.array_equal(G, span_matrices[2])

    def test_span_forms_do_not_depend_on_fd_step(self, monkeypatch, cold_memo):
        # no step enters H, G, Z or any other entry of a run: at two stencil
        # steps, with the memo emptied before each, the body of every check
        # on hopf-s3 and the hopf-s5 Killing forms are bitwise the same
        def run(step):
            monkeypatch.setattr(autodiff, "FD_STEP", step)
            cold_memo._memo_clear()
            body = report.report_json(run_checks(RunConfig("hopf-s3", seed=1)))
            sc = build_scenario("hopf-s5", validate=False)
            span = killing_span(sc.map, killing_fields_sphere(2).perpendicular())
            return body, hessian_matrix(sc.map, sc.J, span, sc.domain.node_rules, sc.contact)

        (coarse, coarse_forms), (fine, fine_forms) = run(1e-3), run(1e-5)
        assert coarse == fine
        for a_forms, b_forms in zip(coarse_forms, fine_forms):
            for a, b in zip(a_forms, b_forms):
                assert np.array_equal(a, b)

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


class TestSpanRule:
    """The polynomial span on polar Gauss-Legendre x a (B + 1)-node trapezoid rule."""

    def test_full_rule_without_a_bandwidth_or_a_periodic_axis(self, hopf, fam1):
        assert polynomial_span(hopf.map).bandwidth == 4
        assert polynomial_span(hopf.map, degree=1).bandwidth == 2
        for degree in (0, 3):  # the features stop at degree 2 and start at 1
            with pytest.raises(ValueError, match="degree 1 or 2"):
                polynomial_span(hopf.map, degree=degree)
        flat = build_scenario("flat-holo", validate=False)
        for M, span in (
            (hopf.domain, killing_span(hopf.map, fam1.perpendicular())),
            (flat.domain, polynomial_span(flat.map)),
        ):
            got, want = span_rule(M, span), M.quadrature
            assert np.array_equal(got.nodes, want.nodes)
            assert np.array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("fd_step, bound", [(1e-3, 1e-12), (1e-5, 1e-10)])
    def test_two_offsets_agree_at_bandwidth_plus_one(self, fd_step, bound, monkeypatch):
        # B + 1 trapezoid nodes integrate the forms exactly, so the offset of
        # the nodes does not matter; B nodes do not, and it does.  No step
        # enters the forms: measured 3.4e-16 at both stencil steps
        monkeypatch.setattr(autodiff, "FD_STEP", fd_step)
        sc = build_scenario("hopf-s3", quad_order=12, validate=False)
        span = polynomial_span(sc.map)

        def gaps(T):
            rules = [sc.domain.rule(None, off, T) for off in torus_offsets(sc.domain)]
            first, second = (forms[:2] for forms in hessian_matrix(sc.map, sc.J, span, rules))
            return [np.max(np.abs(a - b)) / np.max(np.abs(a)) for a, b in zip(first, second)]

        assert max(gaps(span.bandwidth + 1)) <= bound
        assert min(gaps(span.bandwidth)) > 1e-3

    def test_span_spectrum_is_within_1e_8_of_a_gl20_reference(self):
        # the check's forms (12 one-node points, averaged over the torus)
        # against full Gauss-Legendre at order 20 (8 000 nodes), over every
        # eigenvalue on the Gram range: 0, 1.6666667 (x2), 1.8120471 (x2),
        # 4, ...; measured 3.6e-9
        residuals = run_checks(RunConfig("hopf-s3", checks=("stability",), seed=1))[
            "checks"]["stability"]["residuals"]
        sc = build_scenario("hopf-s3")
        spec = span_spectrum(*span_forms(sc.map, sc.J, polynomial_span(sc.map))[:2])
        assert residuals["span_nonnegativity"]["max"] == -spec[0]
        ref = build_scenario("hopf-s3", quad_order=20, validate=False)

        def spectrum(rule):
            [(H, G, _, _)] = hessian_matrix(ref.map, ref.J, polynomial_span(ref.map), [rule])
            return span_spectrum(H, G)

        assert len(spec) == 28
        assert np.max(np.abs(spec - spectrum(ref.domain.quadrature))) <= 1e-8
        # full Gauss-Legendre at the check's order misses the reference by 6.0e-5
        assert np.max(np.abs(spec - spectrum(ref.domain.rule(orders=12)))) > 1e-5

    def test_check_and_probe_rule_sizes(self, monkeypatch):
        from phwc_lab.validation import validate_scenario

        sizes = []
        real = stability.hessian_matrix

        def spy(phi, J, span, rules=None, contact=None):
            sizes.extend(len(rule.nodes) for rule in rules)
            return real(phi, J, span, rules, contact)

        monkeypatch.setattr(stability, "hessian_matrix", spy)
        validate_scenario(build_scenario("hopf-s3", validate=False))
        # the probe: polar order 12, one node on each theta, then the torus average
        assert sizes == [12]
        run_checks(RunConfig("hopf-s3", checks=("stability",), seed=1))
        assert set(sizes) == {12}  # the check (after a validated build): the same rule

    # sha256 of every torus rule's nodes, weights, density and total measure
    # per catalog chart, recorded before the rules took more than one node a
    # period
    TORUS_DIGESTS = {
        "hopf-s3": "5219b62918b2cfaf",
        "hopf-s5": "2e66dcf95bbaa3be",
        "hopf-s7": "ce9ee15e2bd07738",
        "product-proj": "ca307ccc5a5c88b2",
    }

    @pytest.mark.parametrize("sid", sorted(TORUS_DIGESTS))
    def test_torus_rules_bitwise_unchanged(self, sid):
        M = build_scenario(sid, validate=False).domain
        digest = hashlib.sha256()
        for rule in torus_rules(M):
            for values in (rule.nodes, rule.weights, rule.density, np.float64(rule.total_measure)):
                digest.update(np.ascontiguousarray(values).tobytes())
        assert digest.hexdigest()[:16] == self.TORUS_DIGESTS[sid]


def _periods(M):
    return np.array([M.param_box.upper[i] - M.param_box.lower[i] for i in M.box.periodic])


def _shifts(M, rng, count):
    """Random shifts of the periodic axes (count, P) and of every axis (count, m)."""
    s = rng.uniform(size=(count, len(M.box.periodic))) * _periods(M)
    full = np.zeros((count, M.dim))
    full[:, list(M.box.periodic)] = s
    return s, full


class TestTorusAverage:
    """The polynomial span's forms as the torus average of the one-node forms."""

    @pytest.mark.parametrize("order", [8, 12])
    def test_average_matches_the_trapezoid_rule(self, order):
        # span_rule's T = B + 1 = 5 trapezoid nodes integrate the forms exactly;
        # measured at order 12: H 4.0e-16, G 2.7e-16
        sc = build_scenario("hopf-s3", validate=False)
        span = polynomial_span(sc.map)
        assert (span.dim, span.rho_degree) == (30, 3)
        avg = span_forms(sc.map, sc.J, span, order)
        [ref] = hessian_matrix(sc.map, sc.J, span, [span_rule(sc.domain, span, order)])
        for a, b in zip(avg[:2], ref[:2]):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
        assert avg.reduced is None and avg.sasakian is None
        spec, spec_ref = span_spectrum(*avg[:2]), span_spectrum(*ref[:2])
        assert len(spec) == len(spec_ref) == 28
        assert np.max(np.abs(spec - spec_ref)) < 1e-12
        assert abs(spec[0]) < 1e-12
        if order == 12:
            assert np.allclose(spec[1:4], [5 / 3, 5 / 3, 1.8120471], atol=1e-7)

    @pytest.mark.parametrize("sid, order", [("hopf-s3", 6), ("hopf-s5", 3), ("hopf-s7", 2)])
    def test_equivariance_the_average_assumes(self, sid, order):
        sc = build_scenario(sid, validate=False)
        M, phi, rng = sc.domain, sc.map, np.random.default_rng(3)
        x = M.random_points(rng, 8, margin=0.05)
        s, full = _shifts(M, rng, len(x))
        R, A = M.torus_action.matrices(s), phi.torus_action.matrices(s)
        # e(x + s) = R(s) e(x) and phi(x + s) = A(s) phi(x)
        e, e_s = tensor_value(M.embedding, x), tensor_value(M.embedding, x + full)
        assert np.max(np.abs(e_s - (R @ e[..., None])[..., 0])) < 1e-14
        y, y_s = phi.value(x), phi.value(x + full)
        assert np.max(np.abs(y_s - (A @ y[..., None])[..., 0])) < 1e-12 * np.max(np.abs(y))
        # A(s) preserves h and J: A^T h(A y) A = h(y), J(A y) A = A J(y)
        h, h_s = phi.codomain.metric_at(y), phi.codomain.metric_at(y_s)
        assert np.max(np.abs(A.swapaxes(-1, -2) @ h_s @ A - h)) < 1e-13
        J, J_s = sc.J.J_at(y), sc.J.J_at(y_s)
        assert np.max(np.abs(J_s @ A - A @ J)) < 1e-14
        # rho is a representation: rho(s + t) = rho(s) rho(t)
        span = polynomial_span(phi)
        t = _shifts(M, rng, len(x))[0]
        assert np.max(np.abs(span.rho(s + t) - span.rho(s) @ span.rho(t))) < 1e-12
        # the forms on a shifted one-node rule are the conjugated forms
        offsets = torus_offsets(M)[0]
        rules = [M.rule(order, offsets), M.rule(order, offsets + s[0] / _periods(M))]
        base, shifted = hessian_matrix(phi, sc.J, span, rules)
        rho = span.rho(s[:1])[0]
        for f, f_s in zip(base[:2], shifted[:2]):
            assert np.max(np.abs(f_s - rho.T @ f @ rho)) <= 1e-13 * np.max(np.abs(f))
        # without the codomain rotation A(s) the conjugation misses H
        rho_f = stability._feature_action(R[:1], 2)[0]
        no_A = np.kron(np.eye(phi.codomain.dim), rho_f.T)
        H, H_s = base.hessian, shifted.hessian
        assert np.max(np.abs(H_s - no_A.T @ H @ no_A)) > 1e-2 * np.max(np.abs(H))

    def test_averaging_the_shifted_rules_gives_the_average(self):
        # the exact average does not depend on the one-node rule's offsets
        sc = build_scenario("hopf-s3", validate=False)
        M, span = sc.domain, polynomial_span(sc.map)
        first, second = (
            torus_average(M, f, span.rho, span.rho_degree)
            for f in hessian_matrix(sc.map, sc.J, span, torus_rules(M, 8))
        )
        for a, b in zip(first[:2], second[:2]):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))

    def test_a_span_without_a_torus_action_reads_span_rule(self):
        flat = build_scenario("flat-holo", validate=False)
        hopf_s2 = build_scenario("hopf-s3-s2", quad_order=8, validate=False)
        for sc in (flat, hopf_s2):
            span = polynomial_span(sc.map)
            assert span.rho is None
            [ref] = hessian_matrix(sc.map, sc.J, span, [span_rule(sc.domain, span, 4)])
            got = span_forms(sc.map, sc.J, span, 4)
            for a, b in zip(got, ref):
                assert (a is None and b is None) or np.array_equal(a, b)


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

    @pytest.mark.parametrize("sid", ["hopf-s3", "warped-hopf", "hopf-s5"])
    def test_right_side_against_the_eigenframe_bracket_stencil(self, sid):
        # the frame-free trace from F's exact jet against the brackets of an
        # eigenframe field by central differences (tests/oracles.py): the gap
        # is the stencil's O(h^2) truncation and shrinks by (10/3)^2 ~ 11
        # from 1e-4 to 3e-5 (measured 11.10-11.11)
        from phwc_lab.maps import fibre_splitting

        sc = build_scenario(sid, validate=False)
        pts = sc.domain.random_points(np.random.default_rng(2), 12, margin=0.05)
        Vs = fibre_splitting(sc.map, pts).vertical[..., 0]
        lhs, rhs = vertical_codifferential_formula(sc.map, sc.J, Vs, pts)
        assert np.min(np.abs(rhs)) > 0.5 and np.max(np.abs(lhs - rhs)) < 1e-13
        gaps = [
            np.max(np.abs(eigenframe_bracket_rhs(sc.map, sc.J, Vs, pts, h) - rhs)) / np.max(np.abs(rhs))
            for h in (1e-4, 3e-5)
        ]
        assert gaps[1] < 1e-7
        assert abs(gaps[0] / gaps[1] - (10 / 3) ** 2) < 1.5

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
        # [E, phi E] has a -2g(E,E) Reeb component on Sasakian spheres; from
        # the exact partials of P_H it is 2 to roundoff
        assert abs(rep["cond_a_integrability"] - 2.0) < 1e-12

    @pytest.mark.parametrize("sid", ["hopf-s3", "warped-hopf", "hopf-s5"])
    def test_cond_a_against_the_frame_bracket_stencil(self, sid, monkeypatch):
        # O'Neill's P_V ((d_X P_H) Y - (d_Y P_H) X) at each point, from the
        # exact d P_H, against the vertical part of the brackets [H_a, H_b] of
        # the horizontal frame by central differences of the frame: the gap is
        # the stencil's O(h^2) truncation and shrinks by (10/3)^2 ~ 11 from
        # 1e-4 to 3e-5 (measured 11.10-11.11)
        sc = build_scenario(sid, validate=False)
        phi, p = sc.map, sc.domain.random_points(np.random.default_rng(2), 12, margin=0.05)
        exact = np.array(
            [stability_conditions(phi, sc.J, p[k : k + 1])["cond_a_integrability"] for k in range(12)]
        )
        assert stability_conditions(phi, sc.J, p)["cond_a_integrability"] == np.max(exact)

        def frame_brackets(h):
            H = horizontal_frame(phi, p)
            dH = field_partials(lambda q: horizontal_frame(phi, q), p, h)  # (N, m, a, m)
            br = np.einsum("nia,nkbi->nakb", H, dH)  # H_a^i d_i H_b at [n, a, :, b]
            brv = np.einsum("nkl,nalb->nakb", vertical_projector(phi, p), br - br.transpose(0, 3, 2, 1))
            g = sc.domain.metric_at(p, check=False)
            return np.sqrt(np.max(np.einsum("nakb,nkl,nalb->nab", brv, g, brv), axis=(1, 2)))

        gaps = [np.max(np.abs(frame_brackets(h) - exact)) / np.max(exact) for h in (1e-4, 3e-5)]
        assert gaps[1] < 1e-7
        assert abs(gaps[0] / gaps[1] - (10 / 3) ** 2) < 1.5
