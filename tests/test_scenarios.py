"""Catalog construction, registration validation, chart geometry oracles."""

import sys

import numpy as np
import pytest

from phwc_lab import autodiff, scenarios
from phwc_lab.errors import OutOfChart, UnknownScenario
from phwc_lab.maps import SmoothMap, pullback_metric
from phwc_lab.report import RunConfig, run_checks
from phwc_lab.scenarios import (
    build_scenario,
    flat_chart,
    fs_chart,
    hopf_sphere_chart,
    sasakian_structure,
    scenario_ids,
)
from phwc_lab.validation import ScenarioValidationError, validate_scenario


def test_catalog_ids():
    assert scenario_ids() == sorted(
        ["hopf-s3", "hopf-s5", "hopf-s7", "hopf-s3-s2", "flat-holo", "product-proj", "warped-hopf"]
    )


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        build_scenario("moebius")


@pytest.mark.parametrize("sid", ["hopf-s3", "hopf-s3-s2", "flat-holo", "product-proj", "warped-hopf"])
def test_registration_validation_passes(sid):
    sc = build_scenario(sid)  # validate=True re-derives the expected block
    assert sc.expected


def test_registration_validation_s5():
    build_scenario("hopf-s5")


class TestChartOracles:
    def test_sphere_volumes(self):
        # Vol(S^(2n+1)) = 2 pi^(n+1) / n!
        assert abs(hopf_sphere_chart(1, 24).quadrature.total_measure - 2 * np.pi**2) < 1e-9
        assert abs(hopf_sphere_chart(2, 8).quadrature.total_measure - np.pi**3) < 1e-6
        assert (
            abs(hopf_sphere_chart(3, 6).quadrature.total_measure - np.pi**4 / 3)
            / (np.pi**4 / 3)
            < 1e-3
        )

    def test_fubini_study_volume(self):
        # Vol(CP^n) = pi^n / n! under hol. sec. curvature 4
        assert abs(fs_chart(1, 24).quadrature.total_measure - np.pi) / np.pi < 1e-3
        assert abs(fs_chart(2, 12).quadrature.total_measure - np.pi**2 / 2) / (np.pi**2 / 2) < 1e-2

    def test_metric_vs_embedding_jacobian(self, rng):
        # J^T J of the embedding reproduces the closed-form chart metric
        chart = hopf_sphere_chart(2, 4)
        pts = chart.random_points(rng, 10, margin=0.05)
        h = 1e-6
        for x in pts[:5]:
            cols = []
            for i in range(5):
                step = np.zeros(5)
                step[i] = h
                ep = np.array([float(v) for v in chart.embedding(list(x + step))])
                em = np.array([float(v) for v in chart.embedding(list(x - step))])
                cols.append((ep - em) / (2 * h))
            J = np.stack(cols, axis=1)
            assert np.allclose(J.T @ J, chart.metric_at(x), atol=1e-8)

    def test_metric_split_boothby_wang(self, rng):
        # g = phi^*h + eta (x) eta on the Hopf total space
        sc = build_scenario("hopf-s3", quad_order=8, validate=False)
        pts = sc.domain.random_points(rng, 30)
        T = pullback_metric(sc.map, pts)
        eta = sc.contact.eta_at(pts)
        g = sc.domain.metric_at(pts, check=False)
        assert np.max(np.abs(g - T - np.einsum("ni,nj->nij", eta, eta))) < 1e-10

    def test_sasakian_structure_invariants(self, rng):
        chart = hopf_sphere_chart(2, 4)
        contact = sasakian_structure(chart, 2)
        pts = chart.random_points(rng, 20, margin=0.05)
        assert contact.check_invariants(pts) < 1e-10


class TestScenarioValidationCatchesLies:
    def test_false_expectation_fails(self):
        sc = build_scenario("warped-hopf", quad_order=8, validate=False)
        sc = type(sc)(
            id=sc.id, description=sc.description, domain=sc.domain, codomain=sc.codomain,
            map=sc.map, J=sc.J, contact=None,
            expected=dict(sc.expected, is_critical=True),  # a lie
            tolerances=sc.tolerances, n_complex=1,
        )
        with pytest.raises(ScenarioValidationError):
            validate_scenario(sc)

    def test_structure_invariants_fail_registration(self, monkeypatch):
        sc = build_scenario("flat-holo", validate=False)
        J_at = sc.J.J_at
        monkeypatch.setattr(sc.J, "J_at", lambda y: (1 + 1e-9) * J_at(y))
        with pytest.raises(ScenarioValidationError, match="structure_invariants residual"):
            validate_scenario(sc)

    def test_map_leaving_codomain_detected(self):
        dom = flat_chart(2)
        cod = flat_chart(2, half=0.5)
        phi = SmoothMap("big", dom, cod, lambda x: [2.0 * x[0], x[1]])
        with pytest.raises(OutOfChart):
            phi.require_in_codomain(dom.node_rules[0].nodes)


def test_builds_are_deterministic():
    a = build_scenario("hopf-s3", quad_order=6, validate=False)
    b = build_scenario("hopf-s3", quad_order=6, validate=False)
    assert a is b  # cached
    # a fresh uncached object has identical quadrature
    from phwc_lab.scenarios import _BUILDERS

    c = _BUILDERS["hopf-s3"](6)
    assert np.array_equal(a.domain.quadrature.nodes, c.domain.quadrature.nodes)
    assert np.array_equal(a.domain.quadrature.weights, c.domain.quadrature.weights)


def test_no_stencil_in_a_build_or_a_run(monkeypatch):
    # a validated build and every check of a run differentiate exactly, on
    # every catalog scenario: no central-difference stencil runs (56 ran,
    # 27 878 rows, while runs took a step).  Only the FD oracles keep theirs.
    monkeypatch.setattr(scenarios, "_CACHE", {})
    real, rows = autodiff._stencil, []
    monkeypatch.setattr(
        autodiff, "_stencil", lambda f, x, h: rows.append(2 * np.size(x)) or real(f, x, h)
    )
    for sid in scenario_ids():
        build_scenario(sid, validate=True)
        run_checks(RunConfig(sid, seed=1))
    assert rows == []


class TestHopfS5Evaluations:
    """What a cold build of hopf-s5 and the killing-s5 check evaluate."""

    def test_registration_solves_the_contact_phi_once(self, monkeypatch):
        # check_invariants and the Sasakian check read phi at the same 40
        # samples: the metric there is factored once for them
        monkeypatch.setattr(scenarios, "_CACHE", {})
        real, stacks = np.linalg.solve, []
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: stacks.append((np.shape(a), np.shape(b))) or real(a, b)
        )
        build_scenario("hopf-s5")
        assert stacks.count(((40, 5, 5), (40, 5, 5))) == 1

    def test_no_stencil_on_codomain_rows(self, monkeypatch):
        # the constant J and xi carry their expressions, so their partials
        # come by dual numbers: the build and the check run no stencil at all
        monkeypatch.setattr(scenarios, "_CACHE", {})
        real, rows = autodiff.field_partials, []
        for name, module in list(sys.modules.items()):
            if name.startswith("phwc_lab") and getattr(module, "field_partials", None) is real:
                monkeypatch.setattr(
                    module, "field_partials", lambda f, x, h: rows.append(np.shape(x)) or real(f, x, h)
                )
        sc = build_scenario("hopf-s5")
        run_checks(RunConfig("hopf-s5", checks=("hessian",), seed=1, hessian_generators=0))
        assert sc.contact.xi_expr is not None and rows == []
