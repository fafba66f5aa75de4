"""The memo of evaluations by point set (``autodiff._memo``).

Every metric, inverse, Christoffel symbol, map jet, horizontal projector and
induced F is computed once per point set and handed out again, read-only.
Reuse must not move a bit of a report.  A stencil reads ``autodiff.FD_STEP``
when it is evaluated, so a test that changes the step empties the memo
first.  The memo lives as long as its scenario (a build empties it) and
holds at most ``_MEMO_BYTES``: a store past that bound empties it first, and
a larger value is handed out without being kept.  Every test starts from an
empty memo (the ``cold_memo`` fixture of conftest).
"""

import importlib
import inspect
import pkgutil
from collections import Counter

import numpy as np
import pytest

import phwc_lab
from phwc_lab import autodiff, maps, scenarios
from phwc_lab.autodiff import tensor_second, tensor_value
from phwc_lab.errors import DifferentiationFailure
from phwc_lab.maps import SmoothMap, fibre_splitting, horizontal_projector
from phwc_lab.report import RunConfig, report_json, run_checks, run_identities
from phwc_lab.scenarios import build_scenario, scenario_ids
from phwc_lab.stability import (
    VariationField,
    VariationSpan,
    killing_fields_sphere,
    killing_reduced_hessian,
    random_variation_fields,
    sasakian_hessian,
    variation_from_killing,
    vertical_codifferential_formula,
)
from phwc_lab.structures import AlmostHermitianStructure, induced_f_structure
from phwc_lab.suites import identity_suites
from phwc_lab.variational import (
    cond_1_1_residual,
    criticality_equivalence,
    criticality_residual,
    tension_phwc,
)

# scenario -> quadrature order (None: the catalog order), as the golden bodies
CASES = {sid: None for sid in scenario_ids()} | {"hopf-s7": 3}
# the scenarios of the catalog-sweep benchmark workload
SWEEP = ("flat-holo", "hopf-s3", "hopf-s3-s2", "product-proj", "warped-hopf")


def _held(memo):
    """(bytes the counters say are held, bytes of the entries, largest entry)."""
    sizes = [size for _, size in memo._MEMO.values()]
    return memo._memo_stats()["held_bytes"], sum(sizes), max(sizes, default=0)


@pytest.mark.parametrize("sid", sorted(CASES))
def test_cold_and_warm_memo_give_the_same_body(sid, cold_memo):
    cfg = RunConfig(sid, quadrature_order=CASES[sid], seed=1)
    cold = report_json(run_checks(cfg))
    assert cold_memo._memo_stats()["hits"] > 0  # the run shares values
    warm = report_json(run_checks(cfg))
    assert warm == cold


def test_a_stencil_jet_reads_the_step_when_evaluated(cold_memo, monkeypatch):
    # the memo keys a value by its owner and points, not by a step: a J
    # without an expression differences J_at at autodiff.FD_STEP when its jet
    # is evaluated, so a changed step reaches it once the memo is emptied; the
    # exact partials of a J with an expression read no step
    chart, J_field, J_expr = scenarios.s2_half_chart()
    stencil, exact = AlmostHermitianStructure(chart, J_field), AlmostHermitianStructure(
        chart, J_field, expr=J_expr
    )
    y = np.array([[0.9, 0.3], [1.7, -2.0]])
    d_fine, d_exact = stencil.J_jet(y)[1], exact.J_jet(y)[1]
    monkeypatch.setattr(autodiff, "FD_STEP", 1e-2)
    assert stencil.J_jet(y)[1] is d_fine
    cold_memo._memo_clear()
    d_coarse = stencil.J_jet(y)[1]
    assert not np.array_equal(d_fine, d_coarse)
    assert np.max(np.abs(d_coarse - d_exact)) > np.max(np.abs(d_fine - d_exact))
    assert np.array_equal(exact.J_jet(y)[1], d_exact)


def test_outputs_are_read_only():
    sc = build_scenario("hopf-s3", validate=False)
    M, phi = sc.domain, sc.map
    x = M.random_points(np.random.default_rng(0), 5)
    for p in (x, x[0]):
        outputs = [
            M.metric_at(p),
            M.inverse_metric_at(p),
            M.christoffel_at(p),
            *M.metric_jet(p),
            phi.value(p),
            *tensor_second(phi.expr, p),
            horizontal_projector(phi, p),
            phi.jet(p).dphi,
        ]
        for out in outputs:
            assert not out.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out[...] = 0.0


def test_a_raising_compute_keeps_nothing(cold_memo):
    x = np.ones((3, 2))
    owner = object()

    def fails(p):
        raise DifferentiationFailure("no value")

    with pytest.raises(DifferentiationFailure):
        cold_memo._memo("test", owner, x, fails)
    assert len(cold_memo._MEMO) == 0 and _held(cold_memo) == (0, 0, 0)
    value = cold_memo._memo("test", owner, x, lambda p: p.sum(axis=1))
    assert np.array_equal(value, [2.0, 2.0, 2.0])

    def ragged(c):
        return [[c[0], c[1]], [c[0]]]

    with pytest.raises(DifferentiationFailure, match="ragged"):
        tensor_value(ragged, x)
    assert [k[0] for k in cold_memo._MEMO] == ["test"]


def test_the_held_bytes_stay_within_the_bound(cold_memo, monkeypatch):
    """Under a bound of 256 KiB the sweep flushes, and no store ever finds the
    memo above the bound or its count apart from its entries."""
    bound = 256 << 10
    monkeypatch.setattr(cold_memo, "_MEMO_BYTES", bound)
    freeze = cold_memo._freeze

    def checked(value):
        held, total, _ = _held(cold_memo)
        assert held == total <= bound
        return freeze(value)

    monkeypatch.setattr(cold_memo, "_freeze", checked)
    for sid in SWEEP:
        run_checks(RunConfig(sid, seed=3))
        run_identities(sid, n_points=100, seed=3)
        held, total, _ = _held(cold_memo)
        assert held == total <= bound
    stats = cold_memo._memo_stats()
    assert stats["flushes"] > 0 and stats["hits"] > stats["misses"] > 0


def test_a_build_empties_the_entries_but_keeps_the_counts(cold_memo, monkeypatch):
    monkeypatch.setattr(scenarios, "_CACHE", {})
    build_scenario("hopf-s3")
    before = cold_memo._memo_stats()
    assert before["held_bytes"] > 0 and before["misses"] > 0
    build_scenario("hopf-s3")  # cached: nothing is built, nothing emptied
    assert cold_memo._memo_stats() == before
    build_scenario("flat-holo", validate=False)
    assert len(cold_memo._MEMO) == 0 and _held(cold_memo) == (0, 0, 0)
    after = cold_memo._memo_stats()
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    assert after["flushes"] == 0  # a build's emptying is not a flush


def test_a_store_past_the_bound_empties_the_memo_first(cold_memo, monkeypatch):
    x = np.ones((4, 2))
    owner = object()
    size = 2 * x.nbytes  # the value p + k and the points
    monkeypatch.setattr(cold_memo, "_MEMO_BYTES", 3 * size)
    for k in range(3):
        cold_memo._memo("test", owner, x + k, lambda p: p + k)
    assert _held(cold_memo) == (3 * size, 3 * size, size)
    value = cold_memo._memo("test", owner, x + 3, lambda p: p + 3)
    assert _held(cold_memo) == (size, size, size)
    assert cold_memo._memo_stats()["flushes"] == 1
    assert cold_memo._memo("test", owner, x + 3, None) is value  # kept


def test_an_array_two_entries_share_is_booked_once(cold_memo, monkeypatch):
    x = np.ones((4, 2))
    owner = object()
    a = cold_memo._memo("a", owner, x, lambda p: p + 1)
    cold_memo._memo("b", owner, x, lambda p: (a, p + 2))  # hands out a again
    assert _held(cold_memo)[:2] == (4 * x.nbytes, 4 * x.nbytes)
    # a store past the bound empties the memo and books its value whole
    monkeypatch.setattr(cold_memo, "_MEMO_BYTES", 4 * x.nbytes)
    cold_memo._memo("c", owner, x, lambda p: (a, p + 3))
    assert _held(cold_memo)[:2] == (3 * x.nbytes, 3 * x.nbytes)
    assert cold_memo._memo_stats()["flushes"] == 1


def test_the_induced_f_jet_books_f_once(cold_memo):
    # F_jet hands out the F that F's own entry holds: the memo books the
    # bytes of its keys' points and of each distinct array it holds
    sc = build_scenario("hopf-s5", validate=False)
    F = induced_f_structure(sc.map, sc.J)
    pts = sc.domain.random_points(np.random.default_rng(0), 60, margin=0.05)
    cold_memo._memo_empty()
    Fv, _ = F.F_jet(pts)
    assert Fv is F.F_at(pts)
    arrays = {}
    for value, _ in cold_memo._MEMO.values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                arrays[id(a)] = a
    points = sum(len(key[3]) for key in cold_memo._MEMO)
    assert cold_memo._memo_stats()["held_bytes"] == points + sum(a.nbytes for a in arrays.values())


def test_a_value_above_the_bound_is_read_only_and_not_kept(cold_memo, monkeypatch):
    sc = build_scenario("hopf-s3", validate=False)
    x = sc.domain.random_points(np.random.default_rng(0), 5)
    small = sc.domain.metric_at(x[:1])
    monkeypatch.setattr(cold_memo, "_MEMO_BYTES", small.nbytes + x[:1].nbytes)
    held = _held(cold_memo)
    first = sc.domain.metric_at(x)
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[...] = 0.0
    assert _held(cold_memo) == held  # the kept entries are kept, the new one is not
    again = sc.domain.metric_at(x)
    assert np.array_equal(first, again) and again is not first
    assert cold_memo._memo_stats()["flushes"] == 0


def test_the_full_hopf_s5_rule_metric_is_kept(cold_memo):
    sc = build_scenario("hopf-s5", validate=False)
    nodes = sc.domain.quadrature.nodes
    assert len(nodes) == 7776
    cold_memo._memo_clear()
    first = sc.domain.metric_at(nodes, check=False)
    assert _held(cold_memo)[0] == first.nbytes + nodes.nbytes  # 1.87 MB
    assert sc.domain.metric_at(nodes, check=False) is first
    assert cold_memo._memo_stats()["misses"] == 1


@pytest.mark.parametrize("sid", scenario_ids())
def test_a_catalog_run_does_not_flush(sid, cold_memo, monkeypatch):
    """The bound's sizing: a newly built catalog scenario runs every check at
    seed 1 and the catalog order within _MEMO_BYTES."""
    monkeypatch.setattr(scenarios, "_CACHE", {})
    run_checks(RunConfig(sid, seed=1))
    stats = cold_memo._memo_stats()
    assert stats["flushes"] == 0 and 0 < stats["held_bytes"] <= cold_memo._MEMO_BYTES


def test_hopf_s7_at_order_8_flushes_once(cold_memo, monkeypatch):
    """Above the catalog order the memo flushes: once on hopf-s7 at order 8
    (512 nodes a torus rule), where no stencil row's jet is kept."""
    monkeypatch.setattr(scenarios, "_CACHE", {})
    run_checks(RunConfig("hopf-s7", quadrature_order=8, seed=1))
    assert cold_memo._memo_stats()["flushes"] == 1


def _count_evaluations(monkeypatch):
    """Count every uncached evaluation by (evaluator, owner, point set)."""
    counts = Counter()

    def counted(name, real, owner_points):
        def wrapped(*args):
            owner, x = owner_points(*args)
            key = (name, id(owner), np.shape(x), np.asarray(x, dtype=float).tobytes())
            counts[key] += 1
            return real(*args)

        return wrapped

    monkeypatch.setattr(
        autodiff, "_value", counted("value", autodiff._value, lambda fn, x: (fn, x))
    )
    monkeypatch.setattr(
        autodiff, "_jet", counted("jet", autodiff._jet, lambda fn, x: (fn, x))
    )
    monkeypatch.setattr(
        autodiff, "_second", counted("second", autodiff._second, lambda fn, x: (fn, x))
    )
    monkeypatch.setattr(
        maps,
        "_projector",
        counted("projector", maps._projector, lambda phi, x: (phi, x)),
    )
    return counts


@pytest.fixture
def hopf_points():
    sc = build_scenario("hopf-s3")
    return sc, sc.domain.random_points(np.random.default_rng(3), 60, margin=0.03)


def test_criticality_equivalence_evaluates_each_point_set_once(hopf_points, monkeypatch):
    sc, pts = hopf_points
    counts = _count_evaluations(monkeypatch)
    criticality_equivalence(sc.map, sc.J, pts)
    assert counts and max(counts.values()) == 1
    assert {k[0] for k in counts} == {"value", "jet", "second", "projector"}
    # among them the domain metric at the points and the codomain metric at
    # their images (as the second jet gives them; a lookup now)
    images = np.ascontiguousarray(sc.map.second_jet(pts).y)
    for fn, x in ((sc.domain.metric_fn, pts), (sc.codomain.metric_fn, images)):
        assert counts[("value", id(fn), x.shape, x.tobytes())] == 1


def test_vertical_codifferential_formula_evaluates_each_point_set_once(
    hopf_points, monkeypatch
):
    sc, pts = hopf_points
    V = fibre_splitting(sc.map, pts).vertical[..., 0]
    counts = _count_evaluations(monkeypatch)
    vertical_codifferential_formula(sc.map, sc.J, V, pts)
    assert counts and max(counts.values()) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda sc: sasakian_hessian(
            sc.map,
            sc.contact,
            sc.J,
            random_variation_fields(sc.map, 1, np.random.default_rng(0))[0],
        ),
        lambda sc: killing_reduced_hessian(
            sc.map,
            sc.contact,
            sc.J,
            variation_from_killing(sc.map, killing_fields_sphere(1).perpendicular()[0]),
        ),
    ],
    ids=["sasakian_hessian", "killing_reduced_hessian"],
)
def test_the_contact_hessians_evaluate_each_point_set_once(call, monkeypatch):
    """On hopf-s3's catalog rule (13 824 nodes, an 82 944-row stencil) the
    variation field asks for the jets the oracle already holds: a lookup."""
    sc = build_scenario("hopf-s3", validate=False)
    assert len(sc.domain.quadrature.nodes) == 13824
    counts = _count_evaluations(monkeypatch)
    call(sc)
    assert counts and max(counts.values()) == 1
    assert max(k[2][0] for k in counts) == 6 * 13824


@pytest.mark.parametrize("n_points", [60, 100])
@pytest.mark.parametrize(
    "call",
    [
        lambda sc, pts: tension_phwc(sc.map, sc.J, pts),
        lambda sc, pts: cond_1_1_residual(sc.map, sc.J, pts),
        lambda sc, pts: identity_suites(sc, n_points=len(pts), seed=3),
    ],
    ids=["tension_phwc", "cond_1_1_residual", "identity_suites"],
)
def test_the_consumers_of_F_evaluate_each_point_set_once(call, n_points, monkeypatch):
    """Each builds the induced F and asks for the jets itself; nothing is evaluated twice."""
    sc = build_scenario("hopf-s3")
    pts = sc.domain.random_points(np.random.default_rng(3), n_points, margin=0.03)
    counts = _count_evaluations(monkeypatch)
    call(sc, pts)
    assert counts and max(counts.values()) == 1


def test_the_induced_rank_is_probed_once_per_map_and_structure(monkeypatch):
    """Registration and identity_suites construct the induced F of the
    scenario's map many times; the rank probe at the first node-rule node
    runs on the first construction only, however often the memo has dropped
    that one-row point set since."""
    monkeypatch.setattr(scenarios, "_CACHE", {})
    counts = _count_evaluations(monkeypatch)
    sc = build_scenario("hopf-s5")
    identity_suites(sc, n_points=100, seed=1)
    probe = np.ascontiguousarray(sc.domain.node_rules[0].nodes[:1])
    at_probe = Counter()
    for key, n in counts.items():
        if key[2:] == (probe.shape, probe.tobytes()):
            at_probe[key[0]] += n
    assert at_probe == {"jet": 1, "value": 1}  # the map jet and the domain metric


@pytest.mark.parametrize("sid", sorted(CASES))
def test_the_first_jet_is_the_second_jets_first_part(sid):
    """A consumer of y and dphi may ask phi.jet(x) where it had a second jet."""
    sc = build_scenario(sid, validate=False)
    phi = sc.map
    x = sc.domain.random_points(np.random.default_rng(5), 40, margin=0.03)
    jet, second = phi.jet(x), phi.second_jet(x)
    assert np.array_equal(jet.y, second.y)
    assert np.array_equal(jet.dphi, second.dphi)
    if sid == "hopf-s3":
        # the value is not the jet's y: its divisions round differently
        assert not np.array_equal(phi.value(x), jet.y)


def _public_callables():
    """(name, callable) for every entry of every phwc_lab module's __all__ and the
    methods of the map and variation types."""
    for info in pkgutil.iter_modules(phwc_lab.__path__):
        module = importlib.import_module(f"phwc_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield f"{info.name}.{name}", obj
    for cls in (SmoothMap, VariationField, VariationSpan):
        for name, obj in vars(cls).items():
            if callable(obj):
                yield f"{cls.__name__}.{name}", obj


def test_no_public_callable_takes_a_jet():
    """Jets are asked for at the points (phi.jet, phi.second_jet), never passed in."""
    takes_jet = []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # an exception type has no signature to read
            continue
        if "jet" in params:
            takes_jet.append(name)
    assert takes_jet == []


def test_the_full_hopf_s5_rule_is_evaluated_once_per_call(monkeypatch):
    """g, g^-1, P_H and the jet on the 7 776 nodes are each evaluated once."""
    sc = build_scenario("hopf-s5", validate=False)
    nodes = sc.domain.quadrature.nodes
    v = np.ones_like(nodes)
    counts = _count_evaluations(monkeypatch)
    for call in (
        lambda: sc.domain.sharp(nodes, v),
        lambda: criticality_residual(sc.map, sc.J, nodes, z=v),
    ):
        counts.clear()
        call()
        assert counts and max(counts.values()) == 1
    assert {k[0] for k in counts} == {"value", "jet", "projector"}


@pytest.mark.parametrize("sid", ["hopf-s3", "hopf-s5", "warped-hopf"])
def test_the_semiconformal_check_takes_the_fibres_mean_curvature_once(sid, monkeypatch):
    """The criticality combination and the mean_curvature row read one mu at
    the check's 60 points: d P_H is evaluated once there."""
    sc = build_scenario(sid)
    calls = []
    real = maps._projector_partials
    monkeypatch.setattr(
        maps, "_projector_partials", lambda phi, x: calls.append(np.shape(x)) or real(phi, x)
    )
    run_checks(RunConfig(sid, checks=("semiconformal",), seed=1))
    assert calls == [(60, sc.domain.dim)]
