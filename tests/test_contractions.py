"""Node-batch contractions that are matrix products run as ``@``.

Each test holds one rewritten function against the einsum spec it replaced
(the spec stays as a comment at its site), evaluated here on the same
inputs: random (N, ...) batches through stand-in manifolds, maps and
structures, and single points where the function takes one.  The tolerance
is 1e-13 of the reference's largest entry: it admits a change of summation
order and no index error.  The last test scans the library's source: no
einsum call passes ``optimize=``, which runs numpy's contraction-path search
on every call.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from phwc_lab import autodiff, geometry, maps, scenarios, stability, structures, variational
from phwc_lab.autodiff import field_partials, tensor_jet
from phwc_lab.geometry import ChartManifold, gram_schmidt

RTOL = 1e-13
N, m, n = 7, 5, 4  # points, domain and codomain dimensions


@pytest.fixture
def rng():
    return np.random.default_rng(20261020)


def _assert_close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    np.testing.assert_allclose(new, ref, rtol=RTOL, atol=RTOL * np.max(np.abs(ref)))


def _spd(rng, *shape):
    """Symmetric positive definite matrices of shape (*batch, k, k)."""
    a = rng.normal(size=shape)
    return a @ a.swapaxes(-1, -2) + shape[-1] * np.eye(shape[-1])


def _hopf_chart():
    return scenarios.hopf_sphere_chart(1, 8)


def _spy(monkeypatch, module, name):
    """Record (args, result) of every call of module.name; returns the record."""
    fn, calls = getattr(module, name), []

    def wrapped(*args, **kw):
        calls.append((args, fn(*args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, wrapped)
    return calls


# ---------------------------------------------------------------------------
# geometry


def test_apply_first_and_contract_first(rng):
    A, T, B = rng.normal(size=(N, 3, 4)), rng.normal(size=(N, 4, 5, 6)), rng.normal(size=(N, 4, 2))
    for i in (slice(None), 0):  # the batch and one point
        _assert_close(geometry._apply_first(A[i], T[i]), np.einsum("...pq,...qrs->...prs", A[i], T[i]))
        _assert_close(geometry._contract_first(T[i], B[i]), np.einsum("...qrs,...qp->...rsp", T[i], B[i]))


@pytest.mark.parametrize("batch", [(N,), ()])
def test_christoffel(rng, batch):
    g = _spd(rng, *batch, m, m)
    dg = rng.normal(size=batch + (m, m, m))
    dg = dg + dg.swapaxes(-3, -2)
    new = ChartManifold._christoffel(SimpleNamespace(metric_jet=lambda x: (g, dg)), None)
    d = np.moveaxis(dg, -1, -3)
    term = np.swapaxes(d, -3, -2) + np.swapaxes(d, -3, -1) - d
    _assert_close(new, 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(g), term))


def _nabla_two_tensor_ref(gamma, Tv, dT):
    return (
        np.moveaxis(dT, -1, -3)
        - np.einsum("...lij,...lk->...ijk", gamma, Tv)
        - np.einsum("...lik,...jl->...ijk", gamma, Tv)
    )


def test_nabla_two_tensor(rng):
    gamma, Tv, dT = rng.normal(size=(N, m, m, m)), rng.normal(size=(N, m, m)), rng.normal(size=(N, m, m, m))
    M = SimpleNamespace(christoffel_at=lambda x: gamma)
    new = geometry._nabla_two_tensor(M, None, np.zeros((N, m)), Tv=Tv, dT=dT)
    _assert_close(new, _nabla_two_tensor_ref(gamma, Tv, dT))


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("extra", [False, True])
def test_nabla_endomorphism(rng, single, extra):
    rows = 1 if single else N
    gamma, C = rng.normal(size=(2, rows, m, m, m))
    Fv, dF = rng.normal(size=(rows, m, m)), rng.normal(size=(rows, m, m, m))
    M = SimpleNamespace(christoffel_at=lambda x: gamma)
    x = np.zeros(m) if single else np.zeros((N, m))
    new = geometry.nabla_endomorphism(
        M, lambda p: Fv, x, extra_gamma=(lambda p: C) if extra else None, dF=dF
    )
    G = gamma + C if extra else gamma
    ref = (
        np.moveaxis(dF, -1, -3)
        + np.einsum("...kil,...lj->...ikj", G, Fv)
        - np.einsum("...lij,...kl->...ikj", G, Fv)
    )
    _assert_close(new, ref[0] if single else ref)


@pytest.mark.parametrize("single", [False, True])
def test_codifferential_two_form(rng, single):
    rows = 1 if single else N
    gamma, E = rng.normal(size=(rows, m, m, m)), rng.normal(size=(rows, m, m))
    w, dw = rng.normal(size=(rows, m, m)), rng.normal(size=(rows, m, m, m))
    M = SimpleNamespace(christoffel_at=lambda x: gamma, frame_at=lambda x, rotation=None: E)
    x = np.zeros(m) if single else np.zeros((N, m))
    new = geometry.codifferential_two_form(M, None, x, omega_values=w, omega_partials=dw)
    proj = np.einsum("...ia,...ja->...ij", E, E)
    ref = -np.einsum("...ij,...ijk->...k", proj, _nabla_two_tensor_ref(gamma, w, dw))
    _assert_close(new, ref[0] if single else ref)


def test_two_form_norm2(rng):
    ginv = np.linalg.inv(_spd(rng, N, m, m))
    w = rng.normal(size=(N, m, m))
    w = w - w.swapaxes(-1, -2)  # a 2-form
    new = geometry.two_form_norm2(SimpleNamespace(inverse_metric_at=lambda x: ginv), None, w)
    _assert_close(new, 0.5 * np.einsum("...ij,...jk,...kl,...li->...", ginv, w, ginv, -w))


# ---------------------------------------------------------------------------
# maps


@pytest.mark.parametrize("batch", [(N,), ()])
def test_second_fundamental_form_tensor(rng, batch):
    dphi, d2phi = rng.normal(size=batch + (n, m)), rng.normal(size=batch + (n, m, m))
    gm, gn = rng.normal(size=batch + (m, m, m)), rng.normal(size=batch + (n, n, n))
    phi = SimpleNamespace(
        second_jet=lambda x: SimpleNamespace(dphi=dphi, d2phi=d2phi, y=None),
        domain=SimpleNamespace(christoffel_at=lambda x: gm),
        codomain=SimpleNamespace(christoffel_at=lambda y: gn),
    )
    ref = (
        d2phi
        - np.einsum("...gk,...kij->...gij", dphi, gm)
        + np.einsum("...gab,...ai,...bj->...gij", gn, dphi, dphi)
    )
    _assert_close(maps.second_fundamental_form_tensor(phi, None), ref)


def test_lift(rng):
    adj, q, E = rng.normal(size=(N, m, n)), _spd(rng, N, n, n), rng.normal(size=(N, 3, n))
    sol = np.linalg.solve(q, E.swapaxes(-1, -2))
    _assert_close(maps._lift(adj, q, E), np.einsum("...ia,...ak->...ki", adj, sol))


def test_horizontal_frame(rng, monkeypatch):
    ph, g = rng.normal(size=(N, m, m)), _spd(rng, N, m, m)
    monkeypatch.setattr(maps, "horizontal_projector", lambda phi, x: ph)
    phi = SimpleNamespace(
        domain=SimpleNamespace(dim=m, metric_at=lambda x, check=False: g), codomain=SimpleNamespace(dim=n)
    )
    mix = np.random.default_rng(12345).normal(size=(m, m)) + np.eye(m) * m
    ref = gram_schmidt(np.einsum("...ij,jk->...ik", ph, mix[:, :n]), g)
    _assert_close(maps.horizontal_frame(phi, None), ref)


def test_mean_curvature(rng, monkeypatch):
    phor, dph = rng.normal(size=(N, m, m)), rng.normal(size=(m, N, m, m))
    gamma, ginv = rng.normal(size=(N, m, m, m)), rng.normal(size=(N, m, m))
    monkeypatch.setattr(maps, "horizontal_projector", lambda phi, x: phor)
    monkeypatch.setattr(maps, "_projector_partials", lambda phi, x: dph)
    phi = SimpleNamespace(
        domain=SimpleNamespace(dim=m, christoffel_at=lambda x: gamma, inverse_metric_at=lambda x: ginv),
        codomain=SimpleNamespace(dim=n),
    )
    pv = np.eye(m) - phor
    gam = np.moveaxis(gamma, -2, 0)
    nabla = gam @ pv - pv @ gam - dph
    ref = np.einsum("nkp,inpj,nij->nk", phor, nabla, pv @ ginv) / (m - n)
    _assert_close(maps._mean_curvature(phi, np.zeros((N, m))), ref)


# ---------------------------------------------------------------------------
# scenarios and stability


def test_sasakian_phi_field(rng):
    chart = _hopf_chart()
    x = chart.random_points(rng, N)
    new = scenarios.sasakian_structure(chart, 1).phi_fn(x)
    _, Je = tensor_jet(chart.embedding, x)
    rhs = np.einsum("...ei,ef,...fj->...ij", Je, scenarios.ambient_complex_rotation(1), Je)
    _assert_close(new, np.linalg.solve(chart.metric_at(x, check=False), rhs))


def _killing_refs(rng, batch):
    d, K = 6, 3
    e, Je = rng.normal(size=batch + (d,)), rng.normal(size=batch + (d, m))
    g, A = _spd(rng, *batch, m, m), rng.normal(size=(K, d, d))
    Ap = np.einsum("kef,...f->...ek", A, e)
    X = np.linalg.solve(g, np.einsum("...ei,...ek->...ik", Je, Ap)).swapaxes(-1, -2)
    return (e, Je, g, A), X


@pytest.mark.parametrize("batch", [(N,), ()])
def test_killing_components_and_variation(rng, batch):
    args, X = _killing_refs(rng, batch)
    _assert_close(oracles.killing_components(*args), X)
    dphi = rng.normal(size=batch + (n, m))
    e, Je, g, A = args
    new = oracles.killing_variation(dphi, e, Je, g, A)
    _assert_close(new, np.einsum("...ai,...ki->...ka", dphi, X))


def test_killing_jet(rng):
    (e, Je, g, A), _ = _killing_refs(rng, (N,))
    He, dg = rng.normal(size=(N, len(e[0]), m, m)), rng.normal(size=(N, m, m, m))
    K = len(A)
    Ap = np.einsum("kef,nf->nek", A, e)
    Je_t = Je.swapaxes(-1, -2)
    d_rhs = np.moveaxis(He, -1, 0).swapaxes(-1, -2) @ Ap + Je_t @ np.einsum("kef,nfi->inek", A, Je)
    rhs = [Je_t @ Ap, d_rhs.transpose(1, 2, 0, 3), dg.transpose(0, 1, 3, 2)]
    sol = np.linalg.solve(g, np.concatenate([r.reshape(N, m, -1) for r in rhs], axis=-1))
    X = sol[..., :K]
    dX = np.moveaxis(sol[..., K : K + m * K].reshape(N, m, m, K), -2, 0)
    dX -= np.moveaxis(sol[..., K + m * K :].reshape(N, m, m, m), -2, 0) @ X
    X_new, dX_new = stability._killing_jet(e, Je, He, g, dg, A)
    _assert_close(X_new, X.swapaxes(-1, -2))
    _assert_close(dX_new, dX.swapaxes(-1, -2))


def test_killing_lie_residual(rng):
    M = _hopf_chart()
    A = rng.normal(size=(4, 4))  # not skew: the residual is O(1)
    x = M.random_points(rng, N)
    X = oracles.ambient_killing_field(M, A)
    Xv, dX = X(x), field_partials(X, x, autodiff.FD_STEP)
    g, dg = M.metric_jet(x)
    lie = (
        np.einsum("...k,...ijk->...ij", Xv, dg)
        + np.einsum("...kj,...ki->...ij", g, dX)
        + np.einsum("...ik,...kj->...ij", g, dX)
    )
    _assert_close(oracles.killing_lie_residual(M, A, x), np.max(np.abs(lie), axis=(-1, -2)))


def test_contact_frame_seeds(rng, monkeypatch):
    H = rng.normal(size=(N, m, 4))
    monkeypatch.setattr(stability, "horizontal_frame", lambda phi, x: H)
    monkeypatch.setattr(stability, "j_adapted_frame", lambda g, J, pairs, seeds: seeds)
    phi = SimpleNamespace(codomain=SimpleNamespace(dim=4))
    mix = np.random.default_rng(777).normal(size=(4, 2)) + np.eye(4)[:, :2]
    new = stability._contact_frame(phi, (None,) * 5, None)
    _assert_close(new, np.einsum("...ia,ab->...ib", H, mix))


def test_cluster_projector(rng):
    H, T, g = rng.normal(size=(N, m, 4)), _spd(rng, N, m, m), _spd(rng, N, m, m)
    _, vec = np.linalg.eigh(np.einsum("...ia,...ij,...jb->...ab", H, T, H))
    cols = np.einsum("...ia,...ab->...ib", H, vec[..., 1:3])
    ref = np.einsum("...ia,...ja,...jk->...ik", cols, cols, g)
    _assert_close(stability._cluster_projector(H, T, g, 1, 3), ref)


def test_vertical_codifferential_frame_seeds(rng, monkeypatch):
    # the eigenframe oracle's frame seeds: its cluster projector times the
    # fixed generic matrix
    events = []
    projector, adapted = stability._cluster_projector, oracles.j_adapted_frame

    def logged_projector(*args):
        events.append(("P", projector(*args)))
        return events[-1][1]

    def logged_adapted(g, F, pairs, seeds=None):
        events.append(("S", seeds))
        return adapted(g, F, pairs, seeds=seeds)

    monkeypatch.setattr(stability, "_cluster_projector", logged_projector)
    monkeypatch.setattr(oracles, "j_adapted_frame", logged_adapted)
    sc = scenarios.build_scenario("hopf-s3", validate=False)
    x = sc.domain.random_points(rng, 3)
    oracles.eigenframe_bracket_rhs(sc.map, sc.J, rng.normal(size=x.shape), x, autodiff.FD_STEP)
    d = sc.domain.dim
    generic = np.random.default_rng(4242).normal(size=(d, d)) + np.eye(d) * d
    pairs = [(events[i - 1], e) for i, e in enumerate(events) if e[0] == "S"]
    assert pairs
    for (kind, P), (_, seeds) in pairs:
        assert kind == "P"  # each frame evaluation asks for its projector first
        _assert_close(seeds, np.einsum("...ij,jk->...ik", P, generic[:, : seeds.shape[-1]]))


# ---------------------------------------------------------------------------
# structures


def _almost_hermitian(rng, d=4):
    J, dJ = rng.normal(size=(N, d, d)), rng.normal(size=(N, d, d, d))
    h, dh = _spd(rng, N, d, d), rng.normal(size=(N, d, d, d))
    base = SimpleNamespace(dim=d, metric_at=lambda y, check=False: h, metric_jet=lambda y: (h, dh))
    s = structures.AlmostHermitianStructure(base, lambda y: J)
    s.J_jet = lambda y: (J, dJ)
    return s, J, dJ, h, dh


def test_omega_at_and_jet(rng):
    s, J, dJ, h, dh = _almost_hermitian(rng)
    y = np.zeros((N, 4))
    om = np.einsum("...ki,...kj->...ij", J, h)
    _assert_close(s.omega_at(y), om)
    d_om = np.einsum("...kia,...kj->...ija", dJ, h) + np.einsum("...ki,...kja->...ija", J, dh)
    om_new, d_om_new = s.omega_jet(y)
    _assert_close(om_new, om)
    _assert_close(d_om_new, d_om)


def test_almost_hermitian_invariants(rng):
    s, J, _, h, _ = _almost_hermitian(rng)
    om = np.einsum("...ki,...kj->...ij", J, h)
    ref = max(
        np.max(np.abs(np.einsum("...ik,...kj->...ij", J, J) + np.eye(4))),
        np.max(np.abs(np.einsum("...ki,...kl,...lj->...ij", J, h, J) - h)),
        np.max(np.abs(om + om.swapaxes(-1, -2))),
    )
    _assert_close(s.check_invariants(np.zeros((N, 4))), ref)


def test_metric_f_invariants(rng):
    # near 1.2 J0, so -tr F^2 rounds to the even rank 6 and F^3 + F is O(1)
    J0 = scenarios.ambient_complex_rotation(1)
    F = 1.2 * J0 + 0.01 * rng.normal(size=(N, 4, 4))
    g = _spd(rng, N, 4, 4)
    base = SimpleNamespace(metric_at=lambda x, check=False: g)
    s = structures.MetricFStructure(base, lambda x: F)
    r1 = np.max(np.abs(np.einsum("...ij,...jk,...kl->...il", F, F, F) + F))
    skew = np.einsum("...ki,...kj->...ij", F, g)
    r2 = np.max(np.abs(skew + np.einsum("...ik,...kj->...ij", g, F)))
    _assert_close(s.check_invariants(np.zeros((N, 4))), max(r1, r2))
    assert s.rank == 6


def test_contact_invariants(rng):
    ph, xi, g = rng.normal(size=(N, m, m)), rng.normal(size=(N, m)), _spd(rng, N, m, m)
    base = SimpleNamespace(dim=m, metric_at=lambda x, check=False: g)
    s = structures.ContactMetricStructure(base, lambda x: ph, lambda x: xi)
    eta = np.einsum("...ij,...j->...i", g, xi)
    phi2 = np.einsum("...ij,...jk->...ik", ph, ph)
    r1 = np.max(np.abs(phi2 + np.eye(m) - np.einsum("...i,...j->...ij", xi, eta)))
    r2 = np.max(np.abs(np.einsum("...i,...i->...", eta, xi) - 1.0))
    gphi = np.einsum("...ki,...kl,...lj->...ij", ph, g, ph)
    r3 = np.max(np.abs(gphi - g + np.einsum("...i,...j->...ij", eta, eta)))
    _assert_close(s.check_invariants(rng.normal(size=(N, m))), max(r1, r2, r3))


def test_phwc_residual_coordinates(rng):
    dphi, ginv = rng.normal(size=(N, n, m)), rng.normal(size=(N, m, m))
    pairs = ((0, 1), (2, 3))
    phi = SimpleNamespace(
        codomain=SimpleNamespace(complex_pairs=pairs, name="C2"),
        domain=SimpleNamespace(inverse_metric_at=lambda x: ginv),
        jet=lambda x: SimpleNamespace(dphi=dphi),
    )
    zd = np.stack([dphi[..., re, :] + 1j * dphi[..., im, :] for re, im in pairs], axis=-2)
    prod = np.einsum("...ij,...ai,...bj->...ab", ginv, zd, zd)
    _assert_close(structures.phwc_residual_coordinates(phi, None), np.max(np.abs(prod), axis=(-1, -2)))


def test_isotropy_and_f(rng):
    B = rng.normal(size=(N, m, 2)) + 1j * rng.normal(size=(N, m, 2))
    g = _spd(rng, N, m, m)
    iso, F = structures._isotropy_and_f(B, g)
    _assert_close(iso, np.einsum("...ik,...ij,...jl->...kl", B, g.astype(complex), B))
    bb = np.einsum("...ik,...jk->...ij", B, B.conj())
    _assert_close(F, -2.0 * np.einsum("...ij,...jk->...ik", bb.imag, g))


def test_induced_f_columns(rng, monkeypatch):
    # the pulled-back (1,0) columns dphi^t (u - i J u) handed to Gram-Schmidt
    adj, u, cols = (
        _spy(monkeypatch, structures, name)
        for name in ("adjoint_differential", "j_adapted_frame", "_complex_orthonormalize")
    )
    sc = scenarios.build_scenario("hopf-s5", validate=False)
    structures.induced_f_structure(sc.map, sc.J).F_at(sc.domain.random_points(rng, N))
    A, U = adj[-1][1], u[-1][1]
    ref = np.einsum("...ia,...ab->...ib", A, U[..., 0::2]) - 1j * np.einsum(
        "...ia,...ab->...ib", A, U[..., 1::2]
    )
    _assert_close(cols[-1][0][0], ref)


def test_holomorphy_residual(rng):
    dphi, FM, FN = rng.normal(size=(N, n, m)), rng.normal(size=(N, m, m)), rng.normal(size=(N, n, n))
    h, E = _spd(rng, N, n, n), rng.normal(size=(N, m, m))
    phi = SimpleNamespace(
        jet=lambda x: SimpleNamespace(dphi=dphi, y=None),
        codomain=SimpleNamespace(metric_at=lambda y, check=False: h),
        domain=SimpleNamespace(frame_at=lambda x: E),
    )
    new = structures.holomorphy_residual(
        phi, SimpleNamespace(F_at=lambda x: FM), SimpleNamespace(F_at=lambda y: FN), None
    )
    dX = np.einsum("...ai,...ik->...ak", dphi, E)
    dFX = np.einsum("...ai,...ij,...jk->...ak", dphi, FM, E)
    D = dFX - np.einsum("...ab,...bk->...ak", FN, dX)
    D2 = np.einsum("...ab,...bc,...ck->...ak", FN, FN, D)
    num = np.sqrt(np.einsum("...ak,...ab,...bk->...k", D2, h, D2))
    den = 1.0 + np.sqrt(np.einsum("...ak,...ab,...bk->...k", dX, h, dX))
    _assert_close(new, np.max(num / den, axis=-1))


def test_phh_residual(rng, monkeypatch):
    Fv, H, nab = rng.normal(size=(N, m, m)), rng.normal(size=(N, m, 4)), rng.normal(size=(N, m, m, m))
    g = _spd(rng, N, m, m)
    F = SimpleNamespace(F_at=lambda p: Fv, F_jet=lambda p: (Fv, None))
    monkeypatch.setattr(oracles, "induced_f_structure", lambda phi, J: F)
    monkeypatch.setattr(oracles, "horizontal_frame", lambda phi, x: H)
    monkeypatch.setattr(oracles, "nabla_endomorphism", lambda M, F, x, dF: nab)
    phi = SimpleNamespace(domain=SimpleNamespace(metric_at=lambda x, check=False: g))
    v = np.einsum("...kl,...ia,...ilj,...jb->...kab", Fv, H, nab, H)
    norms = np.sqrt(np.einsum("...kab,...kl,...lab->...ab", v, g, v))
    _assert_close(oracles.phh_residual(phi, None, np.zeros((N, m))), np.max(norms, axis=(-1, -2)))


def test_im_f_basis(rng, monkeypatch):
    A = rng.normal(size=(N, m, m))
    Fv = 0.3 * (A - A.swapaxes(-1, -2))
    monkeypatch.setattr(structures, "gram_schmidt", lambda seeds, g: seeds)
    seeds, k = structures._im_f_basis(SimpleNamespace(F_at=lambda x: Fv), None, None)
    proj = -np.einsum("...ij,...jk->...ik", Fv, Fv)
    assert k == int(round(float(np.einsum("...ii->...", proj).flat[0])))
    mix = np.random.default_rng(2024).normal(size=(m, m)) + np.eye(m) * m
    _assert_close(seeds, np.einsum("...ij,jk->...ik", proj, mix[:, :k]))


# ---------------------------------------------------------------------------
# variational


def test_nabla_pullback_tensor(rng, monkeypatch):
    nd, dphi, h = rng.normal(size=(N, n, m, m)), rng.normal(size=(N, n, m)), _spd(rng, N, n, n)
    monkeypatch.setattr(variational, "second_fundamental_form_tensor", lambda phi, x: nd)
    phi = SimpleNamespace(
        second_jet=lambda x: SimpleNamespace(dphi=dphi, y=None),
        codomain=SimpleNamespace(metric_at=lambda y, check=False: h),
    )
    t1 = np.einsum("...aij,...ab,...bk->...ijk", nd, h, dphi)
    _assert_close(variational._nabla_pullback_tensor(phi, None), t1 + t1.swapaxes(-1, -2))


def test_criticality_equivalence_pullback_sum(rng, monkeypatch):
    # warped-hopf is not critical, so the pullback sum is O(1), not roundoff
    frames = _spy(monkeypatch, variational, "j_adapted_frame")
    nabTs = _spy(monkeypatch, variational, "_nabla_pullback_tensor")
    covectors = _spy(monkeypatch, variational, "_max_over_horizontal")
    sc = scenarios.build_scenario("warped-hopf", validate=False)
    variational.criticality_equivalence(sc.map, sc.J, sc.domain.random_points(rng, N))
    ((_, fr),), ((_, nabT),) = frames, nabTs
    E, FE = fr[..., :, 0::2], fr[..., :, 1::2]
    ref = np.einsum("...ia,...ja,...ijk->...k", E, FE, nabT) - np.einsum(
        "...ia,...ja,...ijk->...k", FE, E, nabT
    )
    assert np.max(np.abs(ref)) > 1e-2
    _assert_close(covectors[0][0][2], ref)  # the pullback sum, then the proof identity


def test_tension_phwc_non_kaehler_term(rng, monkeypatch):
    sc = scenarios.build_scenario("hopf-s3", validate=False)
    x = sc.domain.random_points(rng, N)
    jet = sc.map.jet(x)
    nabJ = rng.normal(size=jet.y.shape + (sc.codomain.dim,) * 2)
    nabla = geometry.nabla_endomorphism  # div F on the domain still reads it
    monkeypatch.setattr(sc.J, "kaehler", False)
    monkeypatch.setattr(
        geometry, "nabla_endomorphism", lambda M, *a, **k: nabJ if M is sc.codomain else nabla(M, *a, **k)
    )
    new = variational.tension_phwc(sc.map, sc.J, x)
    F = structures.induced_f_structure(sc.map, sc.J)
    ginv = sc.domain.inverse_metric_at(x)
    divphiJ = np.einsum("...ij,...ai,...bj,...agb->...g", ginv, jet.dphi, jet.dphi, nabJ)
    ref = -np.einsum("...ai,...i->...a", jet.dphi, structures.f_div_f(F, x)) + np.einsum(
        "...ga,...a->...g", sc.J.J_at(jet.y), divphiJ
    )
    _assert_close(new, ref)


def test_cond_1_1_residual(rng, monkeypatch):
    k = 4
    H, Fv, nabF = rng.normal(size=(N, m, k)), rng.normal(size=(N, m, m)), rng.normal(size=(N, m, m, m))
    nd, dphi, Jv, h = (
        rng.normal(size=(N, n, m, m)), rng.normal(size=(N, n, m)), rng.normal(size=(N, n, n)),
        _spd(rng, N, n, n))
    monkeypatch.setattr(variational, "phwc_residual", lambda phi, J, x: None)
    monkeypatch.setattr(variational, "_require_phwc", lambda phi, r: None)
    F = SimpleNamespace(F_at=lambda p: Fv, F_jet=lambda p: (Fv, None))
    monkeypatch.setattr(variational, "induced_f_structure", lambda phi, J: F)
    monkeypatch.setattr(variational, "horizontal_frame", lambda phi, x: H)
    monkeypatch.setattr(variational, "second_fundamental_form_tensor", lambda phi, x: nd)
    monkeypatch.setattr(geometry, "nabla_endomorphism", lambda M, F, x, dF: nabF)
    phi = SimpleNamespace(
        second_jet=lambda x: SimpleNamespace(dphi=dphi, y=None),
        domain=None,
        codomain=SimpleNamespace(metric_at=lambda y, check=False: h),
    )
    r_cond, r_ident = variational.cond_1_1_residual(phi, SimpleNamespace(J_at=lambda y: Jv), np.zeros((N, m)))
    FH = np.einsum("...ij,...jb->...ib", Fv, H)
    nabF_ab = np.einsum("...ia,...ikj,...jb->...kab", H, nabF, H)
    dphi_nabF = np.einsum("...gk,...kab->...gab", dphi, nabF_ab)
    nd_X_FY = np.einsum("...gij,...ia,...jb->...gab", nd, H, FH)
    nd_X_Y = np.einsum("...gij,...ia,...jb->...gab", nd, H, H)
    ident = dphi_nabF + nd_X_FY - np.einsum("...gc,...cab->...gab", Jv, nd_X_Y)
    r_ident_ref = np.sqrt(np.einsum("...gab,...gc,...cab->...ab", ident, h, ident))
    C = nd_X_Y + 1j * nd_X_FY
    P = 0.5 * (C + 1j * np.einsum("...gc,...cab->...gab", Jv.astype(complex), C))
    r_cond_ref = np.sqrt(np.abs(np.einsum("...gab,...gc,...cab->...ab", np.conj(P), h.astype(complex), P)))
    _assert_close(r_ident, np.max(r_ident_ref, axis=(-1, -2)))
    _assert_close(r_cond, np.max(r_cond_ref, axis=(-1, -2)))


# ---------------------------------------------------------------------------
# source rule


def test_no_einsum_call_passes_optimize():
    src = Path(variational.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and any(kw.arg == "optimize" for kw in node.keywords)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
