"""Scenario surfaces, transition forms, curving and the descended 3-form."""

from dataclasses import replace

import numpy as np
import pytest

from loopgerbe import checks, gerbe, sampling
from loopgerbe.forms import Form, ext_d
from loopgerbe.gerbe import (PathFibration, TrivialBundle,
                             connection_pullback_check, curving_f,
                             higgs_transform_residual, nabla_phi, omega3,
                             omega3_su2_integral, string_form, string_form_at,
                             tau_deriv, tau_deriv_fd)
from loopgerbe.forms import signed_permutations
from loopgerbe.liegroup import SU2, SU3, bracket, exp_alg, group_inv, mm
from loopgerbe.loops import (Fn, GridFun, ThetaGrid, conj_loop, pair_samples,
                             product_loop)
from loopgerbe.sampling import (make_rng, random_algebra,
                                random_bundle_fibre_points, random_loop,
                                random_loop_tangent, random_path_fibre_points,
                                random_path_fibre_tangents, random_path_point,
                                random_path_tangent)
from oracles import (curvature_exact, curvature_via_ext_d, nabla_phi_by_flows,
                     nabla_phi_closed, rho_grad, shuffle_pairing, stack_tangents)

GRID = ThetaGrid(96)
TB = TrivialBundle.default(GRID)
PF = PathFibration(GRID)
# a second Higgs field on the same bundle: seed E0, coefficient 0.4 + m_1
TB_ALT = replace(TB, phi_term=(Fn(np.ones_like, np.zeros_like), SU2.basis[0]),
                 phi_coeff=lambda m: 0.4 + m[..., 1])


def tb_point(rng, scale=0.6):
    m = rng.uniform(-scale, scale, size=2)
    g = random_loop(rng, GRID, SU2)
    return TB.point(m, g)


def tb_tangent(rng, u=None):
    if u is None:
        u = rng.normal(size=2)
    return (np.asarray(u, dtype=float), random_loop_tangent(rng, GRID, SU2))


# ---------------------------------------------------------------------------
# connection axioms


def test_tb_connection_reproduces_vertical_and_equivariance():
    rng = make_rng(101)
    p = tb_point(rng)
    xi = random_loop_tangent(rng, GRID, SU2)
    got = TB.connection(p, TB.vertical(p, xi))
    assert np.max(np.abs(got.vals - xi.vals)) < 1e-12

    h = random_loop(rng, GRID, SU2)
    V = tb_tangent(rng)
    pushed = (V[0], conj_loop(h, V[1]))
    lhs = TB.connection(TB.act(p, h), pushed)
    rhs = conj_loop(h, TB.connection(p, V))
    assert np.max(np.abs(lhs.vals - rhs.vals)) < 1e-12


def test_pf_connection_axioms():
    rng = make_rng(103)
    p = random_path_point(rng, PF.grid, SU2)
    xi = random_path_tangent(rng, PF.grid, SU2, endpoint=np.zeros((2, 2)))
    got = PF.connection(p, PF.vertical(p, xi))
    assert np.max(np.abs(got.vals - xi.vals)) < 1e-8

    gam = random_loop(rng, PF.grid, SU2, based=True)
    V = random_path_tangent(rng, PF.grid, SU2)
    lhs = PF.connection(PF.act(p, gam), conj_loop(gam, V))
    rhs = conj_loop(gam, PF.connection(p, V))
    assert np.max(np.abs(lhs.vals - rhs.vals)) < 1e-8


# ---------------------------------------------------------------------------
# tau and its derivative


def test_tau_cocycle_and_fibre_guard():
    rng = make_rng(107)
    p1, p2, p3 = random_path_fibre_points(rng, PF, 3)
    t12, t23, t13 = PF.tau(p1, p2), PF.tau(p2, p3), PF.tau(p1, p3)
    assert np.max(np.abs(t12.mul(t23).vals - t13.vals)) < 1e-12
    assert np.max(np.abs(p1.mul(t12).vals - p2.vals)) < 1e-12
    q = random_path_point(rng, PF.grid, SU2)
    with pytest.raises(ValueError):
        PF.tau(p1, q)

    m = np.array([0.2, -0.3])
    a = TB.point(m, random_loop(rng, GRID, SU2))
    b = TB.point(m + 1e-3, random_loop(rng, GRID, SU2))
    with pytest.raises(ValueError):
        TB.tau(a, b)


def _fibre_pair_and_neighbour(scn, rng, shift):
    """Two points of one fibre, and a third point `shift` off the first's
    fibre: the chart point moved, or the endpoint times exp(shift E_0)."""
    if scn is TB:
        p, q = random_bundle_fibre_points(rng, TB, 2)
        return p, q, TB.point(q.m + shift, q.g)
    p, q = random_path_fibre_points(rng, PF, 2)
    return p, q, q.mul(product_loop(PF.grid, [(Fn.ramp(shift), SU2.basis[0])]))


@pytest.mark.parametrize("scn", [TB, PF], ids=["trivial-bundle", "path-fibration"])
def test_tau_guards_its_fibre_at_the_structure_tolerance(scn, monkeypatch):
    # one fibre tolerance for both scenarios, liegroup.ATOL_STRUCT:
    # points 1e-6 apart lie in different fibres, points of one fibre pass
    p, q, far = _fibre_pair_and_neighbour(scn, make_rng(113), 1e-6)
    scn.tau(p, q)
    with pytest.raises(ValueError, match="points in different fibres"):
        scn.tau(p, far)
    monkeypatch.setattr(gerbe, "ATOL_STRUCT", 1e-5)
    scn.tau(p, far)


def test_tau_deriv_matches_finite_differences():
    rng = make_rng(109)
    p1, p2 = random_path_fibre_points(rng, PF, 2)
    V, = random_path_fibre_tangents(rng, PF, 2)
    exact = tau_deriv(PF, p1, p2, V[0], V[1])
    fd = tau_deriv_fd(PF, p1, p2, V[0], V[1])
    assert np.max(np.abs(exact.vals - fd.vals)) < 1e-8

    m = np.array([0.1, 0.4])
    a = TB.point(m, random_loop(rng, GRID, SU2))
    b = TB.point(m, random_loop(rng, GRID, SU2))
    u = rng.normal(size=2)
    Va, Vb = tb_tangent(rng, u), tb_tangent(rng, u)
    exact = tau_deriv(TB, a, b, Va, Vb)
    fd = tau_deriv_fd(TB, a, b, Va, Vb)
    assert np.max(np.abs(exact.vals - fd.vals)) < 1e-8


def test_connection_pullback_identity():
    rng = make_rng(113)
    p1, p2 = random_path_fibre_points(rng, PF, 2)
    V, = random_path_fibre_tangents(rng, PF, 2)
    assert connection_pullback_check(PF, p1, p2, V[0], V[1]) < 1e-6

    m = np.array([-0.2, 0.5])
    a = TB.point(m, random_loop(rng, GRID, SU2))
    b = TB.point(m, random_loop(rng, GRID, SU2))
    u = rng.normal(size=2)
    assert connection_pullback_check(TB, a, b, tb_tangent(rng, u),
                                     tb_tangent(rng, u)) < 1e-6


# ---------------------------------------------------------------------------
# Higgs fields


def test_higgs_transformation_rule():
    rng = make_rng(127)
    p = tb_point(rng)
    g = random_loop(rng, GRID, SU2)
    assert higgs_transform_residual(TB, p, g) < 1e-10
    assert higgs_transform_residual(TB, p, g, TB_ALT.higgs) < 1e-10

    pp = random_path_point(rng, PF.grid, SU2)
    gam = random_loop(rng, PF.grid, SU2, based=True)
    assert higgs_transform_residual(PF, pp, gam) < 1e-10


def test_higgs_space_is_convex():
    # differences of Higgs fields are equivariant, so convex mixes
    # transform correctly; check a 0.3/0.7 mix directly
    rng = make_rng(131)
    p = tb_point(rng)
    g = random_loop(rng, GRID, SU2)

    def mix(q):
        a, b = TB.higgs(q), TB_ALT.higgs(q)
        return a * 0.3 + b * 0.7

    assert higgs_transform_residual(TB, p, g, mix) < 1e-10


def test_replace_changes_only_what_it_is_given():
    assert TB_ALT is not TB
    assert (TB_ALT.grid, TB_ALT.group, TB_ALT.a_terms) == (
        TB.grid, TB.group, TB.a_terms)
    m = np.array([0.2, -0.3])
    want = TB.rho(m) * 0.1 * SU2.basis[0]
    assert np.max(np.abs(TB_ALT.phi(m).vals - want)) < 1e-15
    assert np.max(np.abs(TB.phi(m).vals - TB.rho(m) * 0.2 * SU2.basis[2])) < 1e-15


def test_bump_is_the_product_over_the_chart():
    # the one bump of both bundles equals the closed forms they were
    # built with, bit for bit, on a stack of chart points
    m = make_rng(151).uniform(-0.9, 0.9, size=(4, 5, 3))
    m0, m1, m2 = np.moveaxis(m, -1, 0)
    f0, f1, f2 = np.moveaxis(1.0 - np.float_power(m, 2), -1, 0)
    old = {2: (f0 * f1, [-2.0 * m0 * f1, -2.0 * m1 * f0]),
           3: (f0 * f1 * f2,
               [-2.0 * m0 * f1 * f2, -2.0 * m1 * f0 * f2, -2.0 * m2 * f0 * f1])}
    h = 1e-4
    for tb in (TB, TrivialBundle.chart3(GRID)):
        x = m[..., :tb.dim]
        rho, grad = old[tb.dim]
        assert np.array_equal(tb.rho(x), rho)
        assert np.array_equal(rho_grad(tb, x), np.stack(grad, axis=-1))
        step = h * np.eye(tb.dim)
        fd = np.stack([(tb.rho(x + e) - tb.rho(x - e)) / (2.0 * h) for e in step], axis=-1)
        assert np.max(np.abs(fd - rho_grad(tb, x))) < 1e-10


def test_pf_higgs_is_log_derivative():
    rng = make_rng(137)
    p = random_path_point(rng, PF.grid, SU2)
    phi = PF.higgs(p)
    assert np.max(np.abs(phi.vals - p.log_derivative.vals)) < 1e-12


# ---------------------------------------------------------------------------
# curvature


def test_tb_curvature_fd_matches_analytic_gradient():
    rng = make_rng(139)
    p = tb_point(rng)
    V, W = tb_tangent(rng), tb_tangent(rng)
    fd = TB.curvature(p, V, W)
    exact = curvature_exact(TB, p, V, W)
    assert np.max(np.abs(fd.vals - exact.vals)) < 1e-9


def test_curvature_agrees_with_exterior_derivative_route():
    rng = make_rng(149)
    p = tb_point(rng)
    V, W = tb_tangent(rng), tb_tangent(rng)
    a = TB.curvature(p, V, W)
    b = curvature_via_ext_d(TB, p, V, W)
    assert np.max(np.abs(a.vals - b.vals)) < 1e-6

    pp = random_path_point(rng, PF.grid, SU2)
    X = random_path_tangent(rng, PF.grid, SU2)
    Y = random_path_tangent(rng, PF.grid, SU2)
    a = PF.curvature(pp, X, Y)
    b = curvature_via_ext_d(PF, pp, X, Y)
    assert np.max(np.abs(a.vals - b.vals)) < 1e-6


def test_curvature_equivariance():
    rng = make_rng(151)
    p = tb_point(rng)
    V, W = tb_tangent(rng), tb_tangent(rng)
    h = random_loop(rng, GRID, SU2)
    pushed = [(T[0], conj_loop(h, T[1])) for T in (V, W)]
    lhs = TB.curvature(TB.act(p, h), *pushed)
    rhs = conj_loop(h, TB.curvature(p, V, W))
    assert np.max(np.abs(lhs.vals - rhs.vals)) < 1e-9

    pp = random_path_point(rng, PF.grid, SU2)
    gam = random_loop(rng, PF.grid, SU2, based=True)
    X = random_path_tangent(rng, PF.grid, SU2)
    Y = random_path_tangent(rng, PF.grid, SU2)
    lhs = PF.curvature(PF.act(pp, gam), conj_loop(gam, X), conj_loop(gam, Y))
    rhs = conj_loop(gam, PF.curvature(pp, X, Y))
    assert np.max(np.abs(lhs.vals - rhs.vals)) < 1e-10


@pytest.mark.parametrize("group", (SU2, SU3), ids=lambda g: g.name)
def test_payloads_only_where_a_reader_needs_them(group):
    # omega, the curving and the caloron curvature read F and Phi at the
    # nodes only, so neither carries a theta-derivative payload; the
    # connection keeps its own, which curving_f and nabla_phi read
    # through dtheta()
    rng = make_rng(157)
    tb, pf = TrivialBundle.default(GRID, group), PathFibration(GRID, group)
    p = tb.point(rng.uniform(-0.6, 0.6, size=2), random_loop(rng, GRID, group))
    V, W = ((rng.normal(size=2), random_loop_tangent(rng, GRID, group))
            for _ in range(2))
    pp = random_path_point(rng, pf.grid, group)
    X, Y = (random_path_tangent(rng, pf.grid, group) for _ in range(2))
    for scn, q, A, B in ((tb, p, V, W), (pf, pp, X, Y)):
        assert scn.curvature(q, A, B).dvals is None
        assert scn.higgs(q).dvals is None
        a = scn.connection(q, A)
        assert a.dvals is not None
        assert np.array_equal(a.dtheta().vals, a.dvals)


def test_pf_curvature_vanishes_on_verticals():
    rng = make_rng(157)
    p = random_path_point(rng, PF.grid, SU2)
    X = random_path_tangent(rng, PF.grid, SU2, endpoint=np.zeros((2, 2)))
    Y = random_path_tangent(rng, PF.grid, SU2)
    F = PF.curvature(p, X, Y)
    assert np.max(np.abs(F.vals)) < 1e-12


# ---------------------------------------------------------------------------
# covariant derivative of the Higgs field


def test_nabla_phi_closed_form_on_path_fibration():
    rng = make_rng(163)
    p = random_path_point(rng, PF.grid, SU2)
    X = random_path_tangent(rng, PF.grid, SU2)
    generic = nabla_phi(PF, p, X)
    closed = nabla_phi_closed(p, X)
    assert np.max(np.abs(generic.vals - closed.vals)) < 1e-7


def test_nabla_phi_kills_verticals():
    rng = make_rng(167)
    p = tb_point(rng)
    xi = random_loop_tangent(rng, GRID, SU2)
    out = nabla_phi(TB, p, TB.vertical(p, xi))
    assert np.max(np.abs(out.vals)) < 1e-7

    pp = random_path_point(rng, PF.grid, SU2)
    eta = random_path_tangent(rng, PF.grid, SU2, endpoint=np.zeros((2, 2)))
    out = nabla_phi(PF, pp, eta)
    assert np.max(np.abs(out.vals)) < 1e-7


def test_nabla_phi_equivariance():
    rng = make_rng(173)
    p = tb_point(rng)
    V = tb_tangent(rng)
    h = random_loop(rng, GRID, SU2)
    lhs = nabla_phi(TB, TB.act(p, h), (V[0], conj_loop(h, V[1])))
    rhs = conj_loop(h, nabla_phi(TB, p, V))
    assert np.max(np.abs(lhs.vals - rhs.vals)) < 1e-7


def _nabla_phi_cases(group, seed, k=3):
    """(bundle, point, tangents) on both bundles at N = 64: k tangents of
    each, to be taken alone and as one stack."""
    rng = make_rng(seed)
    grid = ThetaGrid(64)
    tb, pf = TrivialBundle.default(grid, group), PathFibration(grid, group)
    p = tb.point(rng.uniform(-0.6, 0.6, size=2), random_loop(rng, grid, group))
    Vs = [(rng.normal(size=2), random_loop_tangent(rng, grid, group)) for _ in range(k)]
    pp = random_path_point(rng, pf.grid, group)
    Xs = [random_path_tangent(rng, pf.grid, group) for _ in range(k)]
    return (tb, p, Vs), (pf, pp, Xs)


@pytest.mark.parametrize("group", [SU2, SU3], ids=["su2", "su3"])
def test_nabla_phi_is_the_flow_route_and_the_closed_form(group):
    # dPhi from the Higgs field's equivariance against dPhi by whole
    # loop flows; on the path fibration also against the closed form
    for scn, p, Ts in _nabla_phi_cases(group, 179):
        for V in Ts + [stack_tangents(Ts)]:
            got = nabla_phi(scn, p, V).vals
            assert np.max(np.abs(got - nabla_phi_by_flows(scn, p, V).vals)) < 1e-9
            if isinstance(scn, PathFibration):
                assert np.max(np.abs(got - nabla_phi_closed(p, V).vals)) < 1e-9


def test_nabla_phi_needs_the_loop_payload():
    # a loop tangent without its exact theta derivative has no d_theta X
    (tb, p, (V, _, _)), (pf, pp, (X, _, _)) = _nabla_phi_cases(SU2, 181)
    with pytest.raises(ValueError, match="theta derivative"):
        nabla_phi(tb, p, (V[0], GridFun(V[1].grid, V[1].vals)))
    with pytest.raises(ValueError, match="theta derivative"):
        nabla_phi(pf, pp, GridFun(X.grid, X.vals))


# ---------------------------------------------------------------------------
# transition forms: delta(epsilon) = beta


# each identity is the one body of its row, run on each bundle with the
# bundle's sampler set
BUNDLES = ["trivial-bundle", "path-fibration"]


@pytest.mark.parametrize("scn, draw, seed", [(TB, sampling.TRIVIAL, 179),
                                             (PF, sampling.PATH, 181)], ids=BUNDLES)
def test_delta_epsilon_equals_beta(scn, draw, seed):
    rng = make_rng(seed)
    for _ in range(3):
        assert checks._transition_coboundary(scn, draw, rng) < 1e-8


# ---------------------------------------------------------------------------
# curving: delta(f) = tau^* R - d epsilon


@pytest.mark.parametrize("scn, draw, seed", [(TB, sampling.TRIVIAL, 191),
                                             (PF, sampling.PATH, 193)], ids=BUNDLES)
def test_curving_transition(scn, draw, seed):
    assert checks._curving_chain(scn, draw, make_rng(seed)) < 1e-6


# ---------------------------------------------------------------------------
# d(curving) descends to the 3-form


def test_df_is_pullback_of_string_form_path_fibration():
    rng = make_rng(197)
    p = random_path_point(rng, PF.grid, SU2)
    Ts = [random_path_tangent(rng, PF.grid, SU2) for _ in range(3)]
    fform = Form(2, lambda q, a, b: curving_f(PF, q, a, b))
    df = ext_d(fform, p, tuple(Ts), h=1e-3)
    want = 2j * np.pi * string_form_at(PF, p, *Ts)
    assert abs(df - want) < 1e-6


def test_df_vanishing_base_directions_trivial_bundle():
    # the chart is 2-dimensional, so the descended 3-form is zero and
    # the curving is numerically closed
    rng = make_rng(199)
    p = tb_point(rng)
    Ts = [tb_tangent(rng) for _ in range(3)]
    fform = Form(2, lambda q, a, b: curving_f(TB, q, a, b))
    df = ext_d(fform, p, tuple(Ts), h=1e-3)
    assert abs(df) < 1e-6
    w = string_form(TB, p.m, *[T[0] for T in Ts])
    assert abs(w) < 1e-10


def test_string_form_descends_on_lifts():
    rng = make_rng(211)
    p = random_path_point(rng, PF.grid, SU2)
    Ts = [random_path_tangent(rng, PF.grid, SU2) for _ in range(3)]
    base = string_form_at(PF, p, *Ts)

    gam = random_loop(rng, PF.grid, SU2, based=True)
    q = PF.act(p, gam)
    verts = [0.6 * random_path_tangent(rng, PF.grid, SU2, endpoint=np.zeros((2, 2)))
             for _ in range(3)]
    Us = [conj_loop(gam, T) + v for T, v in zip(Ts, verts)]
    moved = string_form_at(PF, q, *Us)
    assert abs(moved - base) < 1e-6


def _shuffle_string_form(scn, p, *Ts):
    """The descended 3-form through the shuffle-by-shuffle pairing of
    per-tangent curvature and nabla Phi calls: the oracle."""
    F = Form(2, scn.curvature)
    dphi = Form(1, lambda q, T: nabla_phi(scn, q, T))
    s = shuffle_pairing(pair_samples, (F, dphi))(p, *Ts)
    return np.real(-1.0 / (4 * np.pi ** 2) * scn.grid.quad(s))


@pytest.mark.parametrize("group", [SU2, SU3], ids=["su2", "su3"])
def test_string_form_at_equals_the_shuffle_oracle(group):
    # on both scenarios, and over a stack of chart points whose lifts
    # the oracle leaves unstacked, bit for bit
    rng = make_rng(233)
    tb, pf = TrivialBundle.chart3(GRID, group), PathFibration(GRID, group)
    for _ in range(2):
        p = random_path_point(rng, pf.grid, group)
        Ts = [random_path_tangent(rng, pf.grid, group) for _ in range(3)]
        assert string_form_at(pf, p, *Ts) == _shuffle_string_form(pf, p, *Ts)
        p, = random_bundle_fibre_points(rng, tb, 1)
        Ts = [(rng.normal(size=3), random_loop_tangent(rng, GRID, group))
              for _ in range(3)]
        assert string_form_at(tb, p, *Ts) == _shuffle_string_form(tb, p, *Ts)
        m = rng.uniform(-0.6, 0.6, size=(4, 3))
        us = [rng.normal(size=3) for _ in range(3)]
        q = tb.point(m)
        want = _shuffle_string_form(tb, q, *(tb.lift_tangent(q, u) for u in us))
        assert want.shape == (4,) and np.array_equal(string_form(tb, m, *us), want)


def test_string_form_at_calls_curvature_and_nabla_phi_once(monkeypatch):
    # the three tangents are stacked once: one curvature call on the
    # three pairs and one nabla Phi call on the three tangents
    calls = []

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            # the loop part of the last tangent argument: its stack length
            X = args[-1][1] if isinstance(args[-1], tuple) else args[-1]
            calls.append((name, len(X.vals)))
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((gerbe, "nabla_phi"), (PathFibration, "curvature"),
                        (TrivialBundle, "curvature")):
        counting(owner, name)
    rng = make_rng(239)
    p = random_path_point(rng, PF.grid, SU2)
    string_form_at(PF, p, *(random_path_tangent(rng, PF.grid, SU2) for _ in range(3)))
    assert calls == [("curvature", 3), ("nabla_phi", 3)]
    calls.clear()
    string_form(TrivialBundle.chart3(GRID), rng.uniform(-0.6, 0.6, size=3),
                *(rng.normal(size=3) for _ in range(3)))
    assert calls == [("curvature", 3), ("nabla_phi", 3)]


# ---------------------------------------------------------------------------
# the right-invariant 3-form on K


def test_omega3_orthonormal_frame_value():
    E = SU2.basis
    k = np.eye(2, dtype=complex)
    got = omega3(k, E[0], E[1], E[2])
    want = -np.sqrt(2.0) / (8 * np.pi ** 2)
    assert abs(got - want) < 1e-14


def test_omega3_right_invariance_and_alternating():
    rng = make_rng(223)
    xi = [random_algebra(rng, SU2) for _ in range(3)]
    k = exp_alg(random_algebra(rng, SU2))
    h = exp_alg(random_algebra(rng, SU2))
    at_k = omega3(k, *(x @ k for x in xi))
    at_kh = omega3(k @ h, *(x @ k @ h for x in xi))
    assert abs(at_k - at_kh) < 1e-13
    sw = omega3(k, xi[1] @ k, xi[0] @ k, xi[2] @ k)
    assert abs(at_k + sw) < 1e-13


def test_omega3_is_the_literal_six_bracket_sum_bit_for_bit():
    # omega3 shares [a, b] and [b, a] = -[a, b]; the sum over all six
    # ordered brackets, each traced through a full product, is the same
    rng = make_rng(229)
    for group in (SU2, SU3):
        k = exp_alg(np.stack([random_algebra(rng, group) for _ in range(7)]))
        raw = [mm(np.stack([random_algebra(rng, group) for _ in range(7)]), k)
               for _ in range(3)]
        hats = [mm(x, group_inv(k)) for x in raw]
        total = 0.0 + 0.0j
        for perm, sign in signed_permutations(3):
            a, b, c = (hats[i] for i in perm)
            total += sign * -np.trace(mm(bracket(a, b), c), axis1=-2, axis2=-1)
        assert np.array_equal(omega3(k, *raw), np.real(total) / (48 * np.pi ** 2))


def test_string_form_matches_omega3_at_endpoint():
    rng = make_rng(227)
    for _ in range(3):
        p = random_path_point(rng, PF.grid, SU2)
        Ts = [random_path_tangent(rng, PF.grid, SU2) for _ in range(3)]
        got = string_form_at(PF, p, *Ts)
        k = PF.project(p)
        raws = [k @ PF.project_tangent(T) for T in Ts]
        want = omega3(k, *raws)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6


def test_omega3_integrates_to_one_on_su2():
    val = omega3_su2_integral(neta=48, nxi=12)
    assert abs(val - 1.0) < 1e-3


def test_omega3_integral_keeps_its_value_at_every_size():
    # the node stacks' memory layout moves no bit of the quadrature
    want = {(64, 16): 1.0001004058641836, (32, 8): 1.0004017081549654,
            (48, 12): 1.000178509072193, (16, 4): 1.0016081890839752,
            (100, 20): 1.000041124535493}
    assert {size: omega3_su2_integral(*size) for size in want} == want


def test_omega3_integral_stacks_are_matrix_outer(monkeypatch):
    # every product of omega3 loops along the node stack: each (eta, x1,
    # x2, 2, 2) argument keeps its matrix axes outermost in memory
    seen = []
    plain = gerbe.omega3

    def spy(*args):
        seen.extend(args)
        return plain(*args)

    monkeypatch.setattr(gerbe, "omega3", spy)
    assert omega3_su2_integral(16, 4) == 1.0016081890839752
    assert len(seen) == 4
    for a in seen:
        assert a.shape == (16, 4, 4, 2, 2)
        assert min(a.strides[-2:]) > max(a.strides[:3])
