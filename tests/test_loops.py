import numpy as np
import pytest

from loopgerbe import liegroup as lg
from loopgerbe import loops, sampling
from loopgerbe.loops import Fn, GridFun, LoopPoint, ThetaGrid, TrigPoly


def maxabs(x):
    return float(np.max(np.abs(x)))


def test_grid_validation():
    with pytest.raises(ValueError):
        ThetaGrid(7)  # odd
    with pytest.raises(ValueError):
        ThetaGrid(4)  # too small
    g = ThetaGrid(16)
    assert len(g.nodes) == 16
    assert len(g.closed_nodes) == 17
    assert abs(g.h - 2 * np.pi / 16) < 1e-15


def test_quad_s1_exact_on_trig():
    grid = ThetaGrid(16)
    t = grid.nodes
    # int sin^2 = pi, and the periodic trapezoid rule is exact here
    assert abs(loops.quad_s1(np.sin(t) ** 2) - np.pi) < 1e-13
    assert abs(loops.quad_s1(np.cos(t) * np.sin(t))) < 1e-13


def test_quad_closed_cubic_both_parities():
    # composite Simpson with a 3/8 tail is exact on cubics
    for m in (8, 9):
        x = np.linspace(0.0, 1.0, m + 1)
        val = loops.quad_closed(x ** 3, x[1] - x[0])
        assert abs(val - 0.25) < 1e-14
        assert abs(loops.quad_unit(x ** 3) - 0.25) < 1e-14


def test_spectral_dtheta_exact_on_bandlimited():
    grid = ThetaGrid(32)
    t = grid.nodes
    f = np.cos(3 * t) + 0.5 * np.sin(5 * t)
    df = -3 * np.sin(3 * t) + 2.5 * np.cos(5 * t)
    assert maxabs(loops.spectral_dtheta(f) - df) < 1e-12


def test_dtheta_convergence_non_bandlimited():
    # exp(sin t) is smooth but not a finite Fourier sum
    errs_sp = []
    for n in (32, 64):
        grid = ThetaGrid(n)
        t = grid.nodes
        f = np.exp(np.sin(t))
        df = np.cos(t) * f
        errs_sp.append(maxabs(loops.spectral_dtheta(f) - df))
    assert errs_sp[1] < 1e-12  # spectral converges faster than any power


def test_fd4_closed_converges_at_order_four():
    errs = []
    for m in (33, 65):
        x = np.linspace(0.0, 1.0, m)
        f = np.exp(x) * np.sin(3 * x)
        df = np.exp(x) * (np.sin(3 * x) + 3 * np.cos(3 * x))
        errs.append(maxabs(loops.fd4_dtheta_closed(f, x[1] - x[0]) - df))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 12.0


def test_gridfun_exact_derivative_payload():
    grid = ThetaGrid(16)
    tp = TrigPoly(0.3, (0.5,), (0.2, 0.1))
    X = GridFun.from_profiles(grid, [(tp.as_fn(), lg.SU2.basis[0])])
    d = X.dtheta()
    t = grid.nodes
    want = tp.dval(t)[:, None, None] * lg.SU2.basis[0]
    assert maxabs(d.vals - want) < 1e-14  # payload route, not spectral


def test_gridfun_arithmetic_propagates_derivatives():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(21)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    Y = sampling.random_loop_tangent(rng, grid, lg.SU2)
    S = X + Y * (-2.0)
    assert S.dvals is not None
    assert maxabs(S.dvals - (X.dvals - 2.0 * Y.dvals)) < 1e-14
    c = np.cos(grid.nodes)
    P = X.scale_profile(c, -np.sin(grid.nodes))
    want = -np.sin(grid.nodes)[:, None, None] * X.vals + c[:, None, None] * X.dvals
    assert maxabs(P.dvals - want) < 1e-14


def test_gridfun_interp_trig():
    grid = ThetaGrid(16)
    tp = TrigPoly(0.1, (0.4, 0.2), (0.3,))
    X = GridFun.from_profiles(grid, [(tp.as_fn(), lg.SU2.basis[1])])
    for theta in (0.0, 0.37, grid.nodes[5], 2 * np.pi - 1e-3):
        want = tp.val(theta) * lg.SU2.basis[1]
        assert maxabs(X.interp(float(theta)) - want) < 1e-12


def test_loop_z_exact_vs_numeric():
    grid = ThetaGrid(64)
    rng = sampling.make_rng(22)
    g = sampling.random_loop(rng, grid, lg.SU3, nfactors=2)
    znum = LoopPoint(grid, g.vals).z()  # spectral route, payload dropped
    assert maxabs(g.zvals - znum.vals) < 1e-9


def test_z_product_and_inverse_rules():
    grid = ThetaGrid(32)
    rng = sampling.make_rng(23)
    g = sampling.random_loop(rng, grid, lg.SU2)
    h = sampling.random_loop(rng, grid, lg.SU2)
    gh = g.mul(h)
    want = g.zvals + np.einsum("tij,tjk,tkl->til", g.vals, h.zvals,
                               lg.group_inv(g.vals))
    assert maxabs(gh.zvals - want) < 1e-12
    gi = g.inv()
    want_inv = -np.einsum("tij,tjk,tkl->til", lg.group_inv(g.vals), g.zvals, g.vals)
    assert maxabs(gi.zvals - want_inv) < 1e-12


def test_log_derivative():
    grid = ThetaGrid(32)
    rng = sampling.make_rng(24)
    g = sampling.random_loop(rng, grid, lg.SU2)
    ld = g.log_derivative()
    want = np.einsum("tij,tjk->tik", lg.group_inv(g.vals),
                     np.einsum("tij,tjk->tik", g.zvals, g.vals))
    assert maxabs(ld.vals - want) < 1e-12


def test_conj_loop_derivative_identity():
    # d/dtheta Ad(h^-1) X = Ad(h^-1)(X' + [X, Z(h)])
    grid = ThetaGrid(64)
    rng = sampling.make_rng(25)
    h = sampling.random_loop(rng, grid, lg.SU2)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    C = loops.conj_loop(h, X)
    assert C.dvals is not None
    spect = loops.spectral_dtheta(C.vals)
    assert maxabs(C.dvals - spect) < 1e-9


def test_loop_flow_keeps_z_payload():
    grid = ThetaGrid(64)
    rng = sampling.make_rng(26)
    g = sampling.random_loop(rng, grid, lg.SU2)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    gt = g.flow(X, 0.3)
    znum = LoopPoint(grid, gt.vals).z()
    assert gt.zvals is not None
    assert maxabs(gt.zvals - znum.vals) < 1e-9


def test_closed_loop_constructors():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(27)
    p = sampling.random_path_point(rng, grid, lg.SU2)
    assert p.closed
    assert maxabs(p.vals[0] - np.eye(2)) < 1e-12
    gam = sampling.random_loop(rng, grid, lg.SU2, closed=True, based=True)
    assert maxabs(gam.vals[0] - np.eye(2)) < 1e-12
    assert maxabs(gam.vals[-1] - np.eye(2)) < 1e-12
    X = sampling.random_path_tangent(rng, grid, lg.SU2)
    assert maxabs(X.vals[0]) < 1e-12
    V = sampling.random_path_tangent(rng, grid, lg.SU2, endpoint="zero")
    assert maxabs(V.vals[-1]) < 1e-12


def test_path_exact_velocity_matches_fd():
    # interior stencils are tighter than the one-sided end rows
    grid = ThetaGrid(16)
    rng = sampling.make_rng(28)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    for i in (0, 1, 127, 128):
        assert maxabs(f.velocity(i).vals - f.velocity_exact(i).vals) < 1e-6
    for i in (7, 64):
        assert maxabs(f.velocity(i).vals - f.velocity_exact(i).vals) < 1e-7


def test_path_product_velocity():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(29)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    g = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    fg = f.mul(g)
    for i in (33, 80):
        assert maxabs(fg.velocity_exact(i).vals - fg.velocity(i).vals) < 2e-6


def test_pair_and_quad_pair():
    grid = ThetaGrid(32)
    t = grid.nodes
    E1 = lg.SU2.basis[0]
    X = GridFun(grid, np.sin(t)[:, None, None] * E1)
    Y = GridFun(grid, np.cos(t)[:, None, None] * E1)
    s = loops.pair_samples(X, X)
    assert maxabs(s - np.sin(t) ** 2) < 1e-13
    assert abs(loops.quad_pair(X, X) - np.pi) < 1e-12
    assert abs(loops.quad_pair(X, Y)) < 1e-12


def test_fn_combinators():
    f = Fn.add(Fn.ramp(2.0, period=1.0), Fn.based(TrigPoly(0.0, (1.0,), ()).as_fn()))
    s = np.array([0.0, 0.25, 1.0])
    want = 2.0 * s + (np.cos(s) - 1.0)
    assert maxabs(f.val(s) - want) < 1e-14
    assert abs(f.val(np.asarray(0.0))) < 1e-14
