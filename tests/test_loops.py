import numpy as np
import pytest

from loopgerbe import centext, gerbe
from loopgerbe import liegroup as lg
from loopgerbe import loops, sampling
from loopgerbe.forms import Form, ext_d, tangent_bracket
from loopgerbe.loops import Fn, GridFun, LoopPoint, ThetaGrid, TrigPoly
from oracles import fd4_dtheta_closed, random_path_tangent, spectral_dtheta, velocity


def maxabs(x):
    return float(np.max(np.abs(x)))


def z_spectral(vals):
    """Z(g) = (d_theta g) g^(-1) from the FFT derivative of periodic loop
    samples: the numerical reference for the exact Z payload."""
    return lg.project_algebra(lg.mm(spectral_dtheta(vals), lg.group_inv(vals)))


def test_grid_validation():
    with pytest.raises(ValueError):
        ThetaGrid(7)  # odd
    with pytest.raises(ValueError):
        ThetaGrid(4)  # too small
    g = ThetaGrid(16)
    assert len(g.nodes) == g.size == 16
    c = ThetaGrid(16, closed=True)
    assert len(c.nodes) == c.size == 17
    assert abs(g.h - 2 * np.pi / 16) < 1e-15 and c.h == g.h


def test_grid_nodes_are_built_once_and_read_only():
    g, c = ThetaGrid(24), ThetaGrid(24, closed=True)
    assert g.nodes is g.nodes and c.nodes is c.nodes
    assert np.array_equal(g.nodes, 2.0 * np.pi * np.arange(24) / 24)
    assert np.array_equal(c.nodes, 2.0 * np.pi * np.arange(25) / 24)
    for nodes in (g.nodes, c.nodes):
        with pytest.raises(ValueError):
            nodes[0] = 1.0
    # equal grids stay equal and hashable with their nodes built; the
    # flavour is part of the grid
    assert g == ThetaGrid(24) and hash(g) == hash(ThetaGrid(24))
    assert c == ThetaGrid(24, True) and g != c


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
    assert maxabs(spectral_dtheta(f) - df) < 1e-12


def test_dtheta_convergence_non_bandlimited():
    # exp(sin t) is smooth but not a finite Fourier sum
    errs_sp = []
    for n in (32, 64):
        grid = ThetaGrid(n)
        t = grid.nodes
        f = np.exp(np.sin(t))
        df = np.cos(t) * f
        errs_sp.append(maxabs(spectral_dtheta(f) - df))
    assert errs_sp[1] < 1e-12  # spectral converges faster than any power


def test_fd4_closed_converges_at_order_four():
    errs = []
    for m in (33, 65):
        x = np.linspace(0.0, 1.0, m)
        f = np.exp(x) * np.sin(3 * x)
        df = np.exp(x) * (np.sin(3 * x) + 3 * np.cos(3 * x))
        errs.append(maxabs(fd4_dtheta_closed(f, x[1] - x[0]) - df))
    assert errs[0] < 1e-3
    assert errs[0] / errs[1] > 12.0


def test_gridfun_exact_derivative_payload():
    grid = ThetaGrid(16)
    tp = TrigPoly(0.3, (0.5,), (0.2, 0.1))
    X = GridFun.from_profiles(grid, [(tp, lg.SU2.basis[0])])
    d = X.dtheta()
    t = grid.nodes
    dtp = -0.5 * np.sin(t) + 0.2 * np.cos(t) + 0.2 * np.cos(2 * t)
    want = dtp[:, None, None] * lg.SU2.basis[0]
    assert maxabs(d.vals - want) < 1e-14  # payload route, not spectral


def test_gridfun_arithmetic_propagates_derivatives():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(21)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    Y = sampling.random_loop_tangent(rng, grid, lg.SU2)
    S = X + Y * (-2.0)
    assert S.dvals is not None
    assert maxabs(S.dvals - (X.dvals - 2.0 * Y.dvals)) < 1e-14


def test_gridfun_interp_trig():
    grid = ThetaGrid(16)
    tp = TrigPoly(0.1, (0.4, 0.2), (0.3,))
    X = GridFun.from_profiles(grid, [(tp, lg.SU2.basis[1])])
    for theta in (0.0, 0.37, grid.nodes[5], 2 * np.pi - 1e-3):
        want = tp.val_dval(theta)[0] * lg.SU2.basis[1]
        assert maxabs(X.interp(float(theta)) - want) < 1e-12


def test_loop_z_exact_vs_numeric():
    grid = ThetaGrid(64)
    rng = sampling.make_rng(22)
    g = sampling.random_loop(rng, grid, lg.SU3)
    assert maxabs(g.zvals - z_spectral(g.vals)) < 1e-9


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
    ld = g.log_derivative
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
    spect = spectral_dtheta(C.vals)
    assert maxabs(C.dvals - spect) < 1e-9


def test_loop_flow_keeps_z_payload():
    grid = ThetaGrid(64)
    rng = sampling.make_rng(26)
    g = sampling.random_loop(rng, grid, lg.SU2)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    gt = g.flow(X, 0.3)
    assert maxabs(gt.zvals - z_spectral(gt.vals)) < 1e-9


def test_theta_derivatives_come_only_from_payloads():
    # a grid has no numerical derivative: a loop needs its Z, and a
    # tangent without dvals has no derivative and no flow
    grid = ThetaGrid(16)
    rng = sampling.make_rng(38)
    g = sampling.random_loop(rng, grid, lg.SU2)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    with pytest.raises(TypeError):
        LoopPoint(grid, g.vals)
    bare = GridFun(grid, X.vals)
    with pytest.raises(ValueError, match="no exact theta derivative"):
        bare.dtheta()
    with pytest.raises(ValueError, match="dvals"):
        g.flow(bare, 0.1)
    assert g.z().vals is g.zvals and X.dtheta().vals is X.dvals


def test_closed_loop_constructors():
    grid = ThetaGrid(16, closed=True)
    rng = sampling.make_rng(27)
    p = sampling.random_path_point(rng, grid, lg.SU2)
    assert p.grid.closed
    assert maxabs(p.vals[0] - np.eye(2)) < 1e-12
    gam = sampling.random_loop(rng, grid, lg.SU2, based=True)
    assert maxabs(gam.vals[0] - np.eye(2)) < 1e-12
    assert maxabs(gam.vals[-1] - np.eye(2)) < 1e-12
    (X,), = sampling.PATH.fibre_tangents(rng, gerbe.PathFibration(grid), 1)
    assert X.grid == grid and maxabs(X.vals[0]) < 1e-12
    V = random_path_tangent(rng, grid, lg.SU2, endpoint=np.zeros((2, 2)))
    assert maxabs(V.vals[-1]) < 1e-12


def test_path_samplers_need_the_closed_grid():
    # the path fibration holds the closed grid of the N it is given, and
    # the point sampler, which takes a grid, refuses a periodic one (the
    # fibre samplers take the scenario, whose grid is closed)
    grid = ThetaGrid(16)
    assert gerbe.PathFibration(grid).grid == ThetaGrid(16, closed=True)
    rng = sampling.make_rng(27)
    with pytest.raises(ValueError):
        sampling.random_path_point(rng, grid, lg.SU2)


def test_samples_must_match_the_node_count():
    # a loop is checked against its grid when it is built, as a grid
    # function is, not first inside z()
    for grid in (ThetaGrid(16), ThetaGrid(16, closed=True)):
        for m in (grid.size - 1, grid.size + 1):
            vals = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
            with pytest.raises(ValueError):
                LoopPoint(grid, vals, np.zeros_like(vals))
            with pytest.raises(ValueError):
                GridFun(grid, vals)
        assert LoopPoint.identity(grid, 2).vals.shape == (grid.size, 2, 2)
        assert GridFun.zero(grid, 2).vals.shape == (grid.size, 2, 2)


def test_path_exact_velocity_matches_fd():
    # interior stencils are tighter than the one-sided end rows
    grid = ThetaGrid(16)
    rng = sampling.make_rng(28)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    fd = velocity(f).vals
    # row -1 is the one-sided stencil at s = 1, not a row of the stencil
    # at the start of the path
    for i in (0, 1, 127, 128, -1):
        assert maxabs(fd[i] - f.vel.vals[i]) < 1e-6
    for i in (7, 64):
        assert maxabs(fd[i] - f.vel.vals[i]) < 1e-7


def test_path_samples_must_stack_the_path_nodes():
    # an unstacked loop, or a stack of the wrong length, would otherwise
    # be read with theta as the path axis, or broadcast as a constant path
    grid = ThetaGrid(16)
    rng = sampling.make_rng(28)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=9)
    with pytest.raises(ValueError):
        loops.PathInLoopGroup(f.sgrid, LoopPoint(grid, f.g.vals[3], f.g.zvals[3]),
                              f.vel)
    with pytest.raises(ValueError):
        loops.PathInLoopGroup(f.sgrid, f.g, GridFun(grid, f.vel.vals[3]))
    with pytest.raises(ValueError):
        loops.PathInLoopGroup(f.sgrid[:8], f.g, f.vel)


def test_stacked_interp_and_endpoint_act_along_theta():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(29)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=5)
    for theta in (0.37, 2 * np.pi - 1e-3):
        got = f.vel.interp(theta)
        assert got.shape == (5, 2, 2)
        for i in range(5):
            assert np.array_equal(got[i], GridFun(grid, f.vel.vals[i]).interp(theta))
    cgrid = ThetaGrid(16, closed=True)
    ps = [sampling.random_path_point(rng, cgrid, lg.SU2) for _ in range(3)]
    p = LoopPoint(cgrid, np.stack([q.vals for q in ps]), np.stack([q.zvals for q in ps]))
    assert np.array_equal(p.endpoint(), p.vals[:, -1])


def test_path_velocity_is_the_closed_grid_stencil():
    # every node, one-sided end rows included, is the closed-grid
    # stencil over the path nodes, left-trivialised at that node
    grid = ThetaGrid(16)
    rng = sampling.make_rng(31)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=9)
    ds = f.sgrid[1] - f.sgrid[0]
    raw = fd4_dtheta_closed(f.g.vals, ds)
    vel = velocity(f)
    assert vel.vals.shape == (9, grid.n, 2, 2)
    for i in range(f.m):
        want = lg.project_algebra(lg.mm(lg.group_inv(f.g.vals[i]), raw[i]))
        assert np.array_equal(vel.vals[i], want)
    short = loops.PathInLoopGroup(f.sgrid[:4],
                                  LoopPoint(grid, f.g.vals[:4], f.g.zvals[:4]),
                                  GridFun(grid, f.vel.vals[:4]))
    with pytest.raises(ValueError):
        velocity(short)


def test_path_product_velocity():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(29)
    f = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    g = sampling.random_group_path(rng, grid, lg.SU2, npath=129)
    fg = f.mul(g)
    fd = velocity(fg).vals
    for i in (33, 80):
        assert maxabs(fg.vel.vals[i] - fd[i]) < 2e-6


def test_path_factor_needs_its_theta_derivative():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(36)
    X = sampling.random_loop_tangent(rng, grid, lg.SU2)
    sigma = sampling.random_unit_profile(rng)
    with pytest.raises(ValueError, match="dvals"):
        loops.path_from_factors(grid, [(sigma, GridFun(grid, X.vals))], npath=9)
    with pytest.raises(ValueError):
        loops.path_from_factors(grid, [], npath=9)


def test_pair_and_quad_pair():
    grid = ThetaGrid(32)
    t = grid.nodes
    E1 = lg.SU2.basis[0]
    X = GridFun(grid, np.sin(t)[:, None, None] * E1)
    Y = GridFun(grid, np.cos(t)[:, None, None] * E1)
    s = loops.pair_samples(X, X)
    assert maxabs(s - np.sin(t) ** 2) < 1e-13
    assert abs(grid.quad(s) - np.pi) < 1e-12
    assert abs(grid.quad(loops.pair_samples(X, Y))) < 1e-12


def test_pair_samples_is_the_invariant_pairing():
    # one pairing kernel: node-wise pairing of tangents is liegroup.inner,
    # bit for bit, on stacked operands and on one broadcast against a stack
    grid = ThetaGrid(16)
    rng = sampling.make_rng(39)
    for group in (lg.SU2, lg.SU3):
        Xs = [sampling.random_loop_tangent(rng, grid, group) for _ in range(3)]
        Ys = [sampling.random_loop_tangent(rng, grid, group) for _ in range(3)]
        X = GridFun(grid, np.stack([V.vals for V in Xs]))
        Y = GridFun(grid, np.stack([V.vals for V in Ys]))
        got = loops.pair_samples(X, Y)
        assert got.shape == (3, grid.n)
        assert np.array_equal(got, lg.inner(X.vals, Y.vals))
        one = loops.pair_samples(X, Ys[0])
        assert np.array_equal(one, lg.inner(X.vals, np.stack([Ys[0].vals] * 3)))


def test_fn_combinators():
    f = Fn.add(Fn.ramp(2.0, period=1.0), Fn.based(TrigPoly(0.0, (1.0,), ())))
    s = np.array([0.0, 0.25, 1.0])
    want = 2.0 * s + (np.cos(s) - 1.0)
    v, d = f.val_dval(s)
    assert maxabs(v - want) < 1e-14
    assert abs(f.val_dval(np.asarray(0.0))[0]) < 1e-14
    assert maxabs(d - (2.0 - np.sin(s))) < 1e-14


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count the eigendecompositions made through np.linalg.eigh."""
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_one_eigh_per_algebra_element(eigh_calls):
    grid = ThetaGrid(32)
    rng = sampling.make_rng(32)
    g = sampling.random_loop(rng, grid, lg.SU3)
    X = sampling.random_loop_tangent(rng, grid, lg.SU3)
    eigh_calls.clear()
    gt = g.flow(X, 0.4)
    assert gt.zvals is not None and len(eigh_calls) == 1
    # product_loop decomposes each constant generator once, all of them
    # in one stacked call
    eigh_calls.clear()
    factors = [(sampling.random_trig(rng), sampling.random_algebra(rng, lg.SU3))
               for _ in range(3)]
    loops.product_loop(grid, factors)
    assert eigh_calls == [(3, 3, 3)]
    # path_from_factors: one per factor, whatever the number of path nodes
    pfactors = [(sampling.random_unit_profile(rng),
                 sampling.random_loop_tangent(rng, grid, lg.SU3)) for _ in range(3)]
    for npath in (5, 17, 65):
        eigh_calls.clear()
        loops.path_from_factors(grid, pfactors, npath)
        assert eigh_calls == [(grid.n, 3, 3)] * 3


def test_one_eigh_per_flow_direction(eigh_calls):
    grid = ThetaGrid(32)
    rng = sampling.make_rng(34)
    # d of a 2-form on three tangents: twelve flows, one eigh per tangent
    g = sampling.random_loop(rng, grid, lg.SU3)
    Xs = tuple(sampling.random_loop_tangent(rng, grid, lg.SU3) for _ in range(3))
    two = Form(2, lambda q, X, Y: centext.gomi_cocycle_Z(q, tangent_bracket(X, Y)))
    eigh_calls.clear()
    ext_d(two, g, Xs)
    assert eigh_calls == [(grid.n, 3, 3)] * 3


@pytest.mark.parametrize("group", (lg.SU2, lg.SU3), ids=lambda g: g.name)
def test_a_stacked_draw_is_one_build(eigh_calls, monkeypatch, group):
    # a sampler of k loops makes one product_loop call and one eigh for
    # all of them, and a sampler of k tangents one from_profiles call; a
    # path fibre adds the product loop of its point
    products, sums = [], []
    real_product, real_sum = sampling.product_loop, GridFun.from_profiles

    def product(*args):
        products.append(args)
        return real_product(*args)

    def from_profiles(*args):
        sums.append(args)
        return real_sum(*args)

    monkeypatch.setattr(sampling, "product_loop", product)
    monkeypatch.setattr(GridFun, "from_profiles", staticmethod(from_profiles))
    grid = ThetaGrid(32)
    tb, pf = gerbe.TrivialBundle.default(grid, group), gerbe.PathFibration(grid, group)
    rng = sampling.make_rng(36)
    for draw, builds in ((lambda: sampling.random_loops(rng, grid, group, 3), 1),
                         (lambda: sampling.TRIVIAL.fibre_points(rng, tb, 3), 1),
                         (lambda: sampling.PATH.fibre_points(rng, pf, 3), 2)):
        del eigh_calls[:], products[:]
        assert len(draw()) == 3
        assert len(eigh_calls) == len(products) == builds
    for draw in (lambda: sampling.random_loop_tangents(rng, grid, group, 6),
                 lambda: sum(sampling.TRIVIAL.fibre_tangents(rng, tb, 3, k=2), ()),
                 lambda: sum(sampling.PATH.fibre_tangents(rng, pf, 3, k=2), ())):
        del sums[:]
        assert len(draw()) == 6
        assert len(sums) == 1


def test_flow_from_kept_decomposition_is_the_direct_route():
    grid = ThetaGrid(32)
    rng = sampling.make_rng(35)
    for group in (lg.SU2, lg.SU3):
        g = sampling.random_loop(rng, grid, group)
        X = sampling.random_loop_tangent(rng, grid, group)
        for t in (1e-4, -5e-5, 0.7, 1e-4):
            e, d = lg.exp_dexp_right(X.vals, X.dvals, t)
            gt = g.flow(X, t)
            assert np.array_equal(gt.vals, lg.mm(g.vals, e))
            assert np.array_equal(gt.zvals, g.zvals + lg.adjoint(g.vals, d))


def test_bad_tangent_raises_on_every_flow():
    grid = ThetaGrid(16)
    g = LoopPoint.identity(grid, 2)
    herm = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), (16, 2, 2))
    X = GridFun(grid, herm, dvals=np.zeros_like(herm))
    for _ in range(2):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            g.flow(X, 1e-3)


def _path_node_by_node(grid, factors, s):
    """Reference: the path node at s from per-node exp_alg and AlgEig.dexp."""
    lp = vel = None
    for sigma, X in factors:
        sv, dsv = (float(x) for x in sigma.val_dval(np.asarray(s)))
        e = LoopPoint(grid, lg.exp_alg(sv * X.vals),
                      zvals=lg.eig_alg(sv * X.vals, sv * X.dvals).dexp())
        term = GridFun(grid, dsv * X.vals)
        if lp is None:
            lp, vel = e, term
        else:
            lp, vel = lp.mul(e), loops.conj_loop(e, vel) + term
    return lp, vel


def test_batched_path_matches_node_by_node_reference():
    grid = ThetaGrid(16)
    rng = sampling.make_rng(33)
    for group in (lg.SU2, lg.SU3):
        factors = [(sampling.random_unit_profile(rng),
                    sampling.random_loop_tangent(rng, grid, group)) for _ in range(3)]
        f = loops.path_from_factors(grid, factors, npath=11)
        assert f.m == 11
        assert f.vel.dvals is None
        for i, s in enumerate(f.sgrid):
            lp, vel = _path_node_by_node(grid, factors, s)
            assert maxabs(f.g.vals[i] - lp.vals) < 1e-13
            assert maxabs(f.g.zvals[i] - lp.zvals) < 1e-13
            assert maxabs(f.vel.vals[i] - vel.vals) < 1e-13
