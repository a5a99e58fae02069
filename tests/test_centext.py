import numpy as np
import pytest

from loopgerbe import centext, checks, liegroup as lg, loops, sampling
from loopgerbe.centext import (cocycle_c, eval_R, eval_alpha, gomi_cocycle_Z,
                               reduced_splitting_check)
from loopgerbe.forms import delta_nerve, ext_d
from loopgerbe.loops import GridFun, LoopPoint, ThetaGrid, path_from_factors
from oracles import spectral_dtheta


GRID = ThetaGrid(64)
E1, E2, E3 = lg.SU2.basis


def profile_fun(t):
    return np.sin(t)


SIN = loops.Fn.of(np.sin, np.cos)
COS = loops.Fn.of(np.cos, lambda t: -np.sin(t))


def make_vec(profile, E, grid=GRID):
    """profile(theta) E with its exact theta derivative; profile is a Fn."""
    val, dval = profile.val_dval(grid.nodes)
    return GridFun(grid, val[:, None, None] * E, dvals=dval[:, None, None] * E)


def test_R_frozen_values():
    g = LoopPoint.identity(GRID, 2)
    X = make_vec(SIN, E1)
    Y = make_vec(COS, E1)
    for V in (X, Y):
        assert np.max(np.abs(V.dvals - spectral_dtheta(V.vals))) < 1e-12
    # same direction, quarter-phase profiles: analytic integral gives -i/2
    assert abs(eval_R(g, X, Y) - (-0.5j)) < 1e-12
    assert abs(eval_R(g, X, X)) < 1e-14
    # orthogonal directions kill the pairing pointwise
    Y2 = make_vec(COS, E2)
    assert abs(eval_R(g, X, Y2)) < 1e-13


def test_R_left_invariant():
    rng = sampling.make_rng(41)
    X = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    Y = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    g1 = LoopPoint.identity(GRID, 2)
    g2 = sampling.random_loop(rng, GRID, lg.SU2)
    assert abs(eval_R(g1, X, Y) - eval_R(g2, X, Y)) < 1e-14


def test_forms_reject_data_on_another_node():
    # one grid rule: a one-node grid compares equal to the full grid it
    # samples, but its data combine with data on that node only
    rng = sampling.make_rng(54)
    full, one = ThetaGrid(16), ThetaGrid(16, node=3)
    g, g1 = (sampling.random_loop(rng, grid, lg.SU2) for grid in (full, one))
    X, Y = (sampling.random_loop_tangent(rng, full, lg.SU2) for _ in range(2))
    X1 = sampling.random_loop_tangent(rng, one, lg.SU2)
    for fail in (lambda: eval_R(g1, X, Y), lambda: eval_alpha(g, g, X, X1),
                 lambda: gomi_cocycle_Z(g1, X)):
        with pytest.raises(ValueError, match="grid mismatch"):
            fail()


def test_alpha_frozen_values():
    rng = sampling.make_rng(42)
    g = sampling.random_loop(rng, GRID, lg.SU2)
    h = loops.product_loop(GRID, [(loops.TrigPoly(0.0, (), (1.0,)), E1)])
    const = GridFun(GRID, np.broadcast_to(E1, (GRID.n, 2, 2)),
                    dvals=np.zeros((GRID.n, 2, 2), dtype=complex))
    zero = GridFun.zero(GRID, 2)
    # <E1, cos E1> integrates to zero over a period
    assert abs(eval_alpha(g, h, const, zero)) < 1e-13
    cosv = make_vec(COS, E1)
    assert abs(eval_alpha(g, h, cosv, zero) - 0.5j) < 1e-12
    # constant second factor has Z = 0
    kv = np.broadcast_to(lg.exp_alg(0.3 * E2), (GRID.n, 2, 2)).copy()
    k = LoopPoint(GRID, kv, zvals=np.zeros_like(kv))
    assert abs(eval_alpha(g, k, cosv, zero)) < 1e-14
    # the form only sees the first-slot velocity
    W = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    assert abs(eval_alpha(g, h, zero, W)) < 1e-14


def test_alpha_slot_resolved():
    assert centext.alpha_slot() == centext.ALPHA_SLOT == "first"


def test_swapped_alpha_slot_fails_its_rows(monkeypatch):
    # alpha eating the second factor's velocity breaks d(alpha) = delta(R):
    # every row built on alpha fails, where the pinned slot passes
    cfg = checks.RunConfig(ntheta=32, npath=16)
    names = ("central-extension/pair-form-coboundary",
             "central-extension/cochain-closed",
             "central-extension/path-cocycle-identity",
             "trivial-bundle/transition-coboundary")

    def passes():
        return [checks.run_check(checks.CHECKS[name], cfg)["pass"]
                for name in names]

    assert passes() == [True] * 4
    monkeypatch.setattr(centext, "eval_alpha",
                        lambda g, h, Xg, Xh: gomi_cocycle_Z(g, Xh))
    assert passes() == [False] * 4


def nerve_sample(rng, q, grid=GRID, group=lg.SU2):
    pt = tuple(sampling.random_loop(rng, grid, group) for _ in range(q))
    def vec():
        return tuple(sampling.random_loop_tangent(rng, grid, group)
                     for _ in range(q))
    return pt, vec


def test_d_alpha_equals_delta_R():
    alpha, r2 = centext.extension_forms()
    rng = sampling.make_rng(43)
    dr = delta_nerve(r2)
    for _ in range(5):
        pt, vec = nerve_sample(rng, 2)
        V, W = vec(), vec()
        lhs = ext_d(alpha, pt, (V, W))
        rhs = dr(pt, V, W)
        assert abs(lhs - rhs) < 1e-8


def test_delta_alpha_zero():
    alpha, _ = centext.extension_forms()
    da = delta_nerve(alpha)
    rng = sampling.make_rng(44)
    for _ in range(5):
        pt, vec = nerve_sample(rng, 3)
        assert abs(da(pt, vec())) < 1e-10


def test_values_are_i_real():
    alpha, r2 = centext.extension_forms()
    rng = sampling.make_rng(45)
    pt2, vec2 = nerve_sample(rng, 2)
    pt1, vec1 = nerve_sample(rng, 1)
    assert abs(eval_alpha(pt2[0], pt2[1], vec2()[0], vec2()[1]).real) < 1e-12
    V, W = vec1(), vec1()
    assert abs(eval_R(pt1[0], V[0], W[0]).real) < 1e-12


def random_path(rng, npath=129):
    return sampling.random_group_path(rng, GRID, lg.SU2, npath)


def test_cocycle_trivial_cases():
    rng = sampling.make_rng(46)
    f = random_path(rng)
    ident = path_from_factors(GRID, [(loops.TrigPoly(), GridFun.zero(GRID, 2))],
                              npath=f.m)
    assert abs(cocycle_c(f, ident) - 1.0) < 1e-12
    assert abs(cocycle_c(ident, f) - 1.0) < 1e-12
    assert abs(abs(cocycle_c(f, random_path(rng))) - 1.0) < 1e-10


def test_cocycle_identity():
    rng = sampling.make_rng(47)
    for _ in range(3):
        f, g, k = (random_path(rng) for _ in range(3))
        lhs = cocycle_c(f, g) * cocycle_c(f.mul(g), k)
        rhs = cocycle_c(g, k) * cocycle_c(f, g.mul(k))
        assert abs(lhs - rhs) < 1e-6


def test_cocycle_commuting_closed_form():
    # f(s) = exp(s a E1), g(s) = exp(s b E1): everything commutes and
    # log c = (i/4 pi) int a b' dtheta
    rng = sampling.make_rng(48)
    a = sampling.random_trig(rng)
    b = sampling.random_trig(rng)
    A = GridFun.from_profiles(GRID, [(a, E1)])
    B = GridFun.from_profiles(GRID, [(b, E1)])
    lin = loops.Fn.ramp(1.0, period=1.0)
    f = path_from_factors(GRID, [(lin, A)], npath=129)
    g = path_from_factors(GRID, [(lin, B)], npath=129)
    t = GRID.nodes
    want = 0.25j / np.pi * loops.quad_s1(a.val(t) * b.val_dval(t)[1])
    got = np.log(cocycle_c(f, g))
    assert abs(got - want) < 1e-7


def node(path, i):
    """Node i of a path as an unstacked loop and velocity."""
    g, v = path.g, path.vel
    return (LoopPoint(g.grid, g.vals[i], zvals=g.zvals[i]),
            GridFun(v.grid, v.vals[i]))


def test_cocycle_is_the_per_node_quadrature():
    # one stacked evaluation of alpha gives the bits of one call per node
    rng = sampling.make_rng(54)
    for group, npath in ((lg.SU2, 129), (lg.SU3, 33)):
        f, g = (sampling.random_group_path(rng, GRID, group, npath) for _ in range(2))
        for a, b in ((f, g), (f.mul(g), f)):
            assert a.vel.dvals is None
            vals = []
            for i in range(a.m):
                (ga, va), (gb, vb) = node(a, i), node(b, i)
                vals.append(eval_alpha(ga, gb, va, vb))
            assert cocycle_c(a, b) == complex(np.exp(loops.quad_unit(np.array(vals))))


def test_gomi_frozen_and_alpha_relation():
    rng = sampling.make_rng(53)
    g = loops.product_loop(GRID, [(loops.TrigPoly(0.0, (), (1.0,)), E1)])
    X = make_vec(COS, E1)
    assert abs(gomi_cocycle_Z(g, X) - 0.5j) < 1e-12
    kv = np.broadcast_to(lg.exp_alg(0.4 * E3), (GRID.n, 2, 2)).copy()
    k = LoopPoint(GRID, kv, zvals=np.zeros_like(kv))
    assert abs(gomi_cocycle_Z(k, X)) < 1e-14
    h = sampling.random_loop(rng, GRID, lg.SU2)
    W = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    ident = LoopPoint.identity(GRID, 2)
    rel = gomi_cocycle_Z(h, W) - eval_alpha(ident, h, W, GridFun.zero(GRID, 2))
    assert abs(rel) < 1e-10


class ToyBundle:
    """Right-multiplication scenario over a point with a valid Higgs field."""

    def __init__(self, C):
        self.C = C

    def higgs(self, p: LoopPoint) -> GridFun:
        return loops.conj_loop(p, self.C) + p.log_derivative

    def act(self, p: LoopPoint, g: LoopPoint) -> LoopPoint:
        return p.mul(g)


def test_reduced_splitting_toy_scenario():
    rng = sampling.make_rng(54)
    C = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    scn = ToyBundle(C)
    p = sampling.random_loop(rng, GRID, lg.SU2)
    g = sampling.random_loop(rng, GRID, lg.SU2)
    X = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    assert reduced_splitting_check(scn, p, g, X) < 1e-10
    ident = LoopPoint.identity(GRID, 2)
    assert reduced_splitting_check(scn, p, ident, X) < 1e-14
