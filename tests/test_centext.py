import json

import numpy as np
import pytest

from loopgerbe import centext, cli, liegroup as lg, loops, sampling
from loopgerbe.centext import (DiskLoop, cocycle_c, eval_R, eval_alpha,
                               gomi_cocycle_Z, holonomy_H, mu_hat,
                               reduced_splitting_check)
from loopgerbe.forms import delta_nerve, ext_d
from loopgerbe.loops import GridFun, LoopPoint, ThetaGrid, path_from_factors


GRID = ThetaGrid(64)
E1, E2, E3 = lg.SU2.basis


def profile_fun(t):
    return np.sin(t)


def make_vec(profile, E, grid=GRID):
    t = grid.nodes
    return GridFun(grid, profile(t)[:, None, None] * E)


def test_R_frozen_values():
    g = LoopPoint.identity(GRID, 2)
    X = make_vec(np.sin, E1)
    Y = make_vec(np.cos, E1)
    # same direction, quarter-phase profiles: analytic integral gives -i/2
    assert abs(eval_R(g, X, Y) - (-0.5j)) < 1e-12
    assert abs(eval_R(g, X, X)) < 1e-14
    # orthogonal directions kill the pairing pointwise
    Y2 = make_vec(np.cos, E2)
    assert abs(eval_R(g, X, Y2)) < 1e-13


def test_R_left_invariant():
    rng = sampling.make_rng(41)
    X = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    Y = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    g1 = LoopPoint.identity(GRID, 2)
    g2 = sampling.random_loop(rng, GRID, lg.SU2)
    assert abs(eval_R(g1, X, Y) - eval_R(g2, X, Y)) < 1e-14


def test_alpha_frozen_values():
    rng = sampling.make_rng(42)
    g = sampling.random_loop(rng, GRID, lg.SU2)
    h = loops.product_loop(GRID, [(loops.TrigPoly(0.0, (), (1.0,)).as_fn(), E1)])
    const = GridFun(GRID, np.broadcast_to(E1, (GRID.n, 2, 2)),
                    dvals=np.zeros((GRID.n, 2, 2), dtype=complex))
    zero = GridFun.zero(GRID, 2)
    # <E1, cos E1> integrates to zero over a period
    assert abs(eval_alpha(g, h, const, zero)) < 1e-13
    cosv = make_vec(np.cos, E1)
    assert abs(eval_alpha(g, h, cosv, zero) - 0.5j) < 1e-12
    # constant second factor has Z = 0
    k = LoopPoint.constant(GRID, lg.exp_alg(0.3 * E2))
    assert abs(eval_alpha(g, k, cosv, zero)) < 1e-14
    # the form only sees the first-slot velocity
    W = sampling.random_loop_tangent(rng, GRID, lg.SU2)
    assert abs(eval_alpha(g, h, zero, W)) < 1e-14


def test_alpha_slot_resolved():
    assert centext.alpha_slot() == centext.ALPHA_SLOT == "first"


def test_failing_slot_self_test_aborts(tmp_path, monkeypatch, capsys):
    # a pinned slot that fails d(alpha) = delta(R) stops alpha and the run
    monkeypatch.setattr(centext, "_slot_residual", lambda: 1.0)
    centext.alpha_slot.cache_clear()
    try:
        rng = sampling.make_rng(55)
        g, h = (sampling.random_loop(rng, GRID, lg.SU2) for _ in range(2))
        zero = GridFun.zero(GRID, 2)
        with pytest.raises(centext.ConventionError):
            eval_alpha(g, h, zero, zero)
        out = str(tmp_path / "rep.json")
        status = cli.main(["--scenario", "central-extension", "--out", out])
        assert status == cli.EXIT_CONVENTION == 4
        rep = json.loads(open(out).read())
        assert "fails d(alpha) = delta(R)" in rep["aborted"]
        assert rep["checks"] == []
    finally:
        centext.alpha_slot.cache_clear()
    capsys.readouterr()


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


def random_path(rng, npath=129, nfactors=2):
    return sampling.random_group_path(rng, GRID, lg.SU2, npath, nfactors)


def test_cocycle_trivial_cases():
    rng = sampling.make_rng(46)
    f = random_path(rng)
    ident = path_from_factors(GRID, [(loops.Fn.zero(), GridFun.zero(GRID, 2))],
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
    A = GridFun.from_profiles(GRID, [(a.as_fn(), E1)])
    B = GridFun.from_profiles(GRID, [(b.as_fn(), E1)])
    lin = loops.Fn.ramp(1.0, period=1.0)
    f = path_from_factors(GRID, [(lin, A)], npath=129)
    g = path_from_factors(GRID, [(lin, B)], npath=129)
    t = GRID.nodes
    want = 0.25j / np.pi * loops.quad_s1(a.val(t) * b.dval(t))
    got = np.log(cocycle_c(f, g))
    assert abs(got - want) < 1e-7


def test_holonomy_trivial_and_reversal():
    rng = sampling.make_rng(49)
    zero_disk = DiskLoop([(loops.Fn.zero(), GridFun.zero(GRID, 2))])
    assert abs(holonomy_H(zero_disk) - 1.0) < 1e-14
    disk = DiskLoop(sampling.random_disk_terms(rng, GRID, lg.SU2))
    H = holonomy_H(disk)
    Hrev = holonomy_H(disk.reversed())
    assert abs(abs(H) - 1.0) < 1e-10
    assert abs(H * Hrev - 1.0) < 1e-8


def test_holonomy_small_area_order():
    rng = sampling.make_rng(50)
    disk = DiskLoop(sampling.random_disk_terms(rng, GRID, lg.SU2))
    lams = np.array([0.2, 0.1, 0.05])
    logs = np.array([abs(np.log(holonomy_H(disk.scaled(l)))) for l in lams])
    order = np.polyfit(np.log(lams), np.log(logs), 1)[0]
    assert abs(order - 2.0) < 0.1


def test_mu_hat_trivial_cases():
    rng = sampling.make_rng(51)
    f = random_path(rng)
    vels = [f.velocity_exact(i) for i in range(f.m)]
    assert abs(mu_hat(f, vels)) < 1e-12
    ident = path_from_factors(GRID, [(loops.Fn.zero(), GridFun.zero(GRID, 2))],
                              npath=f.m)
    X = [sampling.random_loop_tangent(rng, GRID, lg.SU2) for _ in range(f.m)]
    assert abs(mu_hat(ident, X)) < 1e-14


def test_mu_hat_against_independent_quadrature():
    # same analytic path and vector field, rebuilt on a different s-grid
    # and differentiated by finite differences instead of the payload
    rng = sampling.make_rng(52)
    factors = [(sampling.random_unit_profile(rng),
                sampling.random_loop_tangent(rng, GRID, lg.SU2))
               for _ in range(2)]
    mu = sampling.random_unit_profile(rng)
    Y = sampling.random_loop_tangent(rng, GRID, lg.SU2)

    def field(path):
        return [Y * float(mu.val(np.asarray(s))) for s in path.sgrid]

    f1 = path_from_factors(GRID, factors, npath=201)
    v1 = mu_hat(f1, field(f1))
    f2 = path_from_factors(GRID, factors, npath=257)
    vals = np.array([eval_R(f2.loops[i], f2.velocity(i), field(f2)[i])
                     for i in range(f2.m)])
    v2 = complex(loops.quad_unit(vals))
    assert abs(v1 - v2) < 1e-7


def test_gomi_frozen_and_alpha_relation():
    rng = sampling.make_rng(53)
    g = loops.product_loop(GRID, [(loops.TrigPoly(0.0, (), (1.0,)).as_fn(), E1)])
    X = make_vec(np.cos, E1)
    assert abs(gomi_cocycle_Z(g, X) - 0.5j) < 1e-12
    k = LoopPoint.constant(GRID, lg.exp_alg(0.4 * E3))
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
        return loops.conj_loop(p, self.C) + p.log_derivative()

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
