"""Transferred connection, curvature square and the evaluation map."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from loopgerbe import (caloron, centext, checks, forms, gerbe, liegroup,
                       loops)
from loopgerbe.caloron import (CaloronPoint, CaloronTangent,
                               caloron_connection, curvature_samples,
                               curvature_via_ext_d, eval_loop,
                               eval_samples, extract_connection_higgs, group_act,
                               integrate_circle, kernel_vector, loop_act,
                               pontrjagin_form, pontrjagin_split, vertical_vector)
from loopgerbe.forms import Form
from loopgerbe.gerbe import PathFibration, TrivialBundle, string_form
from loopgerbe.liegroup import SU2, adjoint_inv, exp_alg, inner
from loopgerbe.loops import GridFun, ThetaGrid, TrigPoly, quad_s1
from loopgerbe.sampling import (RecordingRNG, make_rng, random_algebra,
                                random_bundle_fibre_points,
                                random_caloron_point, random_caloron_tangents,
                                random_loop, random_loop_factors,
                                random_loop_tangent, random_path_point)
from oracles import random_path_tangent, shuffle_pairing, stack_tangents

GRID = ThetaGrid(96)
TB = TrivialBundle.default(GRID)
PF = PathFibration(GRID)


def tb_caloron_point(rng, theta=None, tb=TB):
    m = rng.uniform(-0.6, 0.6, size=2)
    p = tb.point(m, random_loop(rng, tb.grid, tb.group))
    k = exp_alg(random_algebra(rng, tb.group))
    if theta is None:
        theta = float(tb.grid.nodes[int(rng.integers(tb.grid.n))])
    return CaloronPoint(p, k, theta)


def tb_caloron_tangent(rng, lam=None, tb=TB):
    X = (rng.normal(size=2), random_loop_tangent(rng, tb.grid, tb.group))
    eta = random_algebra(rng, tb.group)
    if lam is None:
        lam = float(rng.uniform(-1.0, 1.0))
    return CaloronTangent(X, eta, lam)


def stacked(Vs):
    """Caloron tangents as one stacked tangent, the form that
    `curvature_samples` takes."""
    return CaloronTangent(stack_tangents([V.X for V in Vs]),
                          np.stack([V.eta for V in Vs]),
                          np.array([V.lam for V in Vs]))


# ---------------------------------------------------------------------------
# connection axioms


def test_vertical_reproduction():
    rng = make_rng(301)
    pt = tb_caloron_point(rng)
    xi = random_algebra(rng, SU2)
    got = caloron_connection(TB, pt, vertical_vector(TB, pt, xi))
    assert np.max(np.abs(got - xi)) < 1e-12


def test_kernel_directions_die():
    rng = make_rng(303)
    pt = tb_caloron_point(rng)
    X = random_loop_tangent(rng, GRID, SU2)
    got = caloron_connection(TB, pt, kernel_vector(TB, pt, X))
    assert np.max(np.abs(got)) < 1e-10


@pytest.mark.parametrize("group", (SU2, liegroup.SU3), ids=lambda g: g.name)
@pytest.mark.parametrize("scenario", ("trivial-bundle", "path-fibration"))
def test_based_loop_invariance(scenario, group):
    # loop_act pushes the loop part of a trivial-bundle tangent, and the
    # whole of a path-fibration tangent, through conj_loop
    rng = make_rng(307)
    trivial = scenario == "trivial-bundle"
    scn = TrivialBundle.default(GRID, group) if trivial else PathFibration(GRID, group)
    for _ in range(3):
        if trivial:
            pt, V = tb_caloron_point(rng, tb=scn), tb_caloron_tangent(rng, tb=scn)
        else:
            theta = float(scn.grid.nodes[int(rng.integers(scn.grid.size))])
            pt = CaloronPoint(random_path_point(rng, scn.grid, group),
                              exp_alg(random_algebra(rng, group)), theta)
            V = CaloronTangent(random_path_tangent(rng, scn.grid, group),
                               random_algebra(rng, group), float(rng.uniform(-1.0, 1.0)))
        g = random_loop(rng, scn.grid, group, based=True)
        qt, W = loop_act(scn, pt, V, g)
        before = caloron_connection(scn, pt, V)
        after = caloron_connection(scn, qt, W)
        assert np.max(np.abs(after - before)) < 1e-8


def test_group_equivariance():
    rng = make_rng(311)
    pt = tb_caloron_point(rng)
    V = tb_caloron_tangent(rng)
    k0 = exp_alg(random_algebra(rng, SU2))
    qt, W = group_act(pt, V, k0)
    lhs = caloron_connection(TB, qt, W)
    rhs = adjoint_inv(k0, caloron_connection(TB, pt, V))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# curvature


def _curvature(scn, pt, V, W):
    # the caloron curvature R(V, W) at the point's angle: pair 0 of a
    # two-tangent table
    return eval_samples(curvature_samples(scn, pt, stacked((V, W))).R[0], pt.theta)


def test_curvature_closed_form_vs_ext_d():
    rng = make_rng(313)
    pt = tb_caloron_point(rng)
    V, W = tb_caloron_tangent(rng), tb_caloron_tangent(rng)
    a = _curvature(TB, pt, V, W)
    b = curvature_via_ext_d(TB, pt, V, W)
    assert np.max(np.abs(a - b)) < 1e-6


def test_curvature_theta_only_vanishes():
    rng = make_rng(317)
    pt = tb_caloron_point(rng)
    z = TB.zero_tangent(pt.p)
    V = CaloronTangent(z, np.zeros((2, 2)), 0.7)
    W = CaloronTangent(z, np.zeros((2, 2)), -0.2)
    got = _curvature(TB, pt, V, W)
    assert np.max(np.abs(got)) < 1e-14


def test_curvature_group_covariance():
    rng = make_rng(319)
    pt = tb_caloron_point(rng)
    V, W = tb_caloron_tangent(rng), tb_caloron_tangent(rng)
    k0 = exp_alg(random_algebra(rng, SU2))
    qt, Vp = group_act(pt, V, k0)
    _, Wp = group_act(pt, W, k0)
    lhs = _curvature(TB, qt, Vp, Wp)
    rhs = adjoint_inv(k0, _curvature(TB, pt, V, W))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# ---------------------------------------------------------------------------
# the 4-form


def _form(scn, pt, Vs):
    return pontrjagin_form(curvature_samples(scn, pt, stacked(Vs)))


def test_pontrjagin_split_identity():
    rng = make_rng(331)
    for _ in range(5):
        pt = tb_caloron_point(rng)
        Vs = [tb_caloron_tangent(rng) for _ in range(4)]
        table = curvature_samples(TB, pt, stacked(Vs))
        assert abs(pontrjagin_form(table) - pontrjagin_split(table)) < 1e-8


def _direct_curvature(scn, q, a, b):
    # the caloron curvature from unstacked scenario calls, nothing shared
    total = scn.curvature(q.p, a.X, b.X)
    if b.lam != 0.0:
        total = total + gerbe.nabla_phi(scn, q.p, a.X) * b.lam
    if a.lam != 0.0:
        total = total - gerbe.nabla_phi(scn, q.p, b.X) * a.lam
    return eval_samples(GridFun(total.grid, adjoint_inv(q.k, total.vals)),
                        q.theta)


def _unshared_form(scn, pt, Vs):
    # two separate curvature forms, each sample recomputed by its own
    # unstacked scenario calls: nothing is shared or stacked
    forms_ = [Form(2, lambda q, a, b: _direct_curvature(scn, q, a, b))
              for _ in range(2)]
    val = shuffle_pairing(inner, tuple(forms_))(pt, *Vs)
    return np.real(val) * (-1.0 / (8 * np.pi ** 2))


def _unshared_split(scn, pt, Vs):
    # the split with F and H forms that call the scenario directly
    n = scn.group.n

    def f_ev(q, a, b):
        return eval_samples(scn.curvature(q.p, a.X, b.X), q.theta)

    def h_ev(q, a, b):
        out = np.zeros((n, n), dtype=complex)
        if b.lam != 0.0:
            out = out + b.lam * eval_samples(gerbe.nabla_phi(scn, q.p, a.X),
                                             q.theta)
        if a.lam != 0.0:
            out = out - a.lam * eval_samples(gerbe.nabla_phi(scn, q.p, b.X),
                                             q.theta)
        return out

    Ff, Hf = Form(2, f_ev), Form(2, h_ev)
    val = (shuffle_pairing(inner, (Ff, Ff))(pt, *Vs)
           + 2.0 * shuffle_pairing(inner, (Ff, Hf))(pt, *Vs))
    return float(np.real(val)) * (-1.0 / (8 * np.pi ** 2))


@pytest.fixture
def counted(monkeypatch):
    """The real gerbe.nabla_phi and TrivialBundle.curvature evaluations,
    one list entry per call: the number of tangents (pairs) it stacks."""
    calls = {"nabla_phi": [], "curvature": []}
    nabla_phi = gerbe.nabla_phi
    curvature = TrivialBundle.curvature

    def counted_nabla_phi(scn, p, V):
        calls["nabla_phi"].append(len(V[0]))
        return nabla_phi(scn, p, V)

    def counted_curvature(self, p, V, W):
        calls["curvature"].append(len(V[0]))
        return curvature(self, p, V, W)

    monkeypatch.setattr(gerbe, "nabla_phi", counted_nabla_phi)
    monkeypatch.setattr(TrivialBundle, "curvature", counted_curvature)
    return calls


def _assert_sides_unshared(counted, scn, pt, Vs):
    # one table, built from one curvature call on the 6 stacked pairs and
    # one nabla Phi call on the 4 stacked tangents, serves both sides,
    # and each side equals its unshared reference bit for bit
    form, split = _unshared_form(scn, pt, Vs), _unshared_split(scn, pt, Vs)
    counted.update(nabla_phi=[], curvature=[])
    table = curvature_samples(scn, pt, stacked(Vs))
    lhs, rhs = pontrjagin_form(table), pontrjagin_split(table)
    assert counted == {"nabla_phi": [4], "curvature": [6]}
    assert lhs == form
    assert rhs == split
    return lhs, rhs


def test_pontrjagin_evaluates_each_nabla_phi_once_per_tangent(counted):
    # the 4-form pairs the six curvature samples in one gathered call
    # over the 6 shuffles; nabla Phi depends on one tangent only, so
    # four are enough
    rng = make_rng(333)
    pt = tb_caloron_point(rng)
    Vs = [tb_caloron_tangent(rng) for _ in range(4)]
    lhs, rhs = _assert_sides_unshared(counted, TB, pt, Vs)
    assert abs(lhs - rhs) < 1e-8


def test_one_split_draw_evaluates_each_sample_once(counted, monkeypatch):
    # one curvature call on the 6 pairs and one nabla Phi call on the 4
    # tangents; the 4 tangents come from one from_profiles call over a
    # (3, 4) stack of profiles, the pair stacks are gathered from them
    # by index (forms stacks no tangents), the table reads its three
    # stacks at the angle in one node lookup, both sides pair through
    # one shuffle enumeration, and each of the three pairings makes one
    # gathered inner call over its 6 shuffles
    profiles = _counting(monkeypatch, GridFun, "from_profiles")
    nodes = _counting(monkeypatch, caloron, "_node")
    shuffled = _counting(monkeypatch, forms, "shuffle_index")
    inners = _counting(monkeypatch, caloron, "inner")
    _split_draw()
    assert counted == {"nabla_phi": [4], "curvature": [6]}
    assert shuffled == [((2, 2),)]
    assert [tuple(np.shape(x) for x in xs) for xs in inners] == [((6, 2, 2),) * 2] * 3
    stacks = [np.shape(f.a0) for _, terms in profiles for f, _ in terms
              if isinstance(f, TrigPoly)]
    assert stacks == [(3, 4)]
    assert not hasattr(forms, "stack_tangents")
    assert len(nodes) == 1


def test_repeated_tangents_equal_the_unshared_reference(counted):
    # (V, W, V, W) repeats its tangents: the table stacks all 6 pairs and
    # all 4 tangents as they come, and both sides stay bit for bit
    rng = make_rng(343)
    pt = tb_caloron_point(rng)
    V, W = tb_caloron_tangent(rng), tb_caloron_tangent(rng)
    _assert_sides_unshared(counted, TB, pt, (V, W, V, W))


def _circle_tangents(tb, m, us):
    """The point stacked over the off-node angles and the four tangents
    of integrate_circle, one by one: lam = 0 on the three lifts and 1
    on the angle direction."""
    p = tb.point(m)
    n = tb.group.n
    no_eta = np.zeros((n, n), dtype=complex)
    Ts = [CaloronTangent(tb.lift_tangent(p, u), no_eta, 0.0) for u in us]
    Ts.append(CaloronTangent(tb.zero_tangent(p), no_eta, 1.0))
    return CaloronPoint(p, np.eye(n, dtype=complex), GRID.nodes + 0.5 * GRID.h), Ts


def test_circle_reduction_samples_are_bit_identical(counted):
    # lam = 0 on three tangents and 1 on the angle direction, at a point
    # stacked over the off-node angles, as integrate_circle builds them
    tb = TrivialBundle.chart3(GRID)
    rng = make_rng(345)
    m = rng.uniform(-0.6, 0.6, size=3)
    us = [rng.normal(size=3) for _ in range(3)]
    pt, Ts = _circle_tangents(tb, m, us)
    plain = _unshared_form(tb, pt, Ts)
    counted.update(nabla_phi=[], curvature=[])
    got = _form(tb, pt, Ts)
    assert counted == {"nabla_phi": [4], "curvature": [6]}
    assert np.array_equal(got, plain)
    assert integrate_circle(tb, m, *us) == float(quad_s1(plain))


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_pairings_equal_the_shuffle_oracle(group):
    # both sides of the split at a node, on both scenarios, and the
    # circle integral on both charts of the trivial bundle, equal the
    # shuffle-by-shuffle pairing of per-tangent scenario calls, bit for bit
    grp = liegroup.group_by_name(group)
    rng = make_rng(389)
    pf = PathFibration(GRID, grp)
    for scn in (TrivialBundle.default(GRID, grp), TrivialBundle.chart3(GRID, grp), pf):
        for _ in range(2):
            if scn is pf:
                p = random_path_point(rng, pf.grid, grp)
                X = stack_tangents([random_path_tangent(rng, pf.grid, grp)
                                    for _ in range(4)])
                etas = np.stack([random_algebra(rng, grp) for _ in range(4)])
                Vs = CaloronTangent(X, etas, rng.uniform(-1.0, 1.0, size=4))
            else:
                p, = random_bundle_fibre_points(rng, scn, 1)
                Vs = random_caloron_tangents(rng, scn, 4)
            theta = float(scn.grid.nodes[int(rng.integers(scn.grid.n))])
            pt = CaloronPoint(p, exp_alg(random_algebra(rng, grp)), theta)
            table = curvature_samples(scn, pt, Vs)
            ref = [Vs[k] for k in range(4)]
            assert pontrjagin_form(table) == _unshared_form(scn, pt, ref)
            assert pontrjagin_split(table) == _unshared_split(scn, pt, ref)
            if scn is not pf:
                m = rng.uniform(-0.6, 0.6, size=scn.dim)
                us = [rng.normal(size=scn.dim) for _ in range(3)]
                plain = _unshared_form(scn, *_circle_tangents(scn, m, us))
                assert integrate_circle(scn, m, *us) == float(quad_s1(plain))


def test_sample_table_answers_for_its_own_point_and_scenario(counted):
    # the pushed point, another Higgs field at the same point and a
    # flowed point each build their own table, and both sides equal the
    # unshared route
    rng = make_rng(339)
    pt = tb_caloron_point(rng)
    Vs = [tb_caloron_tangent(rng) for _ in range(4)]
    base = _form(TB, pt, Vs)
    k0 = exp_alg(random_algebra(rng, SU2))
    pushed = [group_act(pt, V, k0) for V in Vs]
    tb2 = replace(TB, phi_coeff=lambda m: m[..., 1])
    step = CaloronTangent(Vs[0].X, Vs[0].eta, 0.0)
    cases = [(TB, pushed[0][0], [w for _, w in pushed]), (tb2, pt, Vs),
             (TB, pt.flow(step, 0.05), Vs)]
    for scn, q, Ws in cases:
        _assert_sides_unshared(counted, scn, q, Ws)
    assert _form(tb2, pt, Vs) != base


def _counting(monkeypatch, owner, name) -> list:
    """Log the arguments of every later call of owner.name; the log."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_calls(monkeypatch, owner, name, draw):
    """The arguments of every call of owner.name during draw()."""
    calls = _counting(monkeypatch, owner, name)
    draw()
    return calls


def _split_draw():
    checks.curvature_square_split(checks.RunConfig(ntheta=48), make_rng(5), n=1)


def test_one_split_draw_makes_at_most_35_products(monkeypatch):
    # one stacked conjugation builds the curvature of all 6 pairs: 35
    # liegroup.mm calls, where one conjugation per pair took 45
    calls = []
    mm = liegroup.mm

    def counting(a, b):
        calls.append(1)
        return mm(a, b)

    for mod in (caloron, centext, checks, forms, gerbe, liegroup, loops):
        if getattr(mod, "mm", None) is mm:
            monkeypatch.setattr(mod, "mm", counting)
    _split_draw()
    assert 0 < len(calls) <= 35


def test_one_split_draw_looks_up_at_most_3_nodes(monkeypatch):
    # the table reads its curvature, F and nabla Phi stacks at the
    # angle's node, on the check's grid (one lookup: see
    # test_one_split_draw_evaluates_each_sample_once)
    calls = _count_calls(monkeypatch, caloron, "_node", _split_draw)
    assert 0 < len(calls) <= 3
    assert all(grid == ThetaGrid(48) for grid, _ in calls)


def _mm_matrices(monkeypatch, draw) -> int:
    """The number of matrices the liegroup.mm calls of draw() build."""
    built = []
    mm = liegroup.mm

    def counting(a, b):
        out = mm(a, b)
        built.append(int(np.prod(out.shape[:-2])))
        return out

    for mod in (caloron, centext, checks, forms, gerbe, liegroup, loops):
        if getattr(mod, "mm", None) is mm:
            monkeypatch.setattr(mod, "mm", counting)
    draw()
    return sum(built)


@pytest.mark.parametrize("ntheta", [16, 48, 128])
def test_one_split_draw_builds_at_most_300_matrices(monkeypatch, ntheta):
    # the check builds its scenario on the one node it reads: 246
    # matrices whatever N, where all N nodes took 11 761 at N = 48
    cfg = checks.RunConfig(ntheta=ntheta)
    built = _mm_matrices(monkeypatch, lambda: checks.curvature_square_split(
        cfg, make_rng(5), n=1))
    assert 0 < built <= 300


def test_random_loop_is_the_product_of_its_drawn_factors():
    # drawing the factors apart from the grid takes the same draws and
    # gives the same loop, bit for bit
    for group, based in ((SU2, False), (liegroup.SU3, True)):
        a, b = RecordingRNG(make_rng(361)), RecordingRNG(make_rng(361))
        g = random_loop(a, GRID, group, based=based)
        h = loops.product_loop(GRID, [(loops.Fn.based(f) if based else f, xi)
                                      for f, xi in random_loop_factors(b, group)])
        assert a.log == b.log
        assert np.array_equal(g.vals, h.vals) and np.array_equal(g.zvals, h.zvals)


def _profiles(rng, k) -> list:
    """k theta profiles drawn as one stack: one uniform draw of shape
    (k, 5) in [-0.5, 0.5], row i profile i's a0, then its two cos and its
    two sin coefficients, each pair damped by 1/m^2."""
    damp = 1.0 / np.arange(1, 3) ** 2
    return [TrigPoly(float(row[0]), tuple(row[1:3] * damp), tuple(row[3:] * damp))
            for row in rng.uniform(-0.5, 0.5, size=(k, 5))]


def _one_profile(rng) -> TrigPoly:
    """A theta profile drawn alone: a stack of one."""
    return _profiles(rng, 1)[0]


def _one_tangent(tb, rng) -> CaloronTangent:
    """A caloron tangent drawn and built by itself: u, one stack of one
    profile per basis element, eta, lam; X summed term by term."""
    u = rng.normal(size=tb.dim)
    terms = list(zip(_profiles(rng, tb.group.dim), tb.group.basis))
    X = GridFun.from_profiles(tb.grid, terms)
    return CaloronTangent((u, X), random_algebra(rng, tb.group),
                          float(rng.uniform(-1.0, 1.0)))


def _one_point(cfg, rng):
    """A caloron check's point, drawn by itself: m, two loop factors
    (each a profile, then a generator), k, the node."""
    tb = TrivialBundle.default(ThetaGrid(cfg.ntheta), liegroup.group_by_name(cfg.group))
    rng.uniform(-0.6, 0.6, size=tb.dim)
    for _ in range(2):
        _one_profile(rng), random_algebra(rng, tb.group)
    random_algebra(rng, tb.group)
    j = int(rng.integers(cfg.ntheta))
    return replace(tb, grid=ThetaGrid(cfg.ntheta, node=j))


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_stacked_tangents_are_the_tangents_drawn_one_by_one(group):
    # the four tangents of a split draw take the draws of four tangents
    # drawn one after the other, and equal them stacked, bit for bit;
    # connection-axioms's single tangent is the same draw and build
    cfg = checks.RunConfig(group=group, ntheta=48)
    a, b = RecordingRNG(make_rng(371)), RecordingRNG(make_rng(371))
    tb, _ = random_caloron_point(a, checks._tb(cfg))
    assert _one_point(cfg, b).grid == tb.grid
    V = random_caloron_tangents(a, tb, 4)
    Ws = [_one_tangent(tb, b) for _ in range(4)]
    assert a.log == b.log
    (u, X), want = V.X, [W.X for W in Ws]
    assert u.shape == (4, tb.dim) and X.vals.shape == (4, 1, tb.group.n, tb.group.n)
    assert np.array_equal(u, np.stack([w[0] for w in want]))
    assert np.array_equal(X.vals, np.stack([w[1].vals for w in want]))
    assert np.array_equal(X.dvals, np.stack([w[1].dvals for w in want]))
    assert np.array_equal(V.eta, np.stack([W.eta for W in Ws]))
    assert np.array_equal(V.lam, [W.lam for W in Ws])
    one, ref = random_caloron_tangents(a, tb, 1)[0], _one_tangent(tb, b)
    assert a.log == b.log and np.ndim(one.lam) == 0 and one.lam == ref.lam
    for got, want in ((one.X[0], ref.X[0]), (one.X[1].vals, ref.X[1].vals),
                      (one.X[1].dvals, ref.X[1].dvals), (one.eta, ref.eta)):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("group", ["su2", "su3"])
def test_caloron_draws_keep_their_draw_order(group):
    # the logs of one split draw and one connection-axioms draw: the
    # point, then each draw in the order of a sampler that draws one
    # profile and one tangent at a time
    cfg = checks.RunConfig(group=group, ntheta=48)
    a, b = RecordingRNG(make_rng(373)), RecordingRNG(make_rng(373))
    checks.curvature_square_split(cfg, a, n=1)
    tb = _one_point(cfg, b)
    for _ in range(4):
        _one_tangent(tb, b)
    assert a.log == b.log

    a, b = RecordingRNG(make_rng(379)), RecordingRNG(make_rng(379))
    checks.connection_axioms(cfg, a, n=1)
    tb = _one_point(cfg, b)
    random_algebra(b, tb.group)                      # xi
    _profiles(b, tb.group.dim)                       # the kernel direction
    _one_tangent(tb, b)
    for _ in range(2):                               # the based loop
        _one_profile(b), random_algebra(b, tb.group)
    random_algebra(b, tb.group)                      # k0
    assert a.log == b.log


def _full_grid_point(cfg, rng):
    """A caloron check's point drawn as `random_caloron_point` draws it,
    but with the bundle and the loop on all N nodes: the reference the
    one-node route is read against."""
    grid = ThetaGrid(cfg.ntheta)
    group = liegroup.group_by_name(cfg.group)
    tb = TrivialBundle.default(grid, group, cfg.fd_step)
    p, = random_bundle_fibre_points(rng, tb, 1)
    k = exp_alg(random_algebra(rng, group))
    return tb, CaloronPoint(p, k, float(grid.nodes[int(rng.integers(grid.n))]))


def _both_routes(cfg, seed, draw):
    """draw(tb, pt, rng) on the one-node route and on the full grid, each
    from its own recorded generator of the same seed: (node, one-node
    result, full-grid result), once both took the same draws."""
    a, b = RecordingRNG(make_rng(seed)), RecordingRNG(make_rng(seed))
    tb, pt = random_caloron_point(a, checks._tb(cfg))
    full_tb, full_pt = _full_grid_point(cfg, b)
    assert tb.grid == full_tb.grid and tb.grid.size == 1
    assert pt.theta == full_pt.theta and np.array_equal(pt.k, full_pt.k)
    got, want = draw(tb, pt, a), draw(full_tb, full_pt, b)
    assert a.log == b.log
    # and the generators go on alike
    assert np.array_equal(a._rng.bit_generator.random_raw(4),
                          b._rng.bit_generator.random_raw(4))
    return tb.grid.node, got, want


@pytest.mark.parametrize("group", ["su2", "su3"])
@pytest.mark.parametrize("ntheta", [16, 48, 128])
def test_node_route_is_the_full_route_at_its_node(group, ntheta):
    # every sample a caloron check reads is pointwise in theta, so the
    # one-node scenario gives the full grid's samples at that node, and
    # the same residuals, to the last bit
    cfg = checks.RunConfig(group=group, ntheta=ntheta)

    def split(tb, pt, rng):
        return curvature_samples(tb, pt, random_caloron_tangents(rng, tb, 4))

    for seed in range(20):
        j, got, want = _both_routes(cfg, seed, split)
        for stack in ("F", "nabla_phi", "R"):
            assert np.array_equal(getattr(got, stack).vals,
                                  getattr(want, stack).vals[:, j:j + 1])
        assert pontrjagin_form(got) == pontrjagin_form(want)
        assert pontrjagin_split(got) == pontrjagin_split(want)

        _, got, want = _both_routes(cfg, 100 + seed, checks._connection_residuals)
        assert len(got) == 4 and got == want


def test_one_node_grid_fails_loudly():
    rng = make_rng(367)
    grid = ThetaGrid(16, node=5)
    assert grid.size == 1 and grid.h == ThetaGrid(16).h
    assert np.array_equal(grid.nodes, ThetaGrid(16).nodes[5:6])
    X = random_loop_tangent(rng, grid, SU2)
    g = random_loop(rng, grid, SU2)
    theta = float(grid.nodes[0])
    assert np.array_equal(eval_samples(X, theta), X.vals[0])
    assert np.array_equal(eval_loop(g, theta), g.vals[0])
    # theta derivatives are the exact payloads, on one node as on all
    assert X.dtheta().vals is X.dvals and g.z().vals is g.zvals
    with pytest.raises(ValueError, match="no exact theta derivative"):
        GridFun(grid, X.vals).dtheta()
    # what needs the whole circle
    for fail in (lambda: grid.quad(np.ones(1)), lambda: X.interp(theta)):
        with pytest.raises(ValueError, match="whole circle"):
            fail()
    # an angle off the nodes, another node's, or none at all
    for angle in (theta + 1e-3, float(ThetaGrid(16).nodes[6]), np.nan,
                  np.array([theta, float(ThetaGrid(16).nodes[4])])):
        for fail in (lambda: eval_samples(X, angle), lambda: eval_loop(g, angle)):
            with pytest.raises(ValueError):
                fail()
    # a node of a closed grid, or outside [0, n)
    for bad in (dict(closed=True, node=5), dict(node=-1), dict(node=16),
                dict(node=40)):
        with pytest.raises(ValueError):
            ThetaGrid(16, **bad)
    # data on one node combine with data on that node only
    for other in (ThetaGrid(16), ThetaGrid(16, node=6)):
        Y = GridFun.zero(other, 2)
        with pytest.raises(ValueError, match="grid mismatch"):
            X + Y
    assert np.array_equal((X + GridFun.zero(ThetaGrid(16, node=5), 2)).vals, X.vals)


def test_integrate_circle_interpolates_once(monkeypatch):
    # the curvature of all 6 pairs is interpolated to the N off-node
    # angles in one call, not in one call per pair
    rng = make_rng(351)
    m = rng.uniform(-0.6, 0.6, size=2)
    us = [rng.normal(size=2) for _ in range(3)]
    calls = _count_calls(monkeypatch, GridFun, "interp",
                         lambda: integrate_circle(TB, m, *us))
    assert len(calls) == 1


def test_pontrjagin_stacked_over_angles_matches_each_angle():
    # off-node angles, read off by trigonometric interpolation: the
    # stacked evaluation equals the per-angle ones and the unshared
    # reference bit for bit
    rng = make_rng(335)
    pt = tb_caloron_point(rng)
    Vs = [tb_caloron_tangent(rng) for _ in range(4)]
    angles = GRID.nodes[:5] + 0.5 * GRID.h
    stacked_pt = CaloronPoint(pt.p, pt.k, angles)
    stacked = _form(TB, stacked_pt, Vs)
    assert stacked.shape == angles.shape
    assert np.array_equal(stacked, _unshared_form(TB, stacked_pt, Vs))
    for a, got in zip(angles, stacked):
        assert got == _form(TB, CaloronPoint(pt.p, pt.k, a), Vs)


def test_pontrjagin_repeated_argument_zero():
    rng = make_rng(337)
    pt = tb_caloron_point(rng)
    V, W = tb_caloron_tangent(rng), tb_caloron_tangent(rng)
    assert _form(TB, pt, (V, W, V, W)) == pytest.approx(0.0, abs=1e-12)


def test_pontrjagin_group_invariance():
    rng = make_rng(341)
    pt = tb_caloron_point(rng)
    Vs = [tb_caloron_tangent(rng) for _ in range(4)]
    k0 = exp_alg(random_algebra(rng, SU2))
    pushed = [group_act(pt, V, k0) for V in Vs]
    qt = pushed[0][0]
    lhs = _form(TB, qt, [w for _, w in pushed])
    rhs = _form(TB, pt, Vs)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# circle integration


def test_integrate_circle_matches_string_form():
    rng = make_rng(347)
    for _ in range(3):
        m = rng.uniform(-0.6, 0.6, size=2)
        us = [rng.normal(size=2) for _ in range(3)]
        got = integrate_circle(TB, m, *us)
        want = string_form(TB, m, *us)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-6


def test_circle_reduction_residual_is_round_off_not_zero():
    # the circle integral shares no sum, pairing or node with the
    # descended 3-form, so the two routes differ at round-off
    spec = checks.CHECKS["caloron-roundtrip/circle-reduction"]
    res = checks.run_check(spec, checks.RunConfig(group="su2", seed=7))
    assert 0.0 < res["residual"] <= 1e-6


def test_integrate_circle_flat_is_zero():
    E = SU2.basis
    flat = TrivialBundle(
        GRID, SU2,
        a_terms=[(TrigPoly(), E[0]), (TrigPoly(), E[1])],
        phi_term=(TrigPoly(), E[2]),
        phi_coeff=lambda m: 0.0)
    rng = make_rng(349)
    m = rng.uniform(-0.5, 0.5, size=2)
    us = [rng.normal(size=2) for _ in range(3)]
    assert abs(integrate_circle(flat, m, *us)) < 1e-12


def test_integrate_circle_requires_periodic_picture():
    rng = make_rng(353)
    k = exp_alg(random_algebra(rng, SU2))
    us = [random_algebra(rng, SU2) for _ in range(3)]
    with pytest.raises(ValueError):
        integrate_circle(PF, k, *us)


# ---------------------------------------------------------------------------
# framed inverse


def test_extract_round_trip_trivial_bundle():
    rng = make_rng(359)
    p = TB.point(rng.uniform(-0.5, 0.5, size=2), random_loop(rng, GRID, SU2))
    A_of, phi = extract_connection_higgs(TB, p)
    X = (rng.normal(size=2), random_loop_tangent(rng, GRID, SU2))
    assert np.max(np.abs(A_of(X).vals - TB.connection(p, X).vals)) < 1e-12
    assert np.max(np.abs(phi.vals - TB.higgs(p).vals)) < 1e-12


def test_extract_round_trip_path_fibration():
    rng = make_rng(361)
    p = random_path_point(rng, PF.grid, SU2)
    A_of, phi = extract_connection_higgs(PF, p)
    X = random_path_tangent(rng, PF.grid, SU2)
    assert np.max(np.abs(A_of(X).vals - PF.connection(p, X).vals)) < 1e-12
    assert np.max(np.abs(phi.vals - PF.higgs(p).vals)) < 1e-12


# ---------------------------------------------------------------------------
# evaluation map


def test_killingback_equivariance_and_node_errors():
    # the killing-back evaluation (x, q, k, theta) -> q(theta) k is right
    # equivariant in k and constant on based-loop orbits (q g, g(theta)^-1 k)
    rng = make_rng(379)
    q = random_loop(rng, GRID, SU2)
    g = random_loop(rng, GRID, SU2, based=True)
    k = exp_alg(random_algebra(rng, SU2))
    k0 = exp_alg(random_algebra(rng, SU2))
    theta = float(GRID.nodes[7])
    a = eval_loop(q, theta) @ (k @ k0)
    b = eval_loop(q, theta) @ k
    assert np.max(np.abs(a - b @ k0)) < 1e-13
    gk = np.linalg.inv(eval_loop(g, theta)) @ k
    assert np.max(np.abs(eval_loop(q.mul(g), theta) @ gk - b)) < 1e-13
    with pytest.raises(ValueError):
        eval_loop(q, theta + 1e-3)


# ---------------------------------------------------------------------------
# angle evaluation helper


def test_eval_samples_node_and_interp():
    rng = make_rng(383)
    X = random_loop_tangent(rng, GRID, SU2)
    j = 11
    assert np.array_equal(eval_samples(X, float(GRID.nodes[j])), X.vals[j])
    theta = 1.2345
    got = eval_samples(X, theta)
    spec = np.fft.fft(X.vals, axis=0) / GRID.n
    ks = np.fft.fftfreq(GRID.n, d=1.0 / GRID.n)
    phase = np.exp(1j * ks * theta)
    phase[GRID.n // 2] = np.cos(GRID.n // 2 * theta)
    want = np.tensordot(phase, spec, axes=(0, 0))
    assert np.max(np.abs(got - want)) < 1e-12
    closedX = random_path_tangent(rng, PF.grid, SU2)
    with pytest.raises(ValueError):
        eval_samples(closedX, theta)


def test_non_finite_angle_is_off_the_nodes(monkeypatch):
    # NaN and +-inf are no grid node: a loop cannot be evaluated there,
    # periodic data interpolates to NaN and closed data refuses, and
    # none of them makes numpy warn
    rng = make_rng(389)
    X = random_loop_tangent(rng, GRID, SU2)
    q = random_loop(rng, GRID, SU2)
    closedX = random_path_tangent(rng, PF.grid, SU2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (np.nan, np.inf, -np.inf):
            assert np.all(np.isnan(eval_samples(X, theta)))
            for fail in (lambda: eval_loop(q, theta),
                         lambda: eval_samples(closedX, theta)):
                with pytest.raises(ValueError):
                    fail()
        mixed = eval_samples(X, np.array([GRID.nodes[3], np.nan, np.inf, -np.inf]))
    assert np.array_equal(mixed[0], X.vals[3]) and np.all(np.isnan(mixed[1:]))
    # a node angle is still a plain lookup: no interpolation runs
    monkeypatch.setattr(type(X), "interp", None)
    assert np.array_equal(eval_samples(X, float(GRID.nodes[5])), X.vals[5])
    assert np.array_equal(eval_samples(closedX, float(PF.grid.nodes[-1])),
                          closedX.vals[-1])
