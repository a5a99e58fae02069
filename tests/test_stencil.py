"""The Richardson stencil as one stacked evaluation.

`forms.directional` calls its function once with every step; a flow by
an array of steps puts the step axes in front of the point's own
leading axes; and everything evaluated at a flowed point equals the
evaluations at each step alone, bit for bit.  The same holds for a
stack of tangents: its axis follows the steps, and every value at it
equals the values at each tangent alone.  The trivial-bundle curvature
takes both orders of its chart difference from one stencil, and equals
the route with one stencil per order bit for bit."""

import itertools
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from loopgerbe import caloron, centext, gerbe
from loopgerbe.caloron import CaloronPoint, CaloronTangent
from loopgerbe.forms import ChartPt, directional, flow
from loopgerbe.gerbe import PathFibration, TrivialBundle, TrivialPoint
from loopgerbe.liegroup import SU2, SU3, exp_alg
from loopgerbe.loops import Fn, GridFun, LoopPoint, ThetaGrid
from loopgerbe.sampling import (make_rng, random_algebra, random_caloron_point,
                                random_caloron_tangents, random_loop,
                                random_loop_tangent, random_path_fibre_points,
                                random_path_fibre_tangents, random_path_point,
                                random_path_tangent)
from oracles import curvature_by_orders, stack_tangents

STENCIL = (0.1, -0.1, 0.05, -0.05)


# ---------------------------------------------------------------------------
# one evaluation per stencil


def test_directional_calls_fun_once_with_every_step():
    seen = []

    def fun(t):
        seen.append(np.array(t))
        return np.stack([t ** 3, np.cos(t)], axis=-1)

    directional(fun, 0.1)
    assert len(seen) == 1 and np.array_equal(seen[0], STENCIL)


def _tb_fixture(seed, grid=ThetaGrid(32), group=SU2):
    rng = make_rng(seed)
    tb = TrivialBundle.default(grid, group)
    p = tb.point(rng.uniform(-0.6, 0.6, size=2), random_loop(rng, grid, group))
    V, W = ((rng.normal(size=2), random_loop_tangent(rng, grid, group))
            for _ in range(2))
    return rng, tb, p, V, W


def test_nabla_phi_makes_no_loop_flow(monkeypatch):
    # dPhi along the loop part comes from the Higgs field's equivariance,
    # and the trivial bundle's chart term flows chart points alone: no
    # loop is flowed and no tangent is decomposed, on either bundle
    rng, tb, p, V, _ = _tb_fixture(61)
    pf = PathFibration(tb.grid)
    pp = random_path_point(rng, pf.grid, SU2)
    X = random_path_tangent(rng, pf.grid, SU2)
    flows, eighs = [], []
    plain_flow, plain_eigh = LoopPoint.flow, np.linalg.eigh

    def counted_flow(self, Y, t):
        flows.append(np.shape(t))
        return plain_flow(self, Y, t)

    def counted_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return plain_eigh(a, *args, **kwargs)

    monkeypatch.setattr(LoopPoint, "flow", counted_flow)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    gerbe.nabla_phi(tb, p, V)
    gerbe.nabla_phi(pf, pp, X)
    assert flows == [] and eighs == []


def test_tb_curvature_evaluates_a_once_per_stencil_and_once_plain(monkeypatch):
    # one stencil over both orders x = (u, v), y = (v, u), and one plain
    # evaluation of a at both tangents; no base connection, whose theta
    # derivative no reader of F needs
    _, tb, p, V, W = _tb_fixture(67)
    shapes, built = [], []
    plain = gerbe.TrivialBundle._base_terms

    def counted(self, m, u):
        shapes.append((np.shape(m), np.shape(u)))
        return plain(self, m, u)

    monkeypatch.setattr(gerbe.TrivialBundle, "_base_terms", counted)
    monkeypatch.setattr(gerbe.TrivialBundle, "base_connection",
                        lambda *args: built.append(args))
    tb.curvature(p, V, W)
    assert sorted(shapes) == [((2,), (2, 2)), ((4, 2, 2), (2, 2))]
    assert built == []


def _counting_profiles(tb, calls):
    """tb with every profile's evaluation with its derivative counted
    into calls."""

    def counted(f):
        def val_dval(t):
            calls.append(np.shape(t))
            return f.val_dval(t)
        return Fn(f.val, val_dval)

    return replace(tb, a_terms=tuple((counted(f), xi) for f, xi in tb.a_terms),
                   phi_term=(counted(tb.phi_term[0]), tb.phi_term[1]))


def test_curvature_and_higgs_evaluate_no_profile_derivative():
    # F and Phi carry no theta-derivative payload, so no profile
    # derivative is evaluated for them; the connection carries one and
    # evaluates each profile with its derivative once
    _, tb, p, V, W = _tb_fixture(73)
    calls = []
    tb = _counting_profiles(tb, calls)
    tb.curvature(p, V, W)
    tb.higgs(p)
    assert calls == []
    tb.connection(p, V)
    assert len(calls) == tb.dim


def _tb_curvature_cases(tb, rng):
    """(bundle, point, V, W) at which the curvature is compared: single
    tangents, the six pairs of a split draw's four tangents on a one-node
    grid, and points flowed by one stencil and by two."""
    group, t = tb.group, np.array(STENCIL)
    p = tb.point(rng.uniform(-0.6, 0.6, size=tb.dim), random_loop(rng, tb.grid, group))
    A, B, V, W = ((rng.normal(size=tb.dim), random_loop_tangent(rng, tb.grid, group))
                  for _ in range(4))
    one, cpt = random_caloron_point(rng, tb)
    Xs = random_caloron_tangents(rng, one, 4).X
    i, j = (np.array(ix) for ix in zip(*itertools.combinations(range(4), 2)))
    return ((tb, p, V, W), (one, cpt.p, gerbe.pick(Xs, i), gerbe.pick(Xs, j)),
            (tb, flow(p, A, t), V, W), (tb, flow(flow(p, A, t), B, t), V, W))


@pytest.mark.parametrize("group", (SU2, SU3), ids=lambda g: g.name)
@pytest.mark.parametrize("bundle", ("default", "chart3"))
def test_tb_curvature_is_the_route_by_orders_bit_for_bit(bundle, group):
    tb = getattr(TrivialBundle, bundle)(ThetaGrid(16), group)
    cases = _tb_curvature_cases(tb, make_rng(79))
    leads = [(), (6,), (4,), (4, 4)]
    for (scn, p, V, W), lead in zip(cases, leads):
        got, want = scn.curvature(p, V, W), curvature_by_orders(scn, p, V, W)
        assert got.vals.shape == lead + (scn.grid.size, group.n, group.n)
        assert got.dvals is None and want.dvals is None
        assert np.array_equal(got.vals, want.vals), lead


def test_flows_stack_steps_in_front_of_the_point_axes():
    # an inner stencil on a point an outer stencil flowed: (4, 4, ...)
    rng, tb, p, V, W = _tb_fixture(71)
    t = np.array(STENCIL)
    q = flow(flow(p, V, t), W, t)
    assert q.m.shape == (4, 4, 2)
    assert q.g.vals.shape == q.g.zvals.shape == (4, 4, 32, 2, 2)
    assert tb.curvature(flow(p, V, t), V, W).vals.shape == (4, 32, 2, 2)
    # a stack of chart points over one loop flows both parts to its axes
    stack = TrivialPoint(flow(ChartPt(p.m), V[0], t).x, p.g)
    q = flow(stack, W, t[:2])
    assert q.m.shape == (2, 4, 2) and q.g.vals.shape == (2, 1, 32, 2, 2)


# ---------------------------------------------------------------------------
# stacked evaluations equal the evaluations step by step


def _arrays(value) -> list:
    """The arrays a value is made of, in a fixed order; None kept."""
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if isinstance(value, GridFun):
        return [value.vals, value.dvals]
    if isinstance(value, LoopPoint):
        return [value.vals, value.zvals]
    if isinstance(value, TrivialPoint):
        return [value.m] + _arrays(value.g)
    if isinstance(value, ChartPt):
        return [value.x]
    if isinstance(value, CaloronPoint):
        return _arrays(value.p) + [value.k, np.asarray(value.theta)]
    return [np.asarray(value)]


def _assert_per_step(fun, pt, v, steps):
    """fun at the stacked point flow(pt, v, steps) equals fun at every
    flow(pt, v, step) alone, bit for bit."""
    stacked = _arrays(fun(flow(pt, v, steps)))
    for idx in np.ndindex(steps.shape):
        alone = _arrays(fun(flow(pt, v, float(steps[idx]))))
        assert len(alone) == len(stacked)
        for s, a in zip(stacked, alone):
            if a is None:
                assert s is None
            else:
                assert s[idx].shape == a.shape
                assert np.array_equal(s[idx], a), (idx, np.max(np.abs(s[idx] - a)))


def _ident(x):
    return x


@st.composite
def _cases(draw):
    group = draw(st.sampled_from((SU2, SU3)))
    ntheta = 2 * draw(st.integers(8, 20))
    seed = draw(st.integers(0, 2 ** 20))
    shape = draw(st.sampled_from(((1,), (3,), (4,), (2, 3), (4, 2))))
    steps = draw(hnp.arrays(float, shape, elements=st.floats(-0.05, 0.05)))
    return group, ThetaGrid(ntheta), make_rng(seed), steps


@settings(max_examples=10, deadline=None)
@given(_cases())
def test_stacked_point_evaluates_as_every_step_alone(case):
    group, grid, rng, steps = case

    # chart points and loops
    x = ChartPt(rng.normal(size=3))
    _assert_per_step(_ident, x, rng.normal(size=3), steps)
    g = random_loop(rng, grid, group)
    X = random_loop_tangent(rng, grid, group)
    C = random_loop_tangent(rng, grid, group)
    _assert_per_step(_ident, g, X, steps)
    _assert_per_step(lambda q: centext.gomi_cocycle_Z(q, C), g, X, steps)

    # the two scenarios: a point, the tangent it flows along, two more
    tb = TrivialBundle.default(grid, group)
    pf = PathFibration(grid, group)
    tbs = (tb.point(rng.uniform(-0.6, 0.6, size=2), g),
           *((rng.normal(size=2), random_loop_tangent(rng, grid, group))
             for _ in range(3)))
    pfs = (random_path_point(rng, pf.grid, group),
           *(random_path_tangent(rng, pf.grid, group) for _ in range(3)))
    for scn, (p, V, A, B) in ((tb, tbs), (pf, pfs)):
        for fun in (_ident,
                    lambda q: scn.connection(q, A),
                    scn.higgs,
                    lambda q: scn.curvature(q, A, B),
                    lambda q: gerbe.nabla_phi(scn, q, A),
                    lambda q: gerbe.curving_f(scn, q, A, B)):
            _assert_per_step(fun, p, V, steps)

    # fibre pairs: a tuple point flows slot by slot
    m = rng.uniform(-0.6, 0.6, size=2)
    pair = tuple(tb.point(m, random_loop(rng, grid, group)) for _ in range(2))
    u = rng.normal(size=2)
    vecs, wecs = (tuple((u, random_loop_tangent(rng, grid, group)) for _ in range(2))
                  for _ in range(2))
    _assert_per_step(lambda q: gerbe.epsilon_form(tb, q, wecs), pair, vecs, steps)
    ppair = random_path_fibre_points(rng, pf, 2)
    pvecs, pwecs = random_path_fibre_tangents(rng, pf, 2, k=2)
    _assert_per_step(lambda q: gerbe.epsilon_form(pf, q, pwecs), ppair, pvecs, steps)

    # the transferred bundle: the angle flows off the grid nodes
    cpt = CaloronPoint(tbs[0], exp_alg(random_algebra(rng, group)),
                       float(grid.nodes[int(rng.integers(grid.n))]))
    Vc, Ac = (CaloronTangent(T, random_algebra(rng, group), float(rng.uniform(-1.0, 1.0)))
              for T in tbs[1:3])
    _assert_per_step(_ident, cpt, Vc, steps)
    _assert_per_step(lambda q: caloron.caloron_connection(tb, q, Ac), cpt, Vc, steps)


# ---------------------------------------------------------------------------
# stacked tangents evaluate as every tangent alone


def _assert_slices(stacked, alone, at):
    """Slice at(i) of every array of `stacked` equals the same array of
    alone[i], bit for bit."""
    stacked = _arrays(stacked)
    for i, one in enumerate(alone):
        one = _arrays(one)
        assert len(one) == len(stacked)
        for s, a in zip(stacked, one):
            if a is None:
                assert s is None
            else:
                assert s[at(i)].shape == a.shape
                assert np.array_equal(s[at(i)], a), (i, np.max(np.abs(s[at(i)] - a)))


@st.composite
def _tangent_cases(draw):
    group = draw(st.sampled_from((SU2, SU3)))
    grid = ThetaGrid(draw(st.sampled_from((16, 32, 48))))
    seed = draw(st.integers(0, 2 ** 20))
    k = draw(st.integers(1, 4))
    return group, grid, make_rng(seed), k


@settings(max_examples=10, deadline=None)
@given(_tangent_cases())
def test_stacked_tangents_evaluate_as_every_tangent_alone(case):
    group, grid, rng, k = case
    tb = TrivialBundle.default(grid, group)
    pf = PathFibration(grid, group)
    tbs = (tb.point(rng.uniform(-0.6, 0.6, size=2), random_loop(rng, grid, group)),
           [(rng.normal(size=2), random_loop_tangent(rng, grid, group))
            for _ in range(2 * k)])
    pfs = (random_path_point(rng, pf.grid, group),
           [random_path_tangent(rng, pf.grid, group) for _ in range(2 * k)])
    for scn, (p, Ts) in ((tb, tbs), (pf, pfs)):
        Vs, Ws = Ts[:k], Ts[k:]
        V, W = stack_tangents(Vs), stack_tangents(Ws)
        _assert_slices(scn.connection(p, V), [scn.connection(p, A) for A in Vs],
                       _ident)
        _assert_slices(scn.curvature(p, V, W),
                       [scn.curvature(p, A, B) for A, B in zip(Vs, Ws)], _ident)
        _assert_slices(gerbe.nabla_phi(scn, p, V),
                       [gerbe.nabla_phi(scn, p, A) for A in Vs], _ident)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from((SU2, SU3)), st.integers(8, 20), st.integers(0, 2 ** 20),
       st.integers(1, 4))
def test_nabla_phi_on_a_stack_is_every_single_call(group, half, seed, k):
    # the loop term, the chart term and the covariant terms round each
    # slice of a (k,)-stack of tangents as that tangent alone
    rng, grid = make_rng(seed), ThetaGrid(2 * half)
    tb = TrivialBundle.default(grid, group)
    pf = PathFibration(grid, group)
    tbs = (tb.point(rng.uniform(-0.6, 0.6, size=2), random_loop(rng, grid, group)),
           [(rng.normal(size=2), random_loop_tangent(rng, grid, group)) for _ in range(k)])
    pfs = (random_path_point(rng, pf.grid, group),
           [random_path_tangent(rng, pf.grid, group) for _ in range(k)])
    for scn, (p, Vs) in ((tb, tbs), (pf, pfs)):
        stacked = gerbe.nabla_phi(scn, p, stack_tangents(Vs))
        assert stacked.vals.shape[0] == k
        _assert_slices(stacked, [gerbe.nabla_phi(scn, p, V) for V in Vs], _ident)


@settings(max_examples=10, deadline=None)
@given(_tangent_cases())
def test_flows_along_a_tangent_stack_put_it_after_the_steps(case):
    group, grid, rng, k = case
    t = np.array(STENCIL)

    def step_then(i):
        return (slice(None), i)

    x = ChartPt(rng.normal(size=3))
    us = [rng.normal(size=3) for _ in range(k)]
    assert flow(x, stack_tangents(us), t).x.shape == (4, k, 3)
    _assert_slices(flow(x, stack_tangents(us), t), [flow(x, u, t) for u in us],
                   step_then)

    g = random_loop(rng, grid, group)
    Xs = [random_loop_tangent(rng, grid, group) for _ in range(k)]
    assert flow(g, stack_tangents(Xs), t).vals.shape == (4, k) + g.vals.shape
    _assert_slices(flow(g, stack_tangents(Xs), t), [flow(g, X, t) for X in Xs],
                   step_then)

    tb = TrivialBundle.default(grid, group)
    p = tb.point(rng.uniform(-0.6, 0.6, size=2), g)
    Vs = [(rng.normal(size=2), X) for X in Xs]
    q = flow(p, stack_tangents(Vs), t)
    assert q.m.shape == (4, k, 2) and q.g.vals.shape == (4, k) + g.vals.shape
    _assert_slices(q, [flow(p, V, t) for V in Vs], step_then)

    # a point stacked over k with a single tangent keeps its shape
    xs = ChartPt(np.stack(us))
    assert flow(xs, us[0], t).x.shape == (4, k, 3)
    gs = flow(g, Xs[0], t)
    assert flow(gs, Xs[0], t).vals.shape == (4, 4) + g.vals.shape
    ps = TrivialPoint(np.stack([V[0] for V in Vs]), g)
    qs = flow(ps, Vs[0], t)
    assert qs.m.shape == (4, k, 2) and qs.g.vals.shape == (4, 1) + g.vals.shape
