"""Fixture profiles and loop-point samples, each evaluated once.

A stacked TrigPoly, with one stack axis or two, evaluates all its
terms and their derivatives in one val_dval call, and the samplers
multiply and sum the terms of a stack as the same terms taken one at a
time, bit for bit; val_dval, one cos and one sin call over every
harmonic and one ordered sum, equals the sum harmonic by harmonic bit
for bit, and a stack of matrix terms sums as the terms one at a time
from 0.0, signed zeros included.  A loop point keeps its
left logarithmic derivative and its endpoint frame; both equal a fresh
computation bit for bit, and go with the point."""

import gc
import weakref

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from loopgerbe import loops, sampling
from loopgerbe.gerbe import PathFibration, TrivialBundle
from loopgerbe.liegroup import SU2, SU3, adjoint_inv, exp_alg, group_inv, mm
from loopgerbe.loops import Fn, GridFun, LoopPoint, ThetaGrid, TrigPoly, conj_loop
from oracles import trig_dval, trig_val

GROUPS = (SU2, SU3)


def _same(a, b) -> bool:
    """Equal bit for bit, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# per-term oracle: one profile, one product and one exponential at a time


def _trig(tp: TrigPoly, t) -> tuple:
    """val and dval of one scalar profile, summed term by term."""
    t = np.asarray(t, dtype=float)
    val = np.full_like(t, tp.a0)
    for m, a in enumerate(tp.ac, start=1):
        val = val + a * np.cos(m * t)
    for m, b in enumerate(tp.bs, start=1):
        val = val + b * np.sin(m * t)
    dval = np.zeros_like(t)
    for m, a in enumerate(tp.ac, start=1):
        dval = dval - m * a * np.sin(m * t)
    for m, b in enumerate(tp.bs, start=1):
        dval = dval + m * b * np.cos(m * t)
    return val, dval


def _based(tp: TrigPoly, t) -> tuple:
    val, dval = _trig(tp, t)
    return val - float(_trig(tp, np.asarray(0.0))[0]), dval


def _ramp(c, t) -> tuple:
    return c * t / (2.0 * np.pi), np.full_like(t, c / (2.0 * np.pi))


def _sum(terms) -> tuple:
    """0.0 + f_0 X_0 + f_1 X_1 + ... for (val, dval, X) terms."""
    vals = dvals = 0.0
    for v, d, X in terms:
        vals = vals + v[:, None, None] * X
        dvals = dvals + d[:, None, None] * X
    return vals, dvals


def _product(grid, factors) -> LoopPoint:
    """exp(f_0 xi_0) exp(f_1 xi_1) ... for (val, dval, xi) factors, one
    decomposition per factor."""
    out = None
    for v, d, xi in factors:
        e = exp_alg(xi, v)
        z = np.ascontiguousarray(d[:, None, None] * np.broadcast_to(xi, e.shape))
        lp = LoopPoint(grid, e, z)
        out = lp if out is None else out.mul(lp)
    return out


def _loop_tangent(rng, grid, group) -> tuple:
    t = grid.nodes
    return _sum([(*_trig(sampling.random_trig(rng), t), group.basis[a])
                 for a in range(group.dim)])


def _path_tangent(rng, grid, group) -> tuple:
    t = grid.nodes
    end = sampling.random_algebra(rng, group, sampling.SCALE)
    terms = [(*_ramp(1.0, t), end)]
    terms += [(*_based(sampling.random_trig(rng), t), group.basis[a])
              for a in range(group.dim)]
    return _sum(terms)


def _loop(rng, grid, group, based) -> LoopPoint:
    factors = []
    for _ in range(sampling.NFACTORS):
        tp = sampling.random_trig(rng)
        v, d = (_based if based else _trig)(tp, grid.nodes)
        factors.append((v, d, sampling.random_algebra(rng, group)))
    return _product(grid, factors)


def _path_point(rng, grid, group) -> LoopPoint:
    factors = []
    for _ in range(sampling.NFACTORS):
        v, d = _based(sampling.random_trig(rng), grid.nodes)
        rv, rd = _ramp(float(rng.uniform(-sampling.SCALE, sampling.SCALE)), grid.nodes)
        # Fn.add sums from the integer 0
        factors.append((0 + v + rv, 0 + d + rd, sampling.random_algebra(rng, group)))
    return _product(grid, factors)


# ---------------------------------------------------------------------------
# stacked profiles


_COEF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
_GRIDS = (ThetaGrid(8), ThetaGrid(8, closed=True), ThetaGrid(16),
          ThetaGrid(16, closed=True))


@st.composite
def _stacks(draw):
    k = draw(st.integers(1, 4))
    a0 = draw(hnp.arrays(float, (k,), elements=_COEF))
    ac = draw(hnp.arrays(float, (k, draw(st.integers(0, 3))), elements=_COEF))
    bs = draw(hnp.arrays(float, (k, draw(st.integers(0, 3))), elements=_COEF))
    return TrigPoly(a0, ac, bs), draw(st.sampled_from(_GRIDS))


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_a_stacked_trig_poly_rounds_each_term_as_alone(case):
    stack, grid = case
    t = grid.nodes
    (val, dval), at0 = stack.val_dval(t), stack.val_dval(0.0)[0]
    based, dbased = Fn.based(stack).val_dval(t)
    k = stack.a0.shape[0]
    assert val.shape == dval.shape == based.shape == dbased.shape == (k, grid.size)
    assert at0.shape == (k,)
    for j in range(k):
        one = TrigPoly(float(stack.a0[j]), tuple(stack.ac[j]), tuple(stack.bs[j]))
        want_val, want_dval = _trig(one, t)
        one_val, one_dval = one.val_dval(t)
        assert _same(val[j], one_val) and _same(val[j], want_val)
        assert _same(dval[j], one_dval) and _same(dval[j], want_dval)
        assert _same(at0[j], one.val_dval(0.0)[0])
        assert _same(based[j], Fn.based(one).val_dval(t)[0])
        assert _same(based[j], _based(one, t)[0])
        assert _same(dbased[j], want_dval)


@st.composite
def _trig_cases(draw):
    """A TrigPoly of stack shape (), (k,) or (k1, k2) with 0 to 4
    harmonics of each kind, some coefficients signed zeros, or the zero
    or the unit profile; and its argument: a 0-d t, or the nodes of a
    one-node, periodic or closed grid."""
    shape = draw(st.sampled_from(((), (3,), (2, 3))))
    harmonics = [draw(st.integers(0, 4)) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a0, ac, bs = (rng.uniform(-2.0, 2.0, size=shape + extra)
                  * rng.choice([1.0, 0.0, -0.0], size=shape + extra, p=[0.6, 0.2, 0.2])
                  for extra in ((), (harmonics[0],), (harmonics[1],)))
    if shape == ():
        a0, ac, bs = float(a0), tuple(ac), tuple(bs)
    n = 2 * draw(st.integers(4, 12))
    t = draw(st.one_of(
        st.floats(-10.0, 10.0).map(np.asarray),
        st.integers(0, n - 1).map(lambda j: ThetaGrid(n, node=j).nodes),
        st.sampled_from((ThetaGrid(n).nodes, ThetaGrid(n, closed=True).nodes))))
    tp = draw(st.sampled_from((TrigPoly(a0, ac, bs), TrigPoly(), TrigPoly(1.0))))
    return tp, t


@settings(max_examples=120, deadline=None)
@given(_trig_cases())
def test_trig_poly_is_the_sum_harmonic_by_harmonic(case):
    # one cos and one sin call over every harmonic, one product and one
    # ordered sum round each term of the value and of the derivative as
    # one harmonic at a time does, added in the same order
    tp, t = case
    val, dval = tp.val_dval(t)
    want_val, want_dval = trig_val(tp, t), trig_dval(tp, t)
    assert np.array_equal(val, want_val) and np.array_equal(dval, want_dval)
    assert _same(val, want_val) and _same(dval, want_dval)
    assert val.shape == np.shape(tp.a0) + t.shape


@st.composite
def _two_axis_stacks(draw):
    """A (k1, k2) stack of profiles: k2 tangents of k1 profiles each."""
    k1, k2, h = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    a0 = draw(hnp.arrays(float, (k1, k2), elements=_COEF))
    ac = draw(hnp.arrays(float, (k1, k2, h), elements=_COEF))
    bs = draw(hnp.arrays(float, (k1, k2, h), elements=_COEF))
    return TrigPoly(a0, ac, bs), draw(st.sampled_from(_GRIDS))


@settings(max_examples=40, deadline=None)
@given(_two_axis_stacks(), st.sampled_from(GROUPS))
def test_a_two_axis_stack_rounds_each_profile_as_alone(case, group):
    # both stack axes lead the samples, and each profile rounds as it
    # does alone; with the first axis over k1 basis elements,
    # from_profiles over the stack is the k2 one-tangent results stacked
    stack, grid = case
    t = grid.nodes
    val, dval = stack.val_dval(t)
    k1, k2 = stack.a0.shape
    assert val.shape == dval.shape == (k1, k2, grid.size)
    for i in range(k1):
        for j in range(k2):
            one = TrigPoly(float(stack.a0[i, j]), tuple(stack.ac[i, j]),
                           tuple(stack.bs[i, j]))
            want_val, want_dval = _trig(one, t)
            one_val, one_dval = one.val_dval(t)
            assert _same(val[i, j], one_val) and _same(val[i, j], want_val)
            assert _same(dval[i, j], one_dval) and _same(dval[i, j], want_dval)
    basis = group.basis[:k1]
    got = GridFun.from_profiles(grid, [(stack, basis)])
    want = [GridFun.from_profiles(grid, [(TrigPoly(stack.a0[:, j], stack.ac[:, j],
                                                   stack.bs[:, j]), basis)])
            for j in range(k2)]
    assert _same(got.vals, np.stack([w.vals for w in want]))
    assert _same(got.dvals, np.stack([w.dvals for w in want]))


_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0, width=16))


@st.composite
def _matrix_stacks(draw):
    """(samples, X, head): k profile samples of stack shape (k,) + lead +
    (nodes,), k complex n x n matrices, or k stacks of them of shape lead
    (a matrix per stack index), and a plain (samples, matrix) term to put
    before them or None; every part may be a signed zero."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(2, 3))
    lead = draw(st.sampled_from(((), (2,), (3, 2))))
    nodes = draw(st.sampled_from((1, 5)))
    samples = draw(hnp.arrays(float, (k,) + lead + (nodes,), elements=_SIGNED))
    xlead = draw(st.sampled_from(((), lead)))
    parts = draw(hnp.arrays(float, (2, k) + xlead + (n, n), elements=_SIGNED))
    head = draw(st.one_of(st.none(), st.tuples(
        hnp.arrays(float, lead + (nodes,), elements=_SIGNED),
        hnp.arrays(float, (2, n, n), elements=_SIGNED))))
    if head is not None:
        head = (head[0], head[1][0] + 1j * head[1][1])
    return samples, parts[0] + 1j * parts[1], head


@settings(max_examples=120, deadline=None)
@given(_matrix_stacks())
def test_a_stack_of_terms_sums_as_its_terms_from_zero(case):
    # one product and one ordered reduce along the term axis give the
    # sequential sum from 0.0, the sign of every zero part included;
    # after a plain term the stack adds on to the sum so far, and a
    # matrix that varies over the stack multiplies its own samples
    samples, X, head = case
    terms = [(samples, X)] if head is None else [head, (samples, X)]
    want = 0.0
    for s, M in ([head] if head else []) + list(zip(samples, X)):
        want = want + s[..., None, None] * M[..., None, :, :]
    got = loops.add_terms(terms)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def _count_waves(monkeypatch):
    """Count every np.cos and np.sin call into the returned list."""
    calls = []
    for name in ("cos", "sin"):
        def counted(*args, _wave=getattr(np, name), _name=name, **kwargs):
            calls.append(_name)
            return _wave(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_one_wave_call_of_each_kind_per_profile_stack(monkeypatch, group):
    # from_profiles evaluates a profile stack once, with its derivative:
    # one cos and one sin call, plain or based, on a full or a one-node
    # grid; a product loop evaluates each factor's profile once
    rng = sampling.make_rng(5)
    stack = TrigPoly(*sampling.random_trig_coeffs(rng, group.dim))
    factors = [(Fn.based(f), xi) for f, xi in sampling.random_loop_factors(rng, group)]
    calls = _count_waves(monkeypatch)
    for grid in (ThetaGrid(16), ThetaGrid(16, node=3), ThetaGrid(16, closed=True)):
        for profile in (stack, Fn.based(stack)):
            del calls[:]
            GridFun.from_profiles(grid, [(profile, group.basis)])
            assert sorted(calls) == ["cos", "sin"]
        del calls[:]
        loops.product_loop(grid, factors)
        assert sorted(calls) == ["cos"] * len(factors) + ["sin"] * len(factors)


@pytest.mark.parametrize("k", (1, 3, 8))
def test_a_profile_stack_is_one_draw_of_the_same_numbers(k):
    # one (k, 5) uniform call takes from Philox the numbers that drawing
    # each profile's a0, cos pair and sin pair apart takes, in the same
    # order, and leaves the generator in the same state
    rng = sampling.RecordingRNG(sampling.make_rng(17))
    ref = sampling.make_rng(17)
    a0, ac, bs = sampling.random_trig_coeffs(rng, k)
    assert [(e["method"], np.shape(e["values"])) for e in rng.log] == [("uniform", (k, 5))]
    for j in range(k):
        assert _same(a0[j], np.float64(ref.uniform(-0.5, 0.5)))
        assert _same(ac[j], ref.uniform(-0.5, 0.5, size=2) * sampling.DAMP)
        assert _same(bs[j], ref.uniform(-0.5, 0.5, size=2) * sampling.DAMP)
    assert np.array_equal(rng._rng.bit_generator.random_raw(4),
                          ref.bit_generator.random_raw(4))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("seed", (7, 3))
def test_samplers_match_the_per_term_oracle(group, seed):
    per, closed = ThetaGrid(16), ThetaGrid(16, closed=True)
    rng, ref = sampling.make_rng(seed), sampling.make_rng(seed)

    X = sampling.random_loop_tangent(rng, per, group)
    vals, dvals = _loop_tangent(ref, per, group)
    assert _same(X.vals, vals) and _same(X.dvals, dvals)

    (V,), = sampling.PATH.fibre_tangents(rng, PathFibration(per, group), 1)
    vals, dvals = _path_tangent(ref, closed, group)
    assert _same(V.vals, vals) and _same(V.dvals, dvals)

    for based in (False, True):
        g = sampling.random_loop(rng, per, group, based=based)
        want = _loop(ref, per, group, based)
        assert _same(g.vals, want.vals) and _same(g.zvals, want.zvals)

    p = sampling.random_path_point(rng, closed, group)
    want = _path_point(ref, closed, group)
    assert _same(p.vals, want.vals) and _same(p.zvals, want.zvals)
    # both generators drew the same numbers in the same order
    assert _same(rng.uniform(size=3), ref.uniform(size=3))


# ---------------------------------------------------------------------------
# stacked draws against the samplers one object at a time


def _same_loops(got, want) -> bool:
    return len(got) == len(want) and all(
        _same(g.vals, w.vals) and _same(g.zvals, w.zvals) for g, w in zip(got, want))


def _same_tangents(got, want) -> bool:
    return len(got) == len(want) and all(
        _same(g.vals, w.vals) and _same(g.dvals, w.dvals) for g, w in zip(got, want))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(8, 32), st.integers(1, 3),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_a_stacked_draw_keeps_every_bit(group, half, q, k, seed):
    # each stacked sampler draws the same numbers in the same calls as
    # the samplers one object at a time, builds the same samples bit for
    # bit, and leaves the generator in the same state
    grid = ThetaGrid(2 * half)
    tb, pf = TrivialBundle.default(grid, group), PathFibration(grid, group)
    rng, ref = sampling.make_rng(seed), sampling.make_rng(seed)

    assert _same_loops(sampling.random_loops(rng, grid, group, q),
                       [oracles.random_loop(ref, grid, group) for _ in range(q)])
    assert _same_tangents(sampling.random_loop_tangents(rng, grid, group, k),
                          [oracles.random_loop_tangent(ref, grid, group)
                           for _ in range(k)])
    for based in (False, True):
        assert _same_loops([sampling.random_loop(rng, grid, group, based=based)],
                           [oracles.random_loop(ref, grid, group, based=based)])

    # the trivial bundle: points (m, g) and tangents (u, X)
    got = sampling.TRIVIAL.fibre_points(rng, tb, q)
    want = oracles.random_bundle_fibre_points(ref, tb, q)
    assert all(_same(g.m, w.m) for g, w in zip(got, want))
    assert _same_loops([p.g for p in got], [p.g for p in want])
    got = sum(sampling.TRIVIAL.fibre_tangents(rng, tb, q, k), ())
    want = sum(oracles.random_bundle_fibre_tangents(ref, tb, q, k), ())
    assert all(_same(g[0], w[0]) for g, w in zip(got, want))
    assert _same_tangents([V[1] for V in got], [V[1] for V in want])
    assert _same_loops([sampling.TRIVIAL.acting_loop(rng, tb)],
                       [oracles.random_loop(ref, grid, group)])

    # the path fibration: points and tangents on its closed grid
    assert _same_loops(sampling.PATH.fibre_points(rng, pf, q),
                       oracles.random_path_fibre_points(ref, pf, q))
    assert _same_tangents(sum(sampling.PATH.fibre_tangents(rng, pf, q, k), ()),
                          sum(oracles.random_path_fibre_tangents(ref, pf, q, k), ()))
    assert _same_loops([sampling.PATH.acting_loop(rng, pf)],
                       [oracles.random_loop(ref, pf.grid, group, based=True)])
    assert np.array_equal(rng.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))


# ---------------------------------------------------------------------------
# what a loop point keeps


def _points(rng, group):
    grid = ThetaGrid(16, closed=True)
    p = sampling.random_path_point(rng, grid, group)
    (V,), = sampling.PATH.fibre_tangents(rng, PathFibration(grid, group), 1)
    # a point and a flowed stack of points
    return p, p.flow(V, np.array([0.1, -0.05]))


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_kept_samples_equal_fresh_ones(group):
    for p in _points(sampling.make_rng(41), group):
        L = p.log_derivative
        assert p.log_derivative is L
        assert _same(L.vals, adjoint_inv(p.vals, p.z().vals))
        Q = p.endpoint_frame
        assert p.endpoint_frame is Q
        assert _same(Q, mm(group_inv(p.vals), p.vals[..., -1:, :, :]))
    loop = sampling.random_loop(sampling.make_rng(42), ThetaGrid(16), group)
    with pytest.raises(ValueError):
        loop.endpoint_frame


def test_kept_samples_go_with_their_point():
    p = _points(sampling.make_rng(43), SU2)[0]
    kept = weakref.ref(p.log_derivative)
    frame = weakref.ref(p.endpoint_frame)
    del p
    gc.collect()
    assert kept() is None and frame() is None


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_path_higgs_is_the_conjugated_z(group):
    pf = PathFibration(ThetaGrid(16), group)
    for p in _points(sampling.make_rng(44), group):
        phi, want = pf.higgs(p), conj_loop(p, p.z())
        assert _same(phi.vals, want.vals)
        assert phi.dvals is None and want.dvals is None
