"""Exterior calculus and simplicial differentials on the point registry."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

from loopgerbe.forms import (ChartPt, Form, delta_fibre, delta_nerve,
                             directional, ext_d, flow, pair_stacks,
                             shuffle_index, signed_permutations,
                             tangent_bracket)
from loopgerbe.liegroup import SU2
from loopgerbe.loops import ThetaGrid, quad_s1
from loopgerbe.sampling import (make_rng, random_algebra, random_loop,
                                random_loop_tangent)
from oracles import shuffle_pairing, shuffles, spectral_dtheta

GRID = ThetaGrid(48)


def chart(*x):
    return ChartPt(np.array(x, dtype=float))


# ---------------------------------------------------------------------------
# flow and bracket dispatch


def test_flow_chart_and_tuple():
    p = chart(1.0, 2.0)
    q = flow(p, np.array([0.5, -1.0]), 2.0)
    assert np.allclose(q.x, [2.0, 0.0])
    pair = (chart(0.0, 0.0), chart(1.0, 1.0))
    moved = flow(pair, (np.array([1.0, 0.0]), np.array([0.0, 1.0])), 1.0)
    assert np.allclose(moved[0].x, [1.0, 0.0])
    assert np.allclose(moved[1].x, [1.0, 2.0])


def test_flow_unregistered_type_raises():
    with pytest.raises(TypeError):
        flow(object(), 0.0, 1.0)


def test_bracket_chart_is_zero_and_tuple_splits():
    v = np.array([1.0, 2.0])
    w = np.array([3.0, 4.0])
    assert np.allclose(tangent_bracket(v, w), 0.0)
    rng = make_rng(7)
    X = random_loop_tangent(rng, GRID, SU2)
    Y = random_loop_tangent(rng, GRID, SU2)
    bu, bX = tangent_bracket((v, X), (w, Y))
    assert np.allclose(bu, 0.0)
    assert np.allclose(bX.vals, X.vals @ Y.vals - Y.vals @ X.vals)


def test_gridfun_bracket_derivative_payload_matches_spectral():
    rng = make_rng(11)
    X = random_loop_tangent(rng, GRID, SU2)
    Y = random_loop_tangent(rng, GRID, SU2)
    b = tangent_bracket(X, Y)
    assert b.dvals is not None
    ref = spectral_dtheta(b.vals)
    assert np.max(np.abs(b.dvals - ref)) < 1e-10


# ---------------------------------------------------------------------------
# pairings


def _slot_stacks(forms, pt, vecs):
    """Each form's values on every increasing block of its degree, in
    itertools.combinations order, stacked."""
    return [np.array([f(pt, *(vecs[i] for i in block)) for block in
                      itertools.combinations(range(len(vecs)), f.degree)])
            for f in forms]


def stacked_pairing(p, forms):
    """`pair_stacks` of the forms' slot stacks, as a form."""
    degs = [f.degree for f in forms]
    return Form(sum(degs), lambda pt, *vecs: pair_stacks(
        p, _slot_stacks(forms, pt, vecs), shuffle_index(degs)))


def test_pair_stacks_two_one_forms():
    w1 = Form(1, lambda pt, v: float(pt.x[0] * v[0]))
    w2 = Form(1, lambda pt, v: float(pt.x[1] * v[1]))
    both = stacked_pairing(lambda a, b: a * b, (w1, w2))
    pt = chart(2.0, 3.0)
    v = np.array([1.0, -1.0])
    w = np.array([0.5, 2.0])
    want = (pt.x[0] * v[0]) * (pt.x[1] * w[1]) - (pt.x[0] * w[0]) * (pt.x[1] * v[1])
    assert both.degree == 2
    assert abs(both(pt, v, w) - want) < 1e-14


def _counted(form, calls):
    def ev(pt, *vecs):
        calls.append(form.name)
        return form(pt, *vecs)
    return Form(form.degree, ev, form.name)


def _brute_pair_sum(p, forms, pt, vecs, signed=True):
    """The d!-permutation sum written out directly, sign from the
    determinant of the permutation matrix; unsigned, the sum of the
    terms' magnitudes."""
    d = len(vecs)
    total = None
    for perm in itertools.permutations(range(d)):
        sign = int(round(np.linalg.det(np.eye(d)[list(perm)])))
        args, pos = [], 0
        for f in forms:
            args.append(f(pt, *(vecs[perm[pos + j]] for j in range(f.degree))))
            pos += f.degree
        term = p(*args)
        if not signed:
            term = abs(term)
        elif sign < 0:
            term = term * sign
        total = term if total is None else total + term
    return total


def _mul(*xs):
    return functools.reduce(operator.mul, xs)


def _chart_two_form(name, c):
    return Form(2, lambda pt, v, w: float(
        np.sin(c * pt.x[0]) * (v[0] * w[1] - v[1] * w[0])
        + pt.x[1] * (v[2] * w[3] - v[3] * w[2])
        + c * (v[1] * w[2] - v[2] * w[1])), name)


def _chart_one_form(name, c):
    return Form(1, lambda pt, v: float(
        pt.x[1] ** 2 * v[2] + c * v[0] - pt.x[0] * v[3]), name)


def _chart_vectors(seed):
    rng = make_rng(seed)
    return chart(0.7, -0.4, 1.3, 0.2), [rng.normal(size=4) for _ in range(4)]


def test_pair_stacks_is_the_shuffle_sum():
    # the shuffles, written out in permutation order, bit for bit, and
    # the shuffle-by-shuffle oracle
    pt, vs = _chart_vectors(3)
    F, G = _chart_two_form("F", 1.0), _chart_two_form("G", -2.5)
    A, B = _chart_one_form("A", 0.5), _chart_one_form("B", -1.5)
    F01, F02, F03, F12, F13, F23 = (F(pt, vs[i], vs[j]) for i, j in
                                    itertools.combinations(range(4), 2))
    G01, G02, G03, G12, G13, G23 = (G(pt, vs[i], vs[j]) for i, j in
                                    itertools.combinations(range(4), 2))
    A0, A1, A2, A3 = (A(pt, v) for v in vs)
    B0, B1, B2, B3 = (B(pt, v) for v in vs)
    want = (F01 * G23 - F02 * G13 + F03 * G12
            + F12 * G03 - F13 * G02 + F23 * G01)
    assert stacked_pairing(_mul, (F, G))(pt, *vs) == want
    assert shuffle_pairing(_mul, (F, G))(pt, *vs) == want
    want = F01 * A2 - F02 * A1 + F12 * A0
    assert stacked_pairing(_mul, (F, A))(pt, *vs[:3]) == want
    assert shuffle_pairing(_mul, (F, A))(pt, *vs[:3]) == want
    want = A0 * B1 - A1 * B0
    assert stacked_pairing(_mul, (A, B))(pt, *vs[:2]) == want
    assert shuffle_pairing(_mul, (A, B))(pt, *vs[:2]) == want
    want = (A0 * F12 * B3 - A0 * F13 * B2 + A0 * F23 * B1
            - A1 * F02 * B3 + A1 * F03 * B2 - A1 * F23 * B0
            + A2 * F01 * B3 - A2 * F03 * B1 + A2 * F13 * B0
            - A3 * F01 * B2 + A3 * F02 * B1 - A3 * F12 * B0)
    assert stacked_pairing(_mul, (A, F, B))(pt, *vs) == want
    assert shuffle_pairing(_mul, (A, F, B))(pt, *vs) == want


def test_pair_stacks_is_the_permutation_sum_over_block_factorials():
    # on alternating inputs the shuffle sum is the d!-sum / prod k_i!,
    # to round-off relative to the magnitude of the summed terms (the
    # sums cancel, so the value itself may be much smaller)
    F, G = _chart_two_form("F", 1.0), _chart_two_form("G", -2.5)
    A, B = _chart_one_form("A", 0.5), _chart_one_form("B", -1.5)
    for seed in range(8):
        pt, vs = _chart_vectors(seed)
        for forms, scale in (((A, B), 1.0), ((F, A), 2.0), ((F, G), 4.0),
                             ((F, F), 4.0), ((A, F, B), 2.0)):
            d = sum(f.degree for f in forms)
            got = stacked_pairing(_mul, forms)(pt, *vs[:d])
            want = _brute_pair_sum(_mul, forms, pt, vs[:d]) / scale
            size = _brute_pair_sum(_mul, forms, pt, vs[:d], signed=False) / scale
            assert abs(got - want) <= 1e-15 * size


def test_pair_stacks_calls_p_once_per_pairing():
    # the slot stacks hold each form's values once per block; p is
    # called once, on the stacks gathered for every shuffle at once,
    # where the shuffle-by-shuffle oracle calls it once per shuffle and
    # evaluates every slot in each
    pt, vs = _chart_vectors(13)
    F, G = _chart_two_form("F", 1.0), _chart_two_form("G", -2.5)
    A, B = _chart_one_form("A", 0.5), _chart_one_form("B", -1.5)
    for forms, nshuffles in (((A, B), 2), ((F, A), 3), ((F, G), 6),
                             ((F, F), 6), ((A, F, B), 12)):
        d = sum(f.degree for f in forms)
        degs = [f.degree for f in forms]
        seen, calls = [], []

        def p(*xs):
            seen.append([np.shape(x) for x in xs])
            return _mul(*xs)

        stacks = _slot_stacks([_counted(f, calls) for f in forms], pt, vs[:d])
        assert len(calls) == sum(math.comb(d, k) for k in degs)
        got = pair_stacks(p, stacks, shuffle_index(degs))
        assert seen == [[(nshuffles,)] * len(forms)]
        seen.clear()
        calls.clear()
        want = shuffle_pairing(p, [_counted(f, calls) for f in forms])(pt, *vs[:d])
        assert len(seen) == nshuffles and len(calls) == nshuffles * len(forms)
        assert got == want


def test_shuffle_index_is_the_shuffles_by_position():
    # index[r][s] is the position of block r of shuffle s among the
    # combinations of its size; signs are the shuffles' signs
    for d in range(1, 6):
        for degs in _compositions(d) + [(0, d), (d, 0)]:
            index, signs = shuffle_index(degs)
            want = shuffles(degs)
            assert list(signs) == [sign for _, sign in want]
            for r, k in enumerate(degs):
                combos = list(itertools.combinations(range(d), k))
                assert [combos[n] for n in index[r]] == [b[r] for b, _ in want]


def test_shuffle_index_equals_the_index_of_the_enumerated_shuffles():
    # the index arrays and signs of the pairings the package makes are
    # the ones looked up from the shuffles enumerated by nested
    # combinations: the same values, types and dtypes
    for degs in ((1, 1), (2, 1), (2, 2), (1, 2, 1)):
        at = [{c: n for n, c in enumerate(itertools.combinations(range(sum(degs)), k))}
              for k in degs]
        blocks, want_signs = zip(*shuffles(degs))
        want = [np.array([table[b[r]] for b in blocks]) for r, table in enumerate(at)]
        index, signs = shuffle_index(degs)
        assert type(signs) is tuple and signs == want_signs
        assert len(index) == len(want)
        for got, ref in zip(index, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert shuffle_index(()) == ([], (1,))


def test_signed_permutations_order_and_sign():
    for d in range(5):
        got = signed_permutations(d)
        assert [perm for perm, _ in got] == list(itertools.permutations(range(d)))
        for perm, sign in got:
            # the determinant of the permutation matrix is its sign
            assert sign == round(np.linalg.det(np.eye(d)[list(perm)]))


def _compositions(d):
    """Every tuple of positive degrees summing to d."""
    if d == 0:
        return [()]
    return [(k,) + rest for k in range(1, d + 1) for rest in _compositions(d - k)]


def test_shuffles_are_the_increasing_signed_permutations():
    # built from nested combinations, the shuffles are the signed
    # permutations that increase within every block, in the same order
    for d in range(1, 6):
        for degs in _compositions(d) + [(0, d), (d, 0)]:
            ends = list(itertools.accumulate(degs))
            want = []
            for perm, sign in signed_permutations(d):
                blocks = [perm[e - k:e] for k, e in zip(degs, ends)]
                if all(list(b) == sorted(b) for b in blocks):
                    want.append((blocks, sign))
            assert shuffles(degs) == want, degs


def test_form_arity_checked():
    f = Form(2, lambda pt, v, w: 0.0)
    with pytest.raises(ValueError):
        f(chart(0.0), np.zeros(1))


# ---------------------------------------------------------------------------
# exterior derivative


def test_directional_orders():
    # one Richardson level is exact on quartics.  fun takes the step
    # array and stacks its values with the step axis in front
    def fun(t):
        return np.stack([t ** 2 + 3 * t, t ** 4 + t ** 3 - 2 * t], axis=-1)

    assert np.allclose(directional(fun, 0.1), [3.0, -2.0], rtol=0, atol=1e-13)


def test_ext_d_chart_zero_form_exact():
    f = Form(0, lambda pt: pt.x[..., 0] ** 2 * pt.x[..., 1])
    pt = chart(1.5, -0.7)
    v = np.array([0.3, 0.9])
    want = 2 * 1.5 * (-0.7) * 0.3 + 1.5 ** 2 * 0.9
    assert abs(ext_d(f, pt, (v,)) - want) < 1e-9


def test_ext_d_chart_one_form_exact():
    # x0 dx1 has exterior derivative dx0 wedge dx1
    w = Form(1, lambda pt, v: pt.x[..., 0] * v[1])
    pt = chart(0.8, 0.2)
    v = np.array([1.0, 2.0])
    u = np.array([-0.5, 1.0])
    want = v[0] * u[1] - u[0] * v[1]
    assert abs(ext_d(w, pt, (v, u)) - want) < 1e-9


def _pairing_zero_form(C):
    def ev(g):
        return 0.5j / np.pi * (quad_s1(
            np.einsum("ij,...tji->...t", C, g.z().vals)) * -1.0)
    return Form(0, lambda g: ev(g))


def test_ext_d_loop_zero_form_matches_analytic():
    # F(g) = (i/2pi) int <C, Z(g)>; dF(g; X) = (i/2pi) int <C, ad(g) X'>
    rng = make_rng(19)
    C = random_algebra(rng, SU2)
    g = random_loop(rng, GRID, SU2)
    X = random_loop_tangent(rng, GRID, SU2)
    F = _pairing_zero_form(C)
    got = ext_d(F, g, (X,), h=1e-3)
    adx = g.vals @ X.dtheta().vals @ np.linalg.inv(g.vals)
    want = 0.5j / np.pi * quad_s1(np.einsum("ij,tji->t", C, adx) * -1.0)
    assert abs(got - want) < 1e-8


def test_ext_d_squared_small_on_chart():
    w = Form(1, lambda pt, v: (
        np.sin(pt.x[..., 0] * pt.x[..., 1]) * v[0] + np.exp(0.3 * pt.x[..., 2]) * v[1]
        + np.cos(pt.x[..., 0]) * pt.x[..., 2] * v[2]))
    dw = Form(2, lambda pt, a, b: ext_d(w, pt, (a, b)))
    pt = chart(0.4, -0.8, 0.6)
    rng = make_rng(5)
    vs = [rng.normal(size=3) for _ in range(3)]
    assert abs(ext_d(dw, pt, tuple(vs))) < 1e-8


def test_ext_d_squared_small_on_loop_group():
    rng = make_rng(23)
    C = random_algebra(rng, SU2)
    g = random_loop(rng, GRID, SU2)
    X = random_loop_tangent(rng, GRID, SU2)
    Y = random_loop_tangent(rng, GRID, SU2)
    F = _pairing_zero_form(C)
    dF = Form(1, lambda p, v: ext_d(F, p, (v,), h=1e-3))
    assert abs(ext_d(dF, g, (X, Y), h=1e-3)) < 1e-8


# ---------------------------------------------------------------------------
# simplicial differentials


def test_delta_fibre_faces_and_square():
    f1 = Form(1, lambda pt, v: float(
        np.sin(pt[0].x[0]) * v[1][0] + pt[1].x[0] ** 2 * v[0][0]))
    d1 = delta_fibre(f1)
    pts = tuple(chart(x) for x in (0.3, -0.5, 0.9))
    vs = tuple(np.array([c]) for c in (1.0, 2.0, -1.5))
    want = (f1((pts[1], pts[2]), (vs[1], vs[2]))
            - f1((pts[0], pts[2]), (vs[0], vs[2]))
            + f1((pts[0], pts[1]), (vs[0], vs[1])))
    assert abs(d1(pts, vs) - want) < 1e-14

    dd = delta_fibre(d1)
    pts4 = tuple(chart(x) for x in (0.3, -0.5, 0.9, 0.1))
    vs4 = tuple(np.array([c]) for c in (1.0, 2.0, -1.5, 0.7))
    assert abs(dd(pts4, vs4)) <= 1e-12


def test_delta_nerve_zero_form_faces():
    node = 5

    def ev(pt):
        g, = pt
        return float(np.real(np.trace(g.vals[node])))

    F = Form(0, lambda pt: ev(pt))
    dF = delta_nerve(F)
    rng = make_rng(31)
    g = random_loop(rng, GRID, SU2)
    h = random_loop(rng, GRID, SU2)
    want = (float(np.real(np.trace(h.vals[node])))
            - float(np.real(np.trace(g.mul(h).vals[node])))
            + float(np.real(np.trace(g.vals[node]))))
    assert abs(dF((g, h)) - want) < 1e-13


def test_delta_nerve_square_tiny():
    def ev(pt, v):
        g, = pt
        X, = v
        return 0.5j / np.pi * complex(
            quad_s1(np.einsum("tij,tji->t", X.vals, g.z().vals)) * -1.0)

    a = Form(1, lambda pt, v: ev(pt, v))
    da = delta_nerve(a)
    dda = delta_nerve(da)
    rng = make_rng(37)
    gs = tuple(random_loop(rng, GRID, SU2) for _ in range(3))
    xs = tuple(random_loop_tangent(rng, GRID, SU2) for _ in range(3))
    assert abs(dda(gs, xs)) <= 1e-12


def test_delta_fibre_square_on_loop_points():
    def ev(pt, v):
        return 0.5j / np.pi * complex(quad_s1(
            np.einsum("tij,tji->t", v[0].vals, pt[1].z().vals)) * -1.0)

    f = Form(1, lambda pt, v: ev(pt, v))
    dd = delta_fibre(delta_fibre(f))
    rng = make_rng(41)
    gs = tuple(random_loop(rng, GRID, SU2) for _ in range(4))
    xs = tuple(random_loop_tangent(rng, GRID, SU2) for _ in range(4))
    assert abs(dd(gs, xs)) <= 1e-12
