"""Exterior calculus and simplicial differentials on the point registry."""

import itertools

import numpy as np
import pytest

from loopgerbe.forms import (ChartPt, Form, delta_fibre, delta_nerve,
                             directional, ext_d, flow, pair_forms,
                             signed_permutations, tangent_bracket, wedge_pair)
from loopgerbe.liegroup import SU2
from loopgerbe.loops import ThetaGrid, quad_s1, spectral_dtheta
from loopgerbe.sampling import (make_rng, random_algebra, random_loop,
                                random_loop_tangent)

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


def test_pair_forms_two_one_forms():
    w1 = Form(1, lambda pt, v: float(pt.x[0] * v[0]))
    w2 = Form(1, lambda pt, v: float(pt.x[1] * v[1]))
    both = pair_forms(lambda a, b: a * b, (w1, w2))
    pt = chart(2.0, 3.0)
    v = np.array([1.0, -1.0])
    w = np.array([0.5, 2.0])
    want = (pt.x[0] * v[0]) * (pt.x[1] * w[1]) - (pt.x[0] * w[0]) * (pt.x[1] * v[1])
    assert both.degree == 2
    assert abs(both(pt, v, w) - want) < 1e-14


def test_wedge_pair_two_one_is_three_term_shuffle():
    F2 = Form(2, lambda pt, v, w: float(
        np.sin(pt.x[0]) * (v[0] * w[1] - v[1] * w[0])))
    F1 = Form(1, lambda pt, v: float(pt.x[1] ** 2 * v[2]))
    shuffled = wedge_pair(lambda a, b: a * b, (F2, F1))
    full = pair_forms(lambda a, b: a * b, (F2, F1))
    pt = chart(0.7, -0.4, 1.3)
    rng = make_rng(3)
    vs = [rng.normal(size=3) for _ in range(3)]
    want = (F2(pt, vs[0], vs[1]) * F1(pt, vs[2])
            - F2(pt, vs[0], vs[2]) * F1(pt, vs[1])
            + F2(pt, vs[1], vs[2]) * F1(pt, vs[0]))
    got = shuffled(pt, *vs)
    assert abs(got - want) < 1e-13
    # the unnormalised sum over all six permutations double counts
    assert abs(full(pt, *vs) - 2.0 * want) < 1e-13


def _counted(form, calls):
    def ev(pt, *vecs):
        calls.append(form.name)
        return form(pt, *vecs)
    return Form(form.degree, ev, form.name)


def _brute_pair_sum(p, forms, pt, vecs):
    """The d!-permutation sum written out directly, sign from the
    determinant of the permutation matrix."""
    d = len(vecs)
    total = None
    for perm in itertools.permutations(range(d)):
        sign = int(round(np.linalg.det(np.eye(d)[list(perm)])))
        args, pos = [], 0
        for f in forms:
            args.append(f(pt, *(vecs[perm[pos + j]] for j in range(f.degree))))
            pos += f.degree
        term = p(*args)
        term = term * sign if sign < 0 else term
        total = term if total is None else total + term
    return total


def _mul(a, b):
    return a * b


def _chart_two_form(name, c):
    return Form(2, lambda pt, v, w: float(
        np.sin(c * pt.x[0]) * (v[0] * w[1] - v[1] * w[0])
        + pt.x[1] * (v[2] * w[3] - v[3] * w[2])
        + c * v[1] * w[2]), name)


def test_pair_forms_evaluates_each_component_once_per_index_tuple():
    # a (2,2) pairing visits 24 permutations; only 12 ordered index
    # pairs are distinct, so one form paired with itself needs 12
    # evaluations, and two different forms 12 each
    pt = chart(0.7, -0.4, 1.3, 0.2)
    rng = make_rng(13)
    vs = [rng.normal(size=4) for _ in range(4)]
    F = _chart_two_form("F", 1.0)
    G = _chart_two_form("G", -2.5)

    calls = []
    Fc = _counted(F, calls)
    got = pair_forms(_mul, (Fc, Fc))(pt, *vs)
    assert len(calls) == 12
    assert got == _brute_pair_sum(_mul, (F, F), pt, vs)

    calls.clear()
    Fc, Gc = _counted(F, calls), _counted(G, calls)
    got = pair_forms(_mul, (Fc, Gc))(pt, *vs)
    assert calls.count("F") == 12 and calls.count("G") == 12
    assert got == _brute_pair_sum(_mul, (F, G), pt, vs)

    # mixed degrees: 6 ordered pairs for the 2-form, 3 single slots
    F2 = Form(2, lambda pt, v, w: float(
        np.sin(pt.x[0]) * (v[0] * w[1] - v[1] * w[0]) + v[2] * w[0]), "F2")
    F1 = Form(1, lambda pt, v: float(pt.x[1] ** 2 * v[2] + v[0]), "F1")
    calls.clear()
    got = pair_forms(_mul, (_counted(F2, calls), _counted(F1, calls)))(
        pt, *vs[:3])
    assert calls.count("F2") == 6 and calls.count("F1") == 3
    assert got == _brute_pair_sum(_mul, (F2, F1), pt, vs[:3])


def test_signed_permutations_order_and_sign():
    for d in range(5):
        got = signed_permutations(d)
        assert [perm for perm, _ in got] == list(itertools.permutations(range(d)))
        for perm, sign in got:
            # the determinant of the permutation matrix is its sign
            assert sign == round(np.linalg.det(np.eye(d)[list(perm)]))


def test_form_arity_checked():
    f = Form(2, lambda pt, v, w: 0.0)
    with pytest.raises(ValueError):
        f(chart(0.0), np.zeros(1))


# ---------------------------------------------------------------------------
# exterior derivative


def test_directional_orders():
    # plain central differences are exact on quadratics; one Richardson
    # level is exact on quartics
    def fun(t):
        return np.array([t ** 2 + 3 * t, t ** 4 + t ** 3 - 2 * t])

    plain = directional(fun, 0.1, richardson=False)
    assert np.allclose(plain, [3.0, 0.1 ** 2 - 2.0], rtol=0, atol=1e-13)
    assert np.allclose(directional(fun, 0.1), [3.0, -2.0], rtol=0, atol=1e-13)


def test_ext_d_chart_zero_form_exact():
    f = Form(0, lambda pt: float(pt.x[0] ** 2 * pt.x[1]))
    pt = chart(1.5, -0.7)
    v = np.array([0.3, 0.9])
    want = 2 * 1.5 * (-0.7) * 0.3 + 1.5 ** 2 * 0.9
    assert abs(ext_d(f, pt, (v,)) - want) < 1e-9


def test_ext_d_chart_one_form_exact():
    # x0 dx1 has exterior derivative dx0 wedge dx1
    w = Form(1, lambda pt, v: float(pt.x[0] * v[1]))
    pt = chart(0.8, 0.2)
    v = np.array([1.0, 2.0])
    u = np.array([-0.5, 1.0])
    want = v[0] * u[1] - u[0] * v[1]
    assert abs(ext_d(w, pt, (v, u)) - want) < 1e-9


def _pairing_zero_form(C):
    def ev(g):
        return 0.5j / np.pi * complex(quad_s1(
            np.einsum("ij,tji->t", C, g.z().vals)) * -1.0)
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
    w = Form(1, lambda pt, v: float(
        np.sin(pt.x[0] * pt.x[1]) * v[0] + np.exp(0.3 * pt.x[2]) * v[1]
        + np.cos(pt.x[0]) * pt.x[2] * v[2]))
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
