"""Acceptance gate: nine numbered criteria, each with pinned tolerances
(and runtime budgets where stated).  Every test prints a single verdict
line; run with -s or -rA to see the lines for passing criteria too.

Sizes follow the criterion statements; where a criterion leaves the
angular grid free the smallest grid that keeps the residual at its
plateau is used so the budgeted ones stay inside their budgets.
"""

import time

import numpy as np

from loopgerbe import checks, gerbe
from loopgerbe.checks import RunConfig, convergence_table
from loopgerbe.forms import ChartPt, Form, delta_fibre, ext_d
from loopgerbe.sampling import random_loop


def rng_for(cfg, slug):
    return checks._check_rng(cfg, "acceptance/" + slug)


def verdict(num, label, residual, tol, elapsed=None, budget=None,
            extra=""):
    ok = residual < tol and (budget is None or elapsed < budget)
    timing = ("" if budget is None
              else ", %.1fs (budget %.0fs)" % (elapsed, budget))
    print("criterion %d [%s] %s: residual %.3e (tol %g)%s%s"
          % (num, "PASS" if ok else "FAIL", label, residual, tol,
             timing, extra))
    assert residual < tol
    if budget is not None:
        assert elapsed < budget


def test_criterion_1_path_fibration_string_class():
    cfg = RunConfig(ntheta=256, fd_step=1e-4)
    t0 = time.perf_counter()
    res = checks.string_matches_invariant_form(cfg, rng_for(cfg, "string"),
                                               n=20)
    verdict(1, "path-fibration string class vs invariant 3-form",
            res, 1e-6, time.perf_counter() - t0, 60.0)


def test_criterion_2_caloron_curvature_identity():
    # the split identity re-pairs the same curvature samples, so its
    # residual sits at the algebra floor on any grid; 48 nodes keep the
    # hundred configurations inside the budget
    cfg = RunConfig(ntheta=48)
    t0 = time.perf_counter()
    res = checks.curvature_square_split(cfg, rng_for(cfg, "split"), n=100)
    verdict(2, "squared-curvature split on 100 configurations",
            res, 1e-8, time.perf_counter() - t0, 30.0)


def test_criterion_3_circle_integration_cross_validation():
    cfg = RunConfig()
    res = checks.circle_reduction(cfg, rng_for(cfg, "reduction"), n=20)
    verdict(3, "circle integral equals descended 3-form at 20 points",
            res, 1e-6)


def test_criterion_4_central_extension_cocycle_conditions():
    cfg = RunConfig()
    r_comp = checks.pair_form_coboundary(cfg, rng_for(cfg, "coboundary"),
                                         n=50)
    r_closed = checks.cochain_closed(cfg, rng_for(cfg, "closed"), n=50)
    tab = convergence_table("central-extension/pair-form-coboundary",
                            (64, 128, 256), cfg)
    order = tab.order
    verdict(4, "d(pair form) = coboundary of the 2-cocycle",
            r_comp, 1e-6,
            extra=", fd order %.2f (need >= 1.8)" % order)
    assert r_closed < 1e-8
    assert order >= 1.8


def test_criterion_5_gerbe_derivation_chain():
    cfg = RunConfig()
    grid, group = checks._setup(cfg)
    tb = gerbe.TrivialBundle.default(grid, group)
    rng = rng_for(cfg, "chain")

    r_trans = 0.0
    for _ in range(6):
        m = rng.uniform(-0.6, 0.6, size=2)
        pts = tuple(tb.point(m, random_loop(rng, grid, group))
                    for _ in range(3))
        u = rng.normal(size=2)
        vecs = tuple(checks._tb_tangent(tb, rng, u) for _ in range(3))
        eps = Form(1, lambda pt, v: gerbe.epsilon_form(tb, pt, v))
        r_trans = max(r_trans, abs(delta_fibre(eps)(pts, vecs)
                                   - gerbe.beta_form(tb, pts, vecs)))
    assert r_trans < 1e-8

    r_curv = 0.0
    for _ in range(4):
        m = rng.uniform(-0.6, 0.6, size=2)
        pts = tuple(tb.point(m, random_loop(rng, grid, group))
                    for _ in range(2))
        u, w = rng.normal(size=2), rng.normal(size=2)
        vecs = tuple(checks._tb_tangent(tb, rng, u) for _ in range(2))
        wecs = tuple(checks._tb_tangent(tb, rng, w) for _ in range(2))
        r_curv = max(r_curv, checks._curving_chain(tb, pts, vecs, wecs, cfg))
    assert r_curv < 1e-6

    fform = Form(2, lambda q, a, b: gerbe.curving_f(tb, q, a, b))
    r_df = 0.0
    for _ in range(4):
        p = checks._tb_point(tb, rng)
        Ts = tuple(checks._tb_tangent(tb, rng) for _ in range(3))
        df = ext_d(fform, p, Ts, h=1e-3)
        want = 2j * np.pi * gerbe.string_form(tb, p.m, *[T[0] for T in Ts])
        r_df = max(r_df, abs(df - want))
    assert r_df < 1e-6

    # d of the descended 3-form; also on the three-direction chart,
    # where the 3-form itself is far from zero
    r_dw = 0.0
    for scn in (tb, gerbe.TrivialBundle.chart3(grid, group)):
        w3 = Form(3, lambda q, a, b, c, s=scn:
                  gerbe.string_form(s, q.x, a, b, c))
        m0 = ChartPt(rng.uniform(-0.5, 0.5, size=scn.dim))
        vs = tuple(rng.normal(size=scn.dim) for _ in range(4))
        r_dw = max(r_dw, abs(ext_d(w3, m0, vs, h=1e-3)))
    assert r_dw < 1e-6

    res = max(r_trans, r_curv, r_df, r_dw)
    verdict(5, "transition / curving / descent chain", res, 1e-6,
            extra=(", parts %.1e %.1e %.1e %.1e"
                   % (r_trans, r_curv, r_df, r_dw)))


def test_criterion_6_group_cocycle_identity():
    cfg = RunConfig(npath=256)
    t0 = time.perf_counter()
    res = checks.path_cocycle_identity(cfg, rng_for(cfg, "cocycle"), n=20)
    verdict(6, "cocycle product identity on 20 path triples",
            res, 1e-6, extra=", %.1fs" % (time.perf_counter() - t0))


def test_criterion_7_reduced_splitting():
    cfg = RunConfig()
    res = checks.reduced_splitting(cfg, rng_for(cfg, "splitting"), n=8)
    verdict(7, "reduced splitting identity on both scenarios", res, 1e-8)


def test_criterion_8_structural_exactness():
    cfg = RunConfig()
    r_dd2 = checks.simplicial_square_zero(cfg, rng_for(cfg, "deltas"), n=6)
    r_dd = checks.differential_square_zero(cfg, rng_for(cfg, "dd"), n=6)
    verdict(8, "delta-squared and d-squared vanish", max(r_dd2, r_dd),
            1e-8, extra=", simplicial %.1e (tol 1e-12)" % r_dd2)
    assert r_dd2 <= 1e-12
    assert r_dd < 1e-8


def test_criterion_9_three_form_normalization():
    t0 = time.perf_counter()
    res = abs(gerbe.omega3_su2_integral(neta=128, nxi=32) - 1.0)
    verdict(9, "unit volume of the invariant 3-form", res, 1e-3,
            time.perf_counter() - t0, 300.0)
