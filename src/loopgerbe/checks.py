"""Named residual checks behind the command line and the acceptance gate.

Each check is registered under a stable identifier with a formula tag,
a default tolerance and the scenario suite it belongs to.  A check body
draws its fixtures from a generator seeded by (run seed, check name),
so reruns with the same configuration reproduce the samples exactly and
adding a check never shifts another check's draws.

`run_suite` produces the report rows; `convergence_table` reruns one
check over a refinement ladder (grid halving, or step halving for the
finite-difference dominated identities) and fits the observed order.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import caloron, centext, gerbe, sampling
from .caloron import CaloronPoint, CaloronTangent
from .forms import ChartPt, Form, delta_fibre, delta_nerve, ext_d, ext_d_form
from .liegroup import exp_alg, exp_dexp_right, group_by_name
from .loops import ThetaGrid
from .sampling import (random_algebra, random_loop, random_loop_tangent,
                       random_path_fibre_points, random_path_fibre_tangent,
                       random_path_point, random_path_tangent)

SCENARIOS = ("all", "caloron-roundtrip", "central-extension",
             "path-fibration", "trivial-bundle")
GROUPS = ("su2", "su3")
REPORT_FORMATS = ("json", "csv")

# step ladder for the plain central-difference order studies
FD_LADDER_START = 1e-2


# the public configuration fields in report order, each with the type a
# flag or environment value is coerced to
CONFIG_FIELDS = {"scenario": str, "group": str, "ntheta": int, "npath": int,
                 "fd_step": float, "tol": float, "seed": int, "report": str,
                 "out": str}


@dataclass
class RunConfig:
    """Everything a run depends on; flat so it serialises as-is."""

    scenario: str = "all"
    group: str = "su2"
    ntheta: int = 128
    npath: int = 128
    fd_step: float = 1e-4
    tol: Optional[float] = None     # None: per-check defaults
    seed: int = 7
    report: str = "json"
    out: Optional[str] = None
    # plain central differences when False; only the step ladder of
    # convergence_table sets it, and only pair_form_coboundary reads it
    richardson: bool = True

    def problems(self) -> list:
        out = []
        if self.scenario not in SCENARIOS:
            out.append("scenario must be one of %s" % (SCENARIOS,))
        if self.group not in GROUPS:
            out.append("group must be one of %s" % (GROUPS,))
        if not isinstance(self.ntheta, int) or self.ntheta < 16 or self.ntheta % 2:
            out.append("ntheta must be an even integer >= 16")
        if not isinstance(self.npath, int) or self.npath < 2:
            out.append("npath must be an integer >= 2")
        if not (0.0 < self.fd_step <= 1e-2):
            out.append("fd_step must lie in (0, 1e-2]")
        if self.tol is not None and not self.tol > 0.0:
            out.append("tol must be positive")
        if not isinstance(self.seed, int) or self.seed < 0:
            out.append("seed must be a non-negative integer")
        if self.report not in REPORT_FORMATS:
            out.append("report must be one of %s" % (REPORT_FORMATS,))
        return out

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in CONFIG_FIELDS}


def _setup(cfg: RunConfig):
    return ThetaGrid(cfg.ntheta), group_by_name(cfg.group)


def _check_rng(cfg: RunConfig, name: str):
    return sampling.make_rng((cfg.seed << 32) | zlib.crc32(name.encode()))


def _tb(cfg: RunConfig):
    grid, group = _setup(cfg)
    return gerbe.TrivialBundle.default(grid, group)


def _pf(cfg: RunConfig):
    grid, group = _setup(cfg)
    return gerbe.PathFibration(grid, group)


def _tb_point(tb, rng):
    m = rng.uniform(-0.6, 0.6, size=tb.dim)
    return tb.point(m, random_loop(rng, tb.grid, tb.group))


def _tb_tangent(tb, rng, u=None):
    if u is None:
        u = rng.normal(size=tb.dim)
    return (np.asarray(u, dtype=float),
            random_loop_tangent(rng, tb.grid, tb.group))


# ---------------------------------------------------------------------------
# the identity on every paper_ref in a report row; keys are the stable
# formula tags, values state the identity the tag stands for

EQUATION_TAGS = {
    "loop-cocycle": "R(g; X, Y) = (i/4pi) int <X, Y'> - <Y, X'> dtheta",
    "pair-form": "alpha(g, h; Xg, Xh) = (i/2pi) int <Xg, Z(h)> dtheta",
    "pair-form-coboundary": "d alpha = delta R on the nerve",
    "cochain-closed": "delta alpha = 0 on triples",
    "path-cocycle": "c(f, g) c(f g, k) = c(g, k) c(f, g k)",
    "reduced-splitting":
        "ell(p; X) = ell(p g; ad(g^-1) X) - (i/2pi) int <X, Z(g)>",
    "string-form":
        "omega(u1, u2, u3) = -(1/4pi^2) int alternating <F(u_i, u_j), "
        "grad Phi(u_k)> dtheta",
    "invariant-three-form":
        "omega3 = (1/48pi^2) full alternation of <[t_i, t_j], t_k>, "
        "right trivialised",
    "invariant-volume": "integral of omega3 over SU(2) equals 1",
    "transition-coboundary": "delta epsilon = beta on fibre triples",
    "curving-transition": "delta f = tau^* R - d epsilon on fibre pairs",
    "curving-differential": "d f = 2 pi i pi^* omega",
    "three-form-closed": "d omega = 0 on the base",
    "simplicial-square-zero": "delta delta = 0 (fibre and nerve variants)",
    "differential-square-zero": "d d = 0",
    "connection-transfer":
        "A~(X, eta, lam) = ad(k^-1)(A(X)|theta + lam Phi|theta) + eta",
    "curvature-square-split":
        "<R~, R~> = <F, F> + 2 <F, grad Phi wedge dtheta> pointwise",
    "circle-reduction":
        "-(1/8pi^2) int_S1 <R~, R~>(u1, u2, u3, dtheta) = omega(u1, u2, u3)",
    "frame-transfer":
        "connection and Higgs field return unchanged from the identity frame",
}


# ---------------------------------------------------------------------------
# central extension


def pair_form_coboundary(cfg: RunConfig, rng, n: int = 12) -> float:
    """max |d alpha - delta R| over random nerve pairs."""
    grid, group = _setup(cfg)
    alpha, r2 = centext.extension_forms()
    dr = delta_nerve(r2)
    worst = 0.0
    for _ in range(n):
        q = (random_loop(rng, grid, group), random_loop(rng, grid, group))
        V = tuple(random_loop_tangent(rng, grid, group) for _ in range(2))
        W = tuple(random_loop_tangent(rng, grid, group) for _ in range(2))
        a = ext_d(alpha, q, (V, W), h=cfg.fd_step, richardson=cfg.richardson)
        worst = max(worst, abs(a - dr(q, V, W)))
    return worst


def cochain_closed(cfg: RunConfig, rng, n: int = 12) -> float:
    """max |delta alpha| over random nerve triples; no differentiation."""
    grid, group = _setup(cfg)
    alpha = centext.extension_forms()[0]
    da = delta_nerve(alpha)
    worst = 0.0
    for _ in range(n):
        q = tuple(random_loop(rng, grid, group) for _ in range(3))
        V = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
        worst = max(worst, abs(da(q, V)))
    return worst


def path_cocycle_identity(cfg: RunConfig, rng, n: int = 5) -> float:
    """max cocycle defect over random path triples at npath nodes."""
    grid, group = _setup(cfg)
    worst = 0.0
    for _ in range(n):
        f, g, k = (sampling.random_group_path(rng, grid, group, cfg.npath)
                   for _ in range(3))
        lhs = centext.cocycle_c(f, g) * centext.cocycle_c(f.mul(g), k)
        rhs = centext.cocycle_c(g, k) * centext.cocycle_c(f, g.mul(k))
        worst = max(worst, abs(lhs - rhs))
    return worst


def reduced_splitting(cfg: RunConfig, rng, n: int = 3) -> float:
    """splitting identity on both scenario surfaces; pointwise cancellation."""
    grid, group = _setup(cfg)
    tb, pf = _tb(cfg), _pf(cfg)
    worst = 0.0
    for _ in range(n):
        p = _tb_point(tb, rng)
        g = random_loop(rng, grid, group)
        X = random_loop_tangent(rng, grid, group)
        worst = max(worst, centext.reduced_splitting_check(tb, p, g, X))

        pp = random_path_point(rng, grid, group)
        gam = random_loop(rng, grid, group, closed=True, based=True)
        Xc = random_loop_tangent(rng, grid, group, closed=True)
        worst = max(worst, centext.reduced_splitting_check(pf, pp, gam, Xc))
    return worst


# ---------------------------------------------------------------------------
# path fibration


def string_matches_invariant_form(cfg: RunConfig, rng, n: int = 4) -> float:
    """relative gap between the descended 3-form and omega3 downstairs."""
    grid, group = _setup(cfg)
    pf = _pf(cfg)
    worst = 0.0
    for _ in range(n):
        p = random_path_point(rng, grid, group)
        Ts = [random_path_tangent(rng, grid, group) for _ in range(3)]
        got = gerbe.string_form_at(pf, p, *Ts, fd_step=cfg.fd_step)
        k = pf.project(p)
        want = gerbe.omega3(k, *(k @ pf.project_tangent(T) for T in Ts))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def invariant_volume(cfg: RunConfig, rng, n: int = 0) -> float:
    """|integral of omega3 over SU(2) - 1| in the two-angle chart."""
    return abs(gerbe.omega3_su2_integral(neta=64, nxi=16) - 1.0)


def curving_differential_path(cfg: RunConfig, rng, n: int = 1) -> float:
    """|d f - 2 pi i omega(projected)| on the path fibration."""
    grid, group = _setup(cfg)
    pf = _pf(cfg)
    fform = Form(2, lambda q, a, b: gerbe.curving_f(pf, q, a, b,
                                                    fd_step=cfg.fd_step))
    worst = 0.0
    for _ in range(n):
        p = random_path_point(rng, grid, group)
        Ts = tuple(random_path_tangent(rng, grid, group) for _ in range(3))
        # outer step 1e-3: the inner quadratures are exact here, the
        # wider step keeps the second-level difference noise down
        df = ext_d(fform, p, Ts, h=1e-3)
        want = 2j * np.pi * gerbe.string_form_at(pf, p, *Ts,
                                                 fd_step=cfg.fd_step)
        worst = max(worst, abs(df - want))
    return worst


def three_form_closed_base(cfg: RunConfig, rng, n: int = 1) -> float:
    """|d omega3| through a four-direction chart on the structure group.

    The chart is s -> exp(sum_j s_j x_j) k0 with exact pushforwards via
    the right-trivialised differential of exp; for a rank-one group the
    pullback is degenerate, for su3 the four directions are generic.
    """
    grid, group = _setup(cfg)
    worst = 0.0
    for _ in range(n):
        k0 = exp_alg(random_algebra(rng, group))
        xs = [random_algebra(rng, group) for _ in range(4)]

        def amap(s):
            return sum(float(s[j]) * xs[j] for j in range(4))

        def pulled(pt, va, vb, vc):
            # d(exp A) = dexp_right(A, dA) exp(A), one eigh for all three
            e, d = exp_dexp_right(amap(pt.x), np.stack([amap(v) for v in (va, vb, vc)]))
            k = e @ k0
            return gerbe.omega3(k, *(d @ k))

        form = Form(3, pulled)
        vs = tuple(rng.normal(size=4) for _ in range(4))
        val = ext_d(form, ChartPt(rng.normal(size=4) * 0.3), vs, h=1e-3)
        worst = max(worst, abs(val))
    return worst


# ---------------------------------------------------------------------------
# trivial bundle


def transition_coboundary(cfg: RunConfig, rng, n: int = 2) -> float:
    """max |delta epsilon - beta| over fibre triples, both scenarios."""
    grid, group = _setup(cfg)
    tb, pf = _tb(cfg), _pf(cfg)
    worst = 0.0
    for _ in range(n):
        m = rng.uniform(-0.6, 0.6, size=2)
        pts = tuple(tb.point(m, random_loop(rng, grid, group))
                    for _ in range(3))
        u = rng.normal(size=2)
        vecs = tuple(_tb_tangent(tb, rng, u) for _ in range(3))
        eps = Form(1, lambda pt, v: gerbe.epsilon_form(tb, pt, v))
        worst = max(worst, abs(delta_fibre(eps)(pts, vecs)
                               - gerbe.beta_form(tb, pts, vecs)))

        ppts = random_path_fibre_points(rng, grid, group, 3)
        pvecs = random_path_fibre_tangent(rng, grid, group, 3)
        peps = Form(1, lambda pt, v: gerbe.epsilon_form(pf, pt, v))
        worst = max(worst, abs(delta_fibre(peps)(ppts, pvecs)
                               - gerbe.beta_form(pf, ppts, pvecs)))
    return worst


def _curving_chain(scn, pts, vecs, wecs, cfg: RunConfig) -> float:
    p1, p2 = pts
    lhs = (gerbe.curving_f(scn, p2, vecs[1], wecs[1], fd_step=cfg.fd_step)
           - gerbe.curving_f(scn, p1, vecs[0], wecs[0], fd_step=cfg.fd_step))
    t = scn.tau(p1, p2)
    tr = centext.eval_R(t, gerbe.tau_deriv(scn, p1, p2, *vecs),
                        gerbe.tau_deriv(scn, p1, p2, *wecs))
    eps = Form(1, lambda pt, v: gerbe.epsilon_form(scn, pt, v))
    de = ext_d(eps, pts, (vecs, wecs), h=cfg.fd_step)
    return abs(lhs - (tr - de))


def curving_transition(cfg: RunConfig, rng, n: int = 1) -> float:
    """|delta f - (tau^* R - d epsilon)| on fibre pairs, both scenarios."""
    grid, group = _setup(cfg)
    tb, pf = _tb(cfg), _pf(cfg)
    worst = 0.0
    for _ in range(n):
        m = rng.uniform(-0.6, 0.6, size=2)
        pts = tuple(tb.point(m, random_loop(rng, grid, group))
                    for _ in range(2))
        u, w = rng.normal(size=2), rng.normal(size=2)
        vecs = tuple(_tb_tangent(tb, rng, u) for _ in range(2))
        wecs = tuple(_tb_tangent(tb, rng, w) for _ in range(2))
        worst = max(worst, _curving_chain(tb, pts, vecs, wecs, cfg))

        ppts = random_path_fibre_points(rng, grid, group, 2)
        pvecs = random_path_fibre_tangent(rng, grid, group, 2)
        pwecs = random_path_fibre_tangent(rng, grid, group, 2)
        worst = max(worst, _curving_chain(pf, ppts, pvecs, pwecs, cfg))
    return worst


def curving_differential_chart(cfg: RunConfig, rng, n: int = 1) -> float:
    """|d f - 2 pi i omega| over the two-dimensional chart; the base has
    no room for a 3-form, so both sides cancel to the difference noise."""
    grid, group = _setup(cfg)
    tb = _tb(cfg)
    fform = Form(2, lambda q, a, b: gerbe.curving_f(tb, q, a, b,
                                                    fd_step=cfg.fd_step))
    worst = 0.0
    for _ in range(n):
        p = _tb_point(tb, rng)
        Ts = tuple(_tb_tangent(tb, rng) for _ in range(3))
        df = ext_d(fform, p, Ts, h=1e-3)
        want = 2j * np.pi * gerbe.string_form(tb, p.m, *[T[0] for T in Ts],
                                              fd_step=cfg.fd_step)
        worst = max(worst, abs(df - want))
    return worst


def simplicial_square_zero(cfg: RunConfig, rng, n: int = 2) -> float:
    """delta after delta in the nerve and fibre directions, three degrees."""
    grid, group = _setup(cfg)
    tb = _tb(cfg)
    worst = 0.0
    for _ in range(n):
        C = random_loop_tangent(rng, grid, group)
        F0 = Form(0, lambda q: centext.gomi_cocycle_Z(q[0], C))
        gs = tuple(random_loop(rng, grid, group) for _ in range(3))
        worst = max(worst, abs(delta_nerve(delta_nerve(F0))(gs)))

        r2 = centext.extension_forms()[1]
        V = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
        W = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
        worst = max(worst, abs(delta_nerve(delta_nerve(r2))(gs, V, W)))

        ell0 = Form(0, lambda q: centext.splitting_ell(tb, q[0], C))
        m = rng.uniform(-0.6, 0.6, size=2)
        pts = tuple(tb.point(m, random_loop(rng, grid, group))
                    for _ in range(3))
        worst = max(worst, abs(delta_fibre(delta_fibre(ell0))(pts)))
    return worst


def differential_square_zero(cfg: RunConfig, rng, n: int = 1) -> float:
    """d after d on a chart 1-form and on a loop-group 0-form."""
    grid, group = _setup(cfg)
    worst = 0.0
    for _ in range(n):
        one = Form(1, lambda pt, v: float(np.sin(pt.x[0])) * v[1]
                   + float(np.exp(0.3 * pt.x[2])) * v[0]
                   + float(pt.x[1] ** 2) * v[2])
        d1 = ext_d_form(one, h=1e-3)
        x0 = ChartPt(rng.normal(size=3) * 0.5)
        vs = tuple(rng.normal(size=3) for _ in range(3))
        worst = max(worst, abs(ext_d(d1, x0, vs, h=1e-3)))

        C = random_loop_tangent(rng, grid, group)
        F0 = Form(0, lambda g: centext.gomi_cocycle_Z(g, C))
        d0 = ext_d_form(F0, h=1e-3)
        g = random_loop(rng, grid, group)
        X = random_loop_tangent(rng, grid, group)
        Y = random_loop_tangent(rng, grid, group)
        worst = max(worst, abs(ext_d(d0, g, (X, Y), h=1e-3)))
    return worst


# ---------------------------------------------------------------------------
# caloron round trip


def _caloron_point(tb, rng) -> CaloronPoint:
    p = _tb_point(tb, rng)
    k = exp_alg(random_algebra(rng, tb.group))
    theta = float(tb.grid.nodes[int(rng.integers(tb.grid.n))])
    return CaloronPoint(p, k, theta)


def _caloron_tangent(tb, rng) -> CaloronTangent:
    X = _tb_tangent(tb, rng)
    return CaloronTangent(X, random_algebra(rng, tb.group),
                          float(rng.uniform(-1.0, 1.0)))


def connection_axioms(cfg: RunConfig, rng, n: int = 2) -> float:
    """vertical reproduction, kernel annihilation, based-loop invariance
    and frame equivariance of the transferred connection."""
    grid, group = _setup(cfg)
    tb = _tb(cfg)
    worst = 0.0
    for _ in range(n):
        pt = _caloron_point(tb, rng)
        xi = random_algebra(rng, group)
        got = caloron.caloron_connection(tb, pt,
                                         caloron.vertical_vector(tb, pt, xi))
        worst = max(worst, float(np.max(np.abs(got - xi))))

        X = random_loop_tangent(rng, grid, group)
        kv = caloron.kernel_vector(tb, pt, X)
        worst = max(worst, float(np.max(np.abs(
            caloron.caloron_connection(tb, pt, kv)))))

        V = _caloron_tangent(tb, rng)
        a0 = caloron.caloron_connection(tb, pt, V)
        g = random_loop(rng, grid, group, based=True)
        qt, Vp = caloron.loop_act(tb, pt, V, g)
        worst = max(worst, float(np.max(np.abs(
            caloron.caloron_connection(tb, qt, Vp) - a0))))

        k0 = exp_alg(random_algebra(rng, group))
        qt, Vp = caloron.group_act(pt, V, k0)
        lhs = caloron.caloron_connection(tb, qt, Vp)
        rhs = np.linalg.inv(k0) @ a0 @ k0
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def curvature_square_split(cfg: RunConfig, rng, n: int = 10) -> float:
    """pointwise identity between the squared transferred curvature and
    its base-curvature / Higgs-derivative split."""
    tb = _tb(cfg)
    worst = 0.0
    for _ in range(n):
        pt = _caloron_point(tb, rng)
        Vs = [_caloron_tangent(tb, rng) for _ in range(4)]
        lhs = caloron.pontrjagin_form(tb, pt, *Vs, fd_step=cfg.fd_step)
        rhs = caloron.pontrjagin_split(tb, pt, *Vs, fd_step=cfg.fd_step)
        worst = max(worst, abs(lhs - rhs))
    return worst


def circle_reduction(cfg: RunConfig, rng, n: int = 3) -> float:
    """circle integral of the 4-form against the descended 3-form, on
    the three-direction chart where the 3-form is nonzero."""
    grid, group = _setup(cfg)
    tb = gerbe.TrivialBundle.chart3(grid, group)
    worst = 0.0
    for _ in range(n):
        m = rng.uniform(-0.6, 0.6, size=tb.dim)
        us = [rng.normal(size=tb.dim) for _ in range(3)]
        a = caloron.integrate_circle(tb, m, *us, fd_step=cfg.fd_step)
        b = gerbe.string_form(tb, m, *us, fd_step=cfg.fd_step)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


def frame_round_trip(cfg: RunConfig, rng, n: int = 1) -> float:
    """connection and Higgs field recovered from the identity frame."""
    grid, group = _setup(cfg)
    tb, pf = _tb(cfg), _pf(cfg)
    worst = 0.0
    for _ in range(n):
        p = _tb_point(tb, rng)
        conn_of, phi = caloron.extract_connection_higgs(tb, p)
        V = _tb_tangent(tb, rng)
        worst = max(worst, float(np.max(np.abs(
            conn_of(V).vals - tb.connection(p, V).vals))))
        worst = max(worst, float(np.max(np.abs(phi.vals
                                               - tb.higgs(p).vals))))

        pp = random_path_point(rng, grid, group)
        conn_of, phi = caloron.extract_connection_higgs(pf, pp)
        X = random_path_tangent(rng, grid, group)
        worst = max(worst, float(np.max(np.abs(
            conn_of(X).vals - pf.connection(pp, X).vals))))
        worst = max(worst, float(np.max(np.abs(phi.vals
                                               - pf.higgs(pp).vals))))
    return worst


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    name: str
    paper_ref: str
    tol: float
    fn: Callable
    scenario: str
    groups: tuple = ("su2", "su3")
    convergence: str = ""      # "", "grid", "fd" or "flat"


_SPECS = [
    CheckSpec("central-extension/cochain-closed", "cochain-closed",
              1e-8, cochain_closed, "central-extension"),
    CheckSpec("central-extension/pair-form-coboundary",
              "pair-form-coboundary", 1e-6, pair_form_coboundary,
              "central-extension", convergence="fd"),
    CheckSpec("central-extension/path-cocycle-identity", "path-cocycle",
              1e-6, path_cocycle_identity, "central-extension"),
    CheckSpec("central-extension/reduced-splitting", "reduced-splitting",
              1e-8, reduced_splitting, "central-extension"),
    CheckSpec("path-fibration/curving-differential", "curving-differential",
              1e-6, curving_differential_path, "path-fibration"),
    CheckSpec("path-fibration/invariant-volume", "invariant-volume",
              1e-3, invariant_volume, "path-fibration", groups=("su2",)),
    CheckSpec("path-fibration/string-matches-invariant-form", "string-form",
              1e-6, string_matches_invariant_form, "path-fibration",
              convergence="grid"),
    CheckSpec("path-fibration/three-form-closed", "three-form-closed",
              1e-6, three_form_closed_base, "path-fibration"),
    CheckSpec("trivial-bundle/curving-differential", "curving-differential",
              1e-6, curving_differential_chart, "trivial-bundle"),
    CheckSpec("trivial-bundle/curving-transition", "curving-transition",
              1e-6, curving_transition, "trivial-bundle"),
    CheckSpec("trivial-bundle/differential-square-zero",
              "differential-square-zero", 1e-8, differential_square_zero,
              "trivial-bundle"),
    CheckSpec("trivial-bundle/simplicial-square-zero",
              "simplicial-square-zero", 1e-12, simplicial_square_zero,
              "trivial-bundle", convergence="flat"),
    CheckSpec("trivial-bundle/transition-coboundary", "transition-coboundary",
              1e-8, transition_coboundary, "trivial-bundle"),
    CheckSpec("caloron-roundtrip/circle-reduction", "circle-reduction",
              1e-6, circle_reduction, "caloron-roundtrip"),
    CheckSpec("caloron-roundtrip/connection-axioms", "connection-transfer",
              1e-8, connection_axioms, "caloron-roundtrip"),
    CheckSpec("caloron-roundtrip/curvature-square-split",
              "curvature-square-split", 1e-8, curvature_square_split,
              "caloron-roundtrip"),
    CheckSpec("caloron-roundtrip/frame-round-trip", "frame-transfer",
              1e-10, frame_round_trip, "caloron-roundtrip"),
]

CHECKS = {s.name: s for s in sorted(_SPECS, key=lambda s: s.name)}

assert all(s.paper_ref in EQUATION_TAGS for s in _SPECS)


def select_checks(cfg: RunConfig) -> list:
    return [s for s in CHECKS.values()
            if (cfg.scenario == "all" or s.scenario == cfg.scenario)
            and cfg.group in s.groups]


def run_check(spec: CheckSpec, cfg: RunConfig, rng=None) -> dict:
    rng = rng if rng is not None else _check_rng(cfg, spec.name)
    t0 = time.perf_counter()
    residual = float(spec.fn(cfg, rng))
    seconds = time.perf_counter() - t0
    tol = cfg.tol if cfg.tol is not None else spec.tol
    return {"name": spec.name, "paper_ref": spec.paper_ref,
            "residual": residual, "tol": tol, "pass": bool(residual <= tol),
            "seconds": round(seconds, 6)}


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceResult:
    rows: list = field(default_factory=list)
    order: Optional[float] = None


def _fit_order(hs, rs) -> Optional[float]:
    hs, rs = np.asarray(hs, dtype=float), np.asarray(rs, dtype=float)
    if np.any(rs <= 0.0):
        return None
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def convergence_table(name: str, grids, cfg: RunConfig = None) -> ConvergenceResult:
    """Rerun one check over a refinement ladder.

    Grid-resolved checks sweep the angular grid sizes given; step-dominated
    checks instead halve the difference step len(grids) times from 1e-2
    with plain central differences (the grid column then reports the
    reciprocal step).  The fitted slope of log(residual) against the
    refinement parameter is the observed order; it is omitted for ladders
    designed to sit flat at roundoff.
    """
    if name not in CHECKS:
        raise ValueError("unknown check: %s" % name)
    spec = CHECKS[name]
    cfg = cfg if cfg is not None else RunConfig()
    out = ConvergenceResult()
    if spec.convergence == "fd":
        steps = [FD_LADDER_START / 2 ** j for j in range(len(grids))]
        hs, rs = [], []
        for h in steps:
            sub = replace(cfg, fd_step=h, richardson=False)
            r = float(spec.fn(sub, _check_rng(sub, spec.name)))
            out.rows.append({"name": spec.name + "#fd-step",
                             "grid": int(round(1.0 / h)), "residual": r})
            hs.append(h)
            rs.append(r)
        out.order = _fit_order(hs, rs)
        return out
    hs, rs = [], []
    for g in sorted(int(g) for g in grids):
        sub = replace(cfg, ntheta=g)
        r = float(spec.fn(sub, _check_rng(sub, spec.name)))
        out.rows.append({"name": spec.name, "grid": g, "residual": r})
        hs.append(1.0 / g)
        rs.append(r)
    if spec.convergence == "grid":
        out.order = _fit_order(hs, rs)
    return out


def _even(k: int) -> int:
    return k if k % 2 == 0 else k + 1


def convergence_grids(cfg: RunConfig) -> list:
    gs = sorted({max(16, _even(cfg.ntheta // 4)), max(16, _even(cfg.ntheta // 2)),
                 cfg.ntheta})
    return gs


# ---------------------------------------------------------------------------
# the full suite


@dataclass
class SuiteResult:
    rows: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    fixtures: dict = field(default_factory=dict)
    aborted: Optional[str] = None

    @property
    def all_pass(self) -> bool:
        return self.aborted is None and all(r["pass"] for r in self.rows)


def run_suite(cfg: RunConfig, record_fixtures: bool = False) -> SuiteResult:
    """Run every check selected by the configuration, in name order.

    With record_fixtures every draw a check makes is logged, keyed by
    check name, so the exact sampled scenario can be serialised next to
    the report.  A convention failure in the extension self-test aborts
    the sweep; the rows already produced are kept so a report can still
    be written.
    """
    result = SuiteResult()
    specs = select_checks(cfg)
    try:
        for spec in specs:
            rng = _check_rng(cfg, spec.name)
            if record_fixtures:
                rng = sampling.RecordingRNG(rng)
            result.rows.append(run_check(spec, cfg, rng))
            if record_fixtures:
                result.fixtures[spec.name] = rng.log
        grids = convergence_grids(cfg)
        for spec in specs:
            if spec.convergence:
                result.convergence.extend(
                    convergence_table(spec.name, grids, cfg).rows)
    except centext.ConventionError as exc:
        result.aborted = str(exc)
    result.rows.sort(key=lambda r: r["name"])
    result.convergence.sort(key=lambda r: (r["name"], r["grid"]))
    return result
