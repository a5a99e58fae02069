"""Named residual checks behind the command line and the acceptance gate.

Each check is registered under a stable identifier `<scenario>/<slug>`
with a formula tag and a default tolerance.  A check body is one fixture
draw `(cfg, rng) -> residual or tuple of residuals`: it builds its
scenario from the configuration, which takes nothing from rng, draws one
fixture from rng with the samplers of `sampling` and measures the
identity on it.  An identity of every bundle has one body `(scn, draw,
rng)` that draws through the bundle's sampler set, run once per bundle:
on the trivial bundle with `sampling.TRIVIAL`, then on the path
fibration with `sampling.PATH`.  `_draws` makes the body into the public
check `(cfg, rng, n=<default>)`, which runs the draw n >= 1 times on the
same generator and returns the worst residual; a NaN residual anywhere
makes the check NaN, and so fails its row.  The generator is seeded by
(run seed, check name), so reruns with the same configuration reproduce
the samples exactly and adding a check never shifts another check's
draws.

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
from .forms import (FD_STEP, ChartPt, Form, delta_fibre, delta_nerve, ext_d,
                    ext_d_form)
from .liegroup import exp_dexp_right, group_by_name, mm
from .loops import ThetaGrid
from .sampling import (DD_CHART, EXP_CHART, random_algebra,
                       random_caloron_point, random_caloron_tangents,
                       random_chart_point, random_chart_vector,
                       random_group_element, random_loop, random_loop_tangent,
                       random_normal_point)

SCENARIOS = ("all", "caloron-roundtrip", "central-extension",
             "path-fibration", "trivial-bundle")
GROUPS = ("su2", "su3")
REPORT_FORMATS = ("json", "csv")

# the first step of the ladder that halves the difference step of
# `forms.directional`, the one stencil every row runs
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
    fd_step: float = FD_STEP
    tol: Optional[float] = None     # None: per-check defaults
    seed: int = 7
    report: str = "json"
    out: Optional[str] = None

    def problems(self) -> list:
        out = []
        if self.scenario not in SCENARIOS:
            out.append("scenario must be one of %s" % (SCENARIOS,))
        if self.group not in GROUPS:
            out.append("group must be one of %s" % (GROUPS,))
        # a bool is an int to isinstance, but no count or seed
        if type(self.ntheta) is not int or self.ntheta < 16 or self.ntheta % 2:
            out.append("ntheta must be an even integer >= 16")
        if type(self.npath) is not int or self.npath < 2:
            out.append("npath must be an integer >= 2")
        # below the smallest normal float 0.5 / fd_step overflows to inf
        if not (np.finfo(float).tiny <= self.fd_step <= 1e-2):
            out.append("fd_step must be a normal float in (0, 1e-2]")
        if self.tol is not None and (type(self.tol) is bool
                                     or not 0.0 < self.tol < np.inf):
            out.append("tol must be positive and finite")
        if type(self.seed) is not int or self.seed < 0:
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
    return gerbe.TrivialBundle.default(*_setup(cfg), cfg.fd_step)


def _pf(cfg: RunConfig):
    return gerbe.PathFibration(*_setup(cfg), cfg.fd_step)


def _worst(residuals) -> float:
    """The largest residual; NaN when any residual is NaN."""
    return float(np.max(residuals))


def _sup(a) -> float:
    return _worst(np.abs(a))


def _draws(n: int):
    """Make a fixture draw into a check that runs it n times by default.

    The check keeps the draw's name and docstring but not a __wrapped__
    link, so its signature is (cfg, rng, n).
    """
    def build(draw):
        def check(cfg: RunConfig, rng, n: int = n) -> float:
            if n < 1:
                raise ValueError("a check needs at least one draw, got n=%r"
                                 % (n,))
            return _worst([draw(cfg, rng) for _ in range(n)])

        check.__name__ = draw.__name__
        check.__qualname__ = draw.__qualname__
        check.__doc__ = draw.__doc__
        return check

    return build


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
# the identities of every bundle


def _on_both(body, cfg: RunConfig, rng) -> tuple:
    """body(scn, draw, rng) on each bundle scn with its sampler set draw."""
    return (body(_tb(cfg), sampling.TRIVIAL, rng),
            body(_pf(cfg), sampling.PATH, rng))


def _reduced_splitting(scn, draw, rng) -> float:
    p, = draw.fibre_points(rng, scn, 1)
    g = draw.acting_loop(rng, scn)
    X = random_loop_tangent(rng, scn.grid, scn.group)
    return centext.reduced_splitting_check(scn, p, g, X)


def _transition_coboundary(scn, draw, rng) -> float:
    pts = draw.fibre_points(rng, scn, 3)
    vecs, = draw.fibre_tangents(rng, scn, 3)
    eps = Form(1, lambda pt, v: gerbe.epsilon_form(scn, pt, v))
    return abs(delta_fibre(eps)(pts, vecs) - gerbe.beta_form(scn, pts, vecs))


def _curving_chain(scn, draw, rng) -> float:
    pts = draw.fibre_points(rng, scn, 2)
    vecs, wecs = draw.fibre_tangents(rng, scn, 2, k=2)
    p1, p2 = pts
    lhs = (gerbe.curving_f(scn, p2, vecs[1], wecs[1])
           - gerbe.curving_f(scn, p1, vecs[0], wecs[0]))
    t = scn.tau(p1, p2)
    tr = centext.eval_R(t, gerbe.tau_deriv(scn, p1, p2, *vecs),
                        gerbe.tau_deriv(scn, p1, p2, *wecs))
    eps = Form(1, lambda pt, v: gerbe.epsilon_form(scn, pt, v))
    de = ext_d(eps, pts, (vecs, wecs), h=scn.fd_step)
    return abs(lhs - (tr - de))


def _curving_differential(scn, draw, rng) -> float:
    fform = Form(2, lambda q, a, b: gerbe.curving_f(scn, q, a, b))
    p, = draw.fibre_points(rng, scn, 1)
    # one tangent at a time: on the trivial bundle each draws u, then X
    Ts = tuple(draw.fibre_tangents(rng, scn, 1)[0][0] for _ in range(3))
    # outer step 1e-3: a wider step keeps the second-level difference noise down
    df = ext_d(fform, p, Ts, h=1e-3)
    return abs(df - 2j * np.pi * gerbe.string_form_at(scn, p, *Ts))


def _frame_round_trip(scn, draw, rng) -> tuple:
    p, = draw.fibre_points(rng, scn, 1)
    conn_of, phi = caloron.extract_connection_higgs(scn, p)
    (V,), = draw.fibre_tangents(rng, scn, 1)
    return (_sup(conn_of(V).vals - scn.connection(p, V).vals),
            _sup(phi.vals - scn.higgs(p).vals))


# ---------------------------------------------------------------------------
# central extension


@_draws(12)
def pair_form_coboundary(cfg: RunConfig, rng):
    """|d alpha - delta R| at random nerve pairs."""
    grid, group = _setup(cfg)
    alpha, r2 = centext.extension_forms()
    q = (random_loop(rng, grid, group), random_loop(rng, grid, group))
    V = tuple(random_loop_tangent(rng, grid, group) for _ in range(2))
    W = tuple(random_loop_tangent(rng, grid, group) for _ in range(2))
    a = ext_d(alpha, q, (V, W), h=cfg.fd_step)
    return abs(a - delta_nerve(r2)(q, V, W))


@_draws(12)
def cochain_closed(cfg: RunConfig, rng):
    """|delta alpha| at random nerve triples; no differentiation."""
    grid, group = _setup(cfg)
    alpha = centext.extension_forms()[0]
    q = tuple(random_loop(rng, grid, group) for _ in range(3))
    V = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
    return abs(delta_nerve(alpha)(q, V))


@_draws(5)
def path_cocycle_identity(cfg: RunConfig, rng):
    """cocycle defect at random path triples of npath nodes."""
    grid, group = _setup(cfg)
    f, g, k = (sampling.random_group_path(rng, grid, group, cfg.npath)
               for _ in range(3))
    lhs = centext.cocycle_c(f, g) * centext.cocycle_c(f.mul(g), k)
    rhs = centext.cocycle_c(g, k) * centext.cocycle_c(f, g.mul(k))
    return abs(lhs - rhs)


@_draws(3)
def reduced_splitting(cfg: RunConfig, rng):
    """splitting identity on both scenario surfaces; pointwise cancellation."""
    return _on_both(_reduced_splitting, cfg, rng)


# ---------------------------------------------------------------------------
# path fibration


@_draws(4)
def string_matches_invariant_form(cfg: RunConfig, rng):
    """relative gap between the descended 3-form and omega3 downstairs."""
    pf = _pf(cfg)
    p, = sampling.PATH.fibre_points(rng, pf, 1)
    Ts = [sampling.PATH.fibre_tangents(rng, pf, 1)[0][0] for _ in range(3)]
    got = gerbe.string_form_at(pf, p, *Ts)
    k = pf.project(p)
    want = gerbe.omega3(k, *(mm(k, pf.project_tangent(T)) for T in Ts))
    return abs(got - want) / max(1.0, abs(want))


def invariant_volume(cfg: RunConfig, rng) -> float:
    """|integral of omega3 over SU(2) - 1| in the two-angle chart; a fixed
    quadrature, so it draws nothing."""
    return abs(gerbe.omega3_su2_integral(neta=64, nxi=16) - 1.0)


@_draws(1)
def curving_differential_path(cfg: RunConfig, rng):
    """|d f - 2 pi i omega(projected)| on the path fibration."""
    return _curving_differential(_pf(cfg), sampling.PATH, rng)


@_draws(1)
def three_form_closed_base(cfg: RunConfig, rng):
    """|d omega3| through a four-direction chart on the structure group.

    The chart is s -> exp(sum_j s_j x_j) k0 with exact pushforwards via
    the right-trivialised differential of exp; for a rank-one group the
    pullback is degenerate, for su3 the four directions are generic.
    """
    group = _setup(cfg)[1]
    k0 = random_group_element(rng, group)
    xs = [random_algebra(rng, group) for _ in range(4)]

    def amap(s):
        # s may stack chart points in front of its last axis
        return sum(s[..., j, None, None] * xs[j] for j in range(4))

    def pulled(pt, va, vb, vc):
        # d(exp A) = dexp_right(A, dA) exp(A), one eigh for all three;
        # the three tangents lead the point's own leading axes
        A = amap(pt.x)
        dA = np.stack([amap(v) for v in (va, vb, vc)])
        e, d = exp_dexp_right(A, dA.reshape((3,) + (1,) * (A.ndim - 2) + A.shape[-2:]))
        k = mm(e, k0)
        return gerbe.omega3(k, *mm(d, k))

    vs = tuple(random_chart_vector(rng, 4) for _ in range(4))
    return abs(ext_d(Form(3, pulled), ChartPt(random_normal_point(rng, 4, EXP_CHART)),
                     vs, h=1e-3))


# ---------------------------------------------------------------------------
# trivial bundle


@_draws(2)
def transition_coboundary(cfg: RunConfig, rng):
    """|delta epsilon - beta| at fibre triples, both scenarios."""
    return _on_both(_transition_coboundary, cfg, rng)


@_draws(1)
def curving_transition(cfg: RunConfig, rng):
    """|delta f - (tau^* R - d epsilon)| on fibre pairs, both scenarios."""
    return _on_both(_curving_chain, cfg, rng)


@_draws(1)
def curving_differential_chart(cfg: RunConfig, rng):
    """|d f - 2 pi i omega| over the two-dimensional chart; the base has
    no room for a 3-form, so both sides cancel to the difference noise."""
    return _curving_differential(_tb(cfg), sampling.TRIVIAL, rng)


@_draws(2)
def simplicial_square_zero(cfg: RunConfig, rng):
    """delta after delta in the nerve and fibre directions, three degrees."""
    grid, group = _setup(cfg)
    tb = _tb(cfg)
    C = random_loop_tangent(rng, grid, group)
    F0 = Form(0, lambda q: centext.gomi_cocycle_Z(q[0], C))
    gs = tuple(random_loop(rng, grid, group) for _ in range(3))
    r_zero = abs(delta_nerve(delta_nerve(F0))(gs))

    r2 = centext.extension_forms()[1]
    V = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
    W = tuple(random_loop_tangent(rng, grid, group) for _ in range(3))
    r_two = abs(delta_nerve(delta_nerve(r2))(gs, V, W))

    ell0 = Form(0, lambda q: centext.splitting_ell(tb, q[0], C))
    pts = sampling.TRIVIAL.fibre_points(rng, tb, 3)
    return r_zero, r_two, abs(delta_fibre(delta_fibre(ell0))(pts))


@_draws(1)
def differential_square_zero(cfg: RunConfig, rng):
    """d after d on a chart 1-form and on a loop-group 0-form."""
    grid, group = _setup(cfg)
    # float_power: x ** 2 as numpy rounds it for a single number
    one = Form(1, lambda pt, v: np.sin(pt.x[..., 0]) * v[1]
               + np.exp(0.3 * pt.x[..., 2]) * v[0]
               + np.float_power(pt.x[..., 1], 2) * v[2])
    x0 = ChartPt(random_normal_point(rng, 3, DD_CHART))
    vs = tuple(random_chart_vector(rng, 3) for _ in range(3))
    r_chart = abs(ext_d(ext_d_form(one, h=1e-3), x0, vs, h=1e-3))

    C = random_loop_tangent(rng, grid, group)
    F0 = Form(0, lambda g: centext.gomi_cocycle_Z(g, C))
    g = random_loop(rng, grid, group)
    X = random_loop_tangent(rng, grid, group)
    Y = random_loop_tangent(rng, grid, group)
    return r_chart, abs(ext_d(ext_d_form(F0, h=1e-3), g, (X, Y), h=1e-3))


# ---------------------------------------------------------------------------
# caloron round trip


@_draws(2)
def connection_axioms(cfg: RunConfig, rng):
    """vertical reproduction, kernel annihilation, based-loop invariance
    and frame equivariance of the transferred connection."""
    return _connection_residuals(*random_caloron_point(rng, _tb(cfg)), rng)


def _connection_residuals(tb, pt: caloron.CaloronPoint, rng) -> tuple:
    """The four connection residuals at pt, their tangents and based
    loop drawn on the bundle's grid."""
    grid, group = tb.grid, tb.group
    xi = random_algebra(rng, group)
    got = caloron.caloron_connection(tb, pt, caloron.vertical_vector(tb, pt, xi))
    r_vertical = _sup(got - xi)

    X = random_loop_tangent(rng, grid, group)
    kv = caloron.kernel_vector(tb, pt, X)
    r_kernel = _sup(caloron.caloron_connection(tb, pt, kv))

    V = random_caloron_tangents(rng, tb, 1)[0]
    a0 = caloron.caloron_connection(tb, pt, V)
    g = random_loop(rng, grid, group, based=True)
    qt, Vp = caloron.loop_act(tb, pt, V, g)
    r_loop = _sup(caloron.caloron_connection(tb, qt, Vp) - a0)

    k0 = random_group_element(rng, group)
    qt, Vp = caloron.group_act(pt, V, k0)
    lhs = caloron.caloron_connection(tb, qt, Vp)
    rhs = mm(mm(np.linalg.inv(k0), a0), k0)
    return r_vertical, r_kernel, r_loop, _sup(lhs - rhs)


@_draws(10)
def curvature_square_split(cfg: RunConfig, rng):
    """pointwise identity between the squared transferred curvature and
    its base-curvature / Higgs-derivative split."""
    tb, pt = random_caloron_point(rng, _tb(cfg))
    table = caloron.curvature_samples(tb, pt, random_caloron_tangents(rng, tb, 4))
    return abs(caloron.pontrjagin_form(table) - caloron.pontrjagin_split(table))


@_draws(3)
def circle_reduction(cfg: RunConfig, rng):
    """circle integral of the 4-form against the descended 3-form, on
    the three-direction chart where the 3-form is nonzero."""
    tb = gerbe.TrivialBundle.chart3(*_setup(cfg), cfg.fd_step)
    m = random_chart_point(rng, tb.dim)
    us = [random_chart_vector(rng, tb.dim) for _ in range(3)]
    a = caloron.integrate_circle(tb, m, *us)
    b = gerbe.string_form(tb, m, *us)
    return abs(a - b) / max(1.0, abs(b))


@_draws(1)
def frame_round_trip(cfg: RunConfig, rng):
    """connection and Higgs field recovered from the identity frame."""
    return _on_both(_frame_round_trip, cfg, rng)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    name: str                  # "<scenario>/<slug>"
    paper_ref: str
    tol: float
    fn: Callable
    groups: tuple = ("su2", "su3")
    convergence: str = ""      # "", "grid", "fd" or "flat"


_SPECS = [
    CheckSpec("central-extension/cochain-closed", "cochain-closed",
              1e-8, cochain_closed),
    CheckSpec("central-extension/pair-form-coboundary",
              "pair-form-coboundary", 1e-6, pair_form_coboundary,
              convergence="fd"),
    CheckSpec("central-extension/path-cocycle-identity", "path-cocycle",
              1e-6, path_cocycle_identity),
    CheckSpec("central-extension/reduced-splitting", "reduced-splitting",
              1e-8, reduced_splitting),
    CheckSpec("path-fibration/curving-differential", "curving-differential",
              1e-6, curving_differential_path),
    CheckSpec("path-fibration/invariant-volume", "invariant-volume",
              1e-3, invariant_volume, groups=("su2",)),
    CheckSpec("path-fibration/string-matches-invariant-form", "string-form",
              1e-6, string_matches_invariant_form, convergence="flat"),
    CheckSpec("path-fibration/three-form-closed", "three-form-closed",
              1e-6, three_form_closed_base),
    CheckSpec("trivial-bundle/curving-differential", "curving-differential",
              1e-6, curving_differential_chart),
    CheckSpec("trivial-bundle/curving-transition", "curving-transition",
              1e-6, curving_transition),
    CheckSpec("trivial-bundle/differential-square-zero",
              "differential-square-zero", 1e-8, differential_square_zero),
    CheckSpec("trivial-bundle/simplicial-square-zero",
              "simplicial-square-zero", 1e-12, simplicial_square_zero,
              convergence="flat"),
    CheckSpec("trivial-bundle/transition-coboundary", "transition-coboundary",
              1e-8, transition_coboundary),
    CheckSpec("caloron-roundtrip/circle-reduction", "circle-reduction",
              1e-6, circle_reduction),
    CheckSpec("caloron-roundtrip/connection-axioms", "connection-transfer",
              1e-8, connection_axioms),
    CheckSpec("caloron-roundtrip/curvature-square-split",
              "curvature-square-split", 1e-8, curvature_square_split),
    CheckSpec("caloron-roundtrip/frame-round-trip", "frame-transfer",
              1e-10, frame_round_trip),
]

CHECKS = {s.name: s for s in sorted(_SPECS, key=lambda s: s.name)}

assert all(s.paper_ref in EQUATION_TAGS for s in _SPECS)
assert all(s.name.split("/")[0] in SCENARIOS[1:] for s in _SPECS)


def select_checks(cfg: RunConfig) -> list:
    return [s for s in CHECKS.values()
            if cfg.scenario in ("all", s.name.split("/")[0])
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
    """The slope of log(residual) against log(step); None when fewer than
    two rungs, or a residual at zero or not finite, leave no line to fit."""
    hs, rs = np.asarray(hs, dtype=float), np.asarray(rs, dtype=float)
    if hs.size < 2 or not np.all(np.isfinite(rs)) or np.any(rs <= 0.0):
        return None
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def convergence_table(name: str, grids, cfg: RunConfig = None,
                      residual: Optional[float] = None) -> ConvergenceResult:
    """Rerun one check over a refinement ladder.

    Grid-resolved checks sweep the angular grid sizes given; step-dominated
    checks instead halve the step of the Richardson stencil that every
    row runs, len(grids) times from FD_LADDER_START (the grid column then
    reports the reciprocal step).  The fitted slope of log(residual)
    against the refinement parameter is the observed order, and every
    row of the ladder reports it (None where no line fits); it is
    omitted for ladders designed to sit flat at roundoff, whose rows
    carry no order.

    `residual` is the check's own result at cfg, when the caller already
    has it: the grid rung at cfg.ntheta would rerun that exact
    configuration on the same fixtures, so it reuses the value instead.
    """
    if name not in CHECKS:
        raise ValueError("unknown check: %s" % name)
    spec = CHECKS[name]
    cfg = cfg if cfg is not None else RunConfig()
    out = ConvergenceResult()
    if spec.convergence == "fd":
        hs = [FD_LADDER_START / 2 ** j for j in range(len(grids))]
        for h in hs:
            sub = replace(cfg, fd_step=h)
            r = float(spec.fn(sub, _check_rng(sub, spec.name)))
            out.rows.append({"name": spec.name + "#fd-step",
                             "grid": int(round(1.0 / h)), "residual": r})
    else:
        gs = sorted(int(g) for g in grids)
        hs = [1.0 / g for g in gs]
        for g in gs:
            if residual is not None and g == cfg.ntheta:
                r = residual
            else:
                sub = replace(cfg, ntheta=g)
                r = float(spec.fn(sub, _check_rng(sub, spec.name)))
            out.rows.append({"name": spec.name, "grid": g, "residual": r})
    if spec.convergence in ("fd", "grid"):
        out.order = _fit_order(hs, [row["residual"] for row in out.rows])
        for row in out.rows:
            row["order"] = out.order
    return out


def convergence_grids(cfg: RunConfig) -> list:
    """cfg.ntheta, and a quarter and a half of it rounded up to an even
    size of at least 16."""
    return sorted({cfg.ntheta} | {max(16, k + k % 2)
                                  for k in (cfg.ntheta // 4, cfg.ntheta // 2)})


# ---------------------------------------------------------------------------
# the full suite


@dataclass
class SuiteResult:
    rows: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    fixtures: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.rows)


def run_suite(cfg: RunConfig, record_fixtures: bool = False) -> SuiteResult:
    """Run every check selected by the configuration, in name order.

    With record_fixtures every draw a check makes is logged, keyed by
    check name, so the exact sampled scenario can be serialised next to
    the report.  Each convergence table reuses its check's row as the
    rung at cfg.ntheta, so no configuration runs twice.
    """
    result = SuiteResult()
    specs = select_checks(cfg)
    for spec in specs:
        rng = _check_rng(cfg, spec.name)
        if record_fixtures:
            rng = sampling.RecordingRNG(rng)
        result.rows.append(run_check(spec, cfg, rng))
        if record_fixtures:
            result.fixtures[spec.name] = rng.log
    grids = convergence_grids(cfg)
    for spec, row in zip(specs, result.rows):
        if spec.convergence:
            result.convergence.extend(convergence_table(
                spec.name, grids, cfg, row["residual"]).rows)
    result.rows.sort(key=lambda r: r["name"])
    result.convergence.sort(key=lambda r: (r["name"], r["grid"]))
    return result
