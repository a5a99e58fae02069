"""Seeded random objects for tests and the command-line checks.

Everything is driven by a counter-based generator so a seed pins the
whole scenario.  Loops, tangents and paths are built from finite
Fourier/polynomial profiles so that exact theta-derivative and
velocity payloads ride along.

One draw.  A theta profile is a0 + sum_m (a_m cos m theta + b_m sin m
theta) over HARMONICS = 2 harmonics: a0, a_1, a_2, b_1, b_2 are drawn in
that order uniform in [-SCALE, SCALE] = [-0.5, 0.5], and a_m, b_m are
damped by 1/m^2 so that the objects resolve on coarse grids; a based
profile subtracts its value at 0.  A stack of k profiles is one uniform
draw of shape (k, 1 + 2 HARMONICS), row by row, and a profile alone a
stack of one.  A loop is
the product of NFACTORS = 2 single-generator factors exp(f_j(theta)
xi_j), each a profile and then an algebra element whose basis
coefficients are uniform in [-0.7, 0.7]; a loop tangent draws one
profile per basis element as one stack.  A sampler of k loops or
tangents draws them in turn, each as it is drawn alone, and builds them
as one stack: one `product_loop` call (one eigh) for the loops, one
`GridFun.from_profiles` call for the tangents; it returns the slices,
and one object is the stack of one.  A path profile on [0, 1] has
four coefficients uniform in [-0.8, 0.8].

A chart point has coordinates uniform in [-CHART, CHART] = [-0.6, 0.6],
a chart vector N(0, 1) coordinates, a normal chart point N(0, spread^2)
ones (EXP_CHART = 0.3 on the group's exponential chart, DD_CHART = 0.5
where d after d is checked); a group element is exp of an algebra
element.  A caloron point draws a chart point, the loop factors, k
and its node, an integer in [0, ntheta); a caloron tangent a chart vector,
one profile per basis element, eta and lam in [-LAM, LAM] = [-1, 1].

Each bundle has one sampler set of one signature: `fibre_points(rng,
scn, q)`, `fibre_tangents(rng, scn, q, k=1)` and `acting_loop(rng, scn)`.
`TRIVIAL` draws q fibre points as a chart point, then q loops, and k
fibre tangents as k chart vectors, then q loop tangents for each; `PATH`
draws a path point, then q - 1 based loops, and each tangent's 2 pi
value, then its q slots.  Either set builds the loops of a call as one
stack, and the k q loop tangents or slots of a call as another.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np

from .caloron import CaloronPoint, CaloronTangent
from .liegroup import Group, exp_alg
from .loops import (Fn, GridFun, LoopPoint, PathInLoopGroup, ThetaGrid,
                    TrigPoly, path_from_factors, product_loop)

HARMONICS = 2  # harmonics of a theta profile
SCALE = 0.5    # half-width of a profile coefficient's uniform draw
DAMP = 1.0 / np.arange(1, HARMONICS + 1) ** 2  # 1/m^2 on harmonic m
NFACTORS = 2   # generator factors of a loop, a path point and a group path
CHART = 0.6    # half-width of a chart point's coordinates
LAM = 1.0      # half-width of a caloron tangent's lam
EXP_CHART = 0.3  # spread of the base point of the exponential chart on the group
DD_CHART = 0.5   # spread of the base point of the d after d chart check


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


class RecordingRNG:
    """Wraps a generator and logs every draw.

    The log serialises as plain JSON, so a report consumer can rebuild
    the exact fixtures without reimplementing the generator; feed the
    log back through ReplayRNG to rerun a check on the recorded values.
    """

    def __init__(self, rng):
        self._rng = rng
        self.log = []

    def _record(self, method, out):
        self.log.append({"method": method, "values": np.asarray(out).tolist()})
        return out

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._record("uniform", self._rng.uniform(low, high, size))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._record("normal", self._rng.normal(loc, scale, size))

    def integers(self, low, high=None, size=None):
        return self._record("integers", self._rng.integers(low, high, size))


class ReplayRNG:
    """Serves draws from a RecordingRNG log instead of a generator; a
    logged draw that does not fit the request raises ValueError."""

    def __init__(self, log):
        self._log = list(log)
        self._i = 0

    def _next(self, method, dtype, size):
        if self._i >= len(self._log):
            raise ValueError("fixture log exhausted")
        entry = self._log[self._i]
        self._i += 1
        vals = np.asarray(entry["values"], dtype=dtype)
        shape = () if size is None else tuple(np.atleast_1d(size))
        if (entry["method"], vals.shape) != (method, shape):
            raise ValueError("fixture log out of order: logged %s %s, asked for %s %s"
                             % (entry["method"], vals.shape, method, shape))
        return vals if vals.ndim else dtype(vals)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._next("uniform", float, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._next("normal", float, size)

    def integers(self, low, high=None, size=None):
        low, high = (0, low) if high is None else (low, high)
        vals = self._next("integers", int, size)
        if np.any((vals < low) | (vals >= high)):
            raise ValueError("fixture log has integers %s outside [%s, %s)"
                             % (vals, low, high))
        return vals


def _coeffs(rng: np.random.Generator, k: int, scale: float) -> np.ndarray:
    return rng.uniform(-scale, scale, size=k)


def random_algebra(rng: np.random.Generator, group: Group, scale: float = 0.7) -> np.ndarray:
    return group.from_coeffs(_coeffs(rng, group.dim, scale))


def random_chart_point(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.uniform(-CHART, CHART, size=dim)


def random_chart_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=dim)


def random_normal_point(rng: np.random.Generator, dim: int, spread: float) -> np.ndarray:
    """A chart vector scaled by spread: N(0, spread^2) coordinates."""
    return random_chart_vector(rng, dim) * spread


def random_group_element(rng: np.random.Generator, group: Group) -> np.ndarray:
    return exp_alg(random_algebra(rng, group))


def random_trig_coeffs(rng: np.random.Generator, k: int) -> tuple:
    """The coefficients (a0, ac, bs) of k theta profiles, of shapes (k,),
    (k, HARMONICS) and (k, HARMONICS): the one draw of a stack of
    profiles, one uniform draw of shape (k, 1 + 2 HARMONICS) whose row i
    is profile i's a0, then its a_m, then its b_m; the a_m and b_m are
    damped by 1/m^2."""
    c = rng.uniform(-SCALE, SCALE, size=(k, 1 + 2 * HARMONICS))
    return c[:, 0], c[:, 1:1 + HARMONICS] * DAMP, c[:, 1 + HARMONICS:] * DAMP


def random_trig(rng: np.random.Generator) -> TrigPoly:
    a0, ac, bs = random_trig_coeffs(rng, 1)
    return TrigPoly(float(a0[0]), tuple(ac[0]), tuple(bs[0]))


def random_based_profile(rng: np.random.Generator) -> Fn:
    """A trig profile shifted to vanish at 0 (hence at 2 pi as well)."""
    return Fn.based(random_trig(rng))


def random_loop_factors(rng: np.random.Generator, group: Group,
                        nfactors: int = NFACTORS) -> list:
    """The factors (f_j, xi_j) of a random loop, drawn without a grid:
    each a profile, then a generator."""
    return [(random_trig(rng), random_algebra(rng, group)) for _ in range(nfactors)]


def _slices(stack) -> tuple:
    """The objects of a stack (a LoopPoint or a GridFun), one per index
    of its leading axis."""
    return tuple(stack[i] for i in range(len(stack.vals)))


def _profile_stack(coeffs) -> TrigPoly:
    """The (group.dim, k) profile stack of k drawn (a0, ac, bs) sets of
    group.dim profiles each: one column per set."""
    return TrigPoly(*(np.stack(c, axis=1) for c in zip(*coeffs)))


def _loop_stack(rng: np.random.Generator, grid: ThetaGrid, group: Group, k: int,
                nfactors: int, based: bool) -> LoopPoint:
    """k loops as one stack (k, N, n, n): each loop draws its factors in
    turn (`random_loop_factors`), and factor j of every loop is one
    stacked profile and a (k, n, n) stack of generators, so one
    `product_loop` call, one eigh, builds them all."""
    drawn = [random_loop_factors(rng, group, nfactors) for _ in range(k)]
    factors = []
    for column in zip(*drawn):
        profiles, xis = zip(*column)
        stack = TrigPoly(*(np.array(c) for c in zip(*((f.a0, f.ac, f.bs)
                                                       for f in profiles))))
        factors.append((Fn.based(stack) if based else stack, np.array(xis)))
    return product_loop(grid, factors)


def random_loops(rng: np.random.Generator, grid: ThetaGrid, group: Group,
                 k: int) -> tuple:
    """k loops drawn in turn and built as one stack (`_loop_stack`), each
    a product of single-generator factors exp(f_j(theta) xi_j), exact Z."""
    return _slices(_loop_stack(rng, grid, group, k, NFACTORS, False))


def random_loop(rng: np.random.Generator, grid: ThetaGrid, group: Group,
                based: bool = False) -> LoopPoint:
    """One loop: a stack of one (`_loop_stack`)."""
    return _loop_stack(rng, grid, group, 1, NFACTORS, based)[0]


def _tangent_stack(grid: ThetaGrid, group: Group, coeffs) -> GridFun:
    """sum_a f_a(theta) E_a over the basis for each drawn set of
    group.dim profile coefficients, as one stack (k, N, n, n) with exact
    derivative payload: one `from_profiles` call."""
    return GridFun.from_profiles(grid, [(_profile_stack(coeffs), group.basis)])


def random_loop_tangents(rng: np.random.Generator, grid: ThetaGrid, group: Group,
                         k: int) -> tuple:
    """k algebra-valued loops, each one profile per basis element drawn
    as one stack (`random_trig_coeffs`), drawn in turn and built as one
    stack (`_tangent_stack`)."""
    coeffs = [random_trig_coeffs(rng, group.dim) for _ in range(k)]
    return _slices(_tangent_stack(grid, group, coeffs))


def random_loop_tangent(rng: np.random.Generator, grid: ThetaGrid,
                        group: Group) -> GridFun:
    """One algebra-valued loop: a stack of one (`random_loop_tangents`)."""
    return random_loop_tangents(rng, grid, group, 1)[0]


# ---------------------------------------------------------------------------
# points and tangents of the path fibration (`gerbe.PathFibration`), on
# its closed grid: a periodic grid raises ValueError


def _need_closed(grid: ThetaGrid):
    if not grid.closed:
        raise ValueError("path-fibration samples live on a closed grid")


def random_path_point(rng: np.random.Generator, grid: ThetaGrid,
                      group: Group) -> LoopPoint:
    _need_closed(grid)
    factors = []
    for _ in range(NFACTORS):
        prof = Fn.add(random_based_profile(rng),
                      Fn.ramp(float(rng.uniform(-SCALE, SCALE))))
        factors.append((prof, random_algebra(rng, group)))
    return product_loop(grid, factors)


def random_path_fibre_points(rng: np.random.Generator, scn, q: int) -> tuple:
    """q points of one fibre: p_1 random, the rest p_1 times based loops,
    drawn in turn and built as one stack that one `p_1.mul` multiplies."""
    p1 = random_path_point(rng, scn.grid, scn.group)
    if q == 1:
        return (p1,)
    return (p1,) + _slices(p1.mul(_loop_stack(rng, scn.grid, scn.group, q - 1, 1, True)))


def random_path_fibre_tangents(rng: np.random.Generator, scn, q: int,
                               k: int = 1) -> tuple:
    """k tangents to the q-fold fibre product, each q slots that vanish
    at theta = 0 and share their 2 pi value, drawn (a generator) just
    before the slots' profiles.  The k q slots are one stack and one
    `from_profiles` call: the ramp theta/2 pi times each slot's 2 pi value
    first, then one based profile per basis element."""
    group = scn.group
    ends, coeffs = [], []
    for _ in range(k):
        ends += [random_algebra(rng, group, SCALE)] * q
        coeffs += [random_trig_coeffs(rng, group.dim) for _ in range(q)]
    # the ramp is a stack of one term whose matrix varies over the slots
    X = GridFun.from_profiles(scn.grid, [
        (Fn.ramp(np.ones(1)), np.array(ends)[None]),
        (Fn.based(_profile_stack(coeffs)), group.basis)])
    slots = _slices(X)
    return tuple(slots[i * q:(i + 1) * q] for i in range(k))


# ---------------------------------------------------------------------------
# points and tangents of the trivial bundle and of the caloron


def random_bundle_fibre_points(rng: np.random.Generator, scn, q: int) -> tuple:
    """q points of one fibre: one chart point, then q loops
    (`random_loops`)."""
    m = random_chart_point(rng, scn.dim)
    return tuple(scn.point(m, g) for g in random_loops(rng, scn.grid, scn.group, q))


def random_bundle_fibre_tangents(rng: np.random.Generator, scn, q: int,
                                 k: int = 1) -> tuple:
    """k tangents to the q-fold fibre product, each q slots (u, X) that
    share their chart vector u: the k chart vectors, then each one's Xs,
    the k q of them one `random_loop_tangents` stack."""
    us = [random_chart_vector(rng, scn.dim) for _ in range(k)]
    Xs = random_loop_tangents(rng, scn.grid, scn.group, k * q)
    return tuple(tuple((u, X) for X in Xs[i * q:(i + 1) * q]) for i, u in enumerate(us))


def random_caloron_point(rng: np.random.Generator, tb) -> tuple:
    """(tb on ThetaGrid(N, node=j), a caloron point at node j): m, the
    loop factors, k and j drawn in that order.  Each sample a check reads
    at the point's angle is pointwise in theta, so node j alone gives the
    full grid's samples there, bit for bit."""
    m = random_chart_point(rng, tb.dim)
    factors = random_loop_factors(rng, tb.group)
    k = random_group_element(rng, tb.group)
    tb = replace(tb, grid=ThetaGrid(tb.grid.n, node=int(rng.integers(tb.grid.n))))
    p = tb.point(m, product_loop(tb.grid, factors))
    return tb, CaloronPoint(p, k, float(tb.grid.nodes[0]))


def random_caloron_tangents(rng: np.random.Generator, tb, k: int) -> CaloronTangent:
    """k caloron tangents as one stack: u (k, dim), X one GridFun (k, N, n,
    n), eta (k, n, n) and lam (k,).  Each tangent draws in turn its u, its
    group.dim profiles, eta and lam; X is one `from_profiles` call over the
    (group.dim, k) profile stack.  One tangent is the stack's [0]."""
    group = tb.group
    us, coeffs, etas, lams = zip(*[
        (random_chart_vector(rng, tb.dim), random_trig_coeffs(rng, group.dim),
         random_algebra(rng, group), rng.uniform(-LAM, LAM)) for _ in range(k)])
    X = _tangent_stack(tb.grid, group, coeffs)
    return CaloronTangent((np.array(us), X), np.array(etas), np.array(lams))


# ---------------------------------------------------------------------------
# paths in the loop group


def random_unit_profile(rng: np.random.Generator) -> Fn:
    """Smooth profile on [0, 1] vanishing at 0 (for path factors)."""
    c = _coeffs(rng, 4, 0.8)

    def val_dval(s):
        s = np.asarray(s, dtype=float)
        sn, cs = np.sin(np.pi * s), np.cos(np.pi * s)
        return (c[0] * s + c[1] * s * s + c[2] * sn + c[3] * (1.0 - cs),
                c[0] + 2.0 * c[1] * s + c[2] * np.pi * cs + c[3] * np.pi * sn)

    return Fn(val_dval)


def random_group_path(rng: np.random.Generator, grid: ThetaGrid, group: Group,
                      npath: int) -> PathInLoopGroup:
    """Path from the identity in the loop group with exact velocities."""
    factors = []
    for _ in range(NFACTORS):
        X = random_loop_tangent(rng, grid, group)
        factors.append((random_unit_profile(rng), X))
    return path_from_factors(grid, factors, npath)


# ---------------------------------------------------------------------------
# one sampler set per bundle; the acting loop is based on the path fibration

FibreSamplers = namedtuple("FibreSamplers", "fibre_points fibre_tangents acting_loop")
TRIVIAL = FibreSamplers(random_bundle_fibre_points, random_bundle_fibre_tangents,
                        lambda rng, scn: random_loop(rng, scn.grid, scn.group))
PATH = FibreSamplers(random_path_fibre_points, random_path_fibre_tangents,
                     lambda rng, scn: random_loop(rng, scn.grid, scn.group, based=True))
