"""Lifting-gerbe data on concrete bundle scenarios.

Two scenarios are provided: a trivial loop-group bundle over a flat
chart, and the fibration of identity-based paths in K over K with based
loops acting on the right.  Both expose the same small surface: points,
tangents, the right action, the fibre transition tau, a connection A,
a twisted Higgs field Phi, and the scenario's preferred curvature route.
On top of that the module computes the transition forms epsilon and
beta, the curving f, the covariant derivative of the Higgs field, the
descended 3-form, and the right-invariant 3-form on K it reproduces.

A scenario holds its difference step `fd_step` (`forms.FD_STEP` unless given,
set by `--fd-step`); every difference here and in `caloron` reads it.

Conventions worth stating once: fibre-product projections are indexed
by the slot they omit (pi_1(p1, p2) = p2), matching the alternating sums
in forms.delta_fibre; all loop tangents are left-trivialised; tangents
to a fibre product share their projection slot by slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import centext, forms
from .forms import (FD_STEP, ChartPt, directional, pair_stacks, shuffle_index,
                    signed_permutations, tangent_bracket)
from .liegroup import (ATOL_STRUCT, SU2, Group, adjoint, bracket, group_inv,
                       mm, project_algebra, trace_mm)
from .loops import (Fn, GridFun, LoopPoint, ThetaGrid, TrigPoly, conj_loop,
                    pair_samples, step_axes)


def _sq(x):
    """x ** 2 rounded at every entry of a stack as numpy rounds it for a
    single number (C pow): the array power squares by x * x, which
    differs in the last bit for about one argument in a thousand."""
    return np.float_power(x, 2)


def _coeffs(c, m) -> np.ndarray:
    """The coefficient c of a chart function at the chart points m, one
    per point of a stack (a constant function broadcasts), against the
    theta axis of a profile: its axes lead the samples of
    `GridFun.from_profiles`."""
    lead = np.shape(m)[:-1]
    if np.shape(c) != lead:
        c = c * np.ones(lead)
    return np.asarray(c)[..., None]


# ---------------------------------------------------------------------------
# trivial bundle over a flat chart


@dataclass(frozen=True)
class TrivialPoint:
    m: np.ndarray
    g: LoopPoint

    def flow(self, v, t) -> "TrivialPoint":
        # the loop may broadcast against a stack of chart points, or the
        # other way round, and both against a stack of tangents: each part
        # pads the steps to the most leading axes, then flows as its own
        # type does
        u, X = np.asarray(v[0]), v[1]
        mlead = max(self.m.ndim, u.ndim) - 1
        glead = max(self.g.vals.ndim, X.vals.ndim) - 3
        lead = max(mlead, glead)
        return TrivialPoint(ChartPt(self.m).flow(u, step_axes(t, lead - mlead)).x,
                            self.g.flow(X, step_axes(t, lead - glead)))


@dataclass(frozen=True, eq=False)
class TrivialBundle:
    """Chart x loop group with an analytic base connection and Higgs seed.

    a_terms: one (profile, xi) per chart direction; the base connection
    is a(m)(u) = rho(m) * sum_d u_d profile_d(theta) xi_d with the bump
    rho(m) = prod_i (1 - m_i^2) over the chart coordinates.  The Higgs
    seed is phi(m) = phi_coeff(m) * profile(theta) xi.  Tangents are
    (u, X) pairs: a chart vector and a left-trivialised loop vector.
    Chart points may stack leading axes in front of the chart axis, and
    every chart function reads coordinate i as m[..., i].  The loops
    live on the periodic grid.

    The bundle is its data: a bundle with other data is
    `dataclasses.replace(tb, phi_coeff=...)`.  Equality and hashing are
    by identity, since the data holds arrays and functions.
    """

    grid: ThetaGrid
    group: Group
    a_terms: tuple
    phi_term: tuple
    phi_coeff: Callable
    fd_step: float = FD_STEP

    @property
    def dim(self) -> int:
        return len(self.a_terms)

    @staticmethod
    def default(grid: ThetaGrid, group: Group = SU2,
                fd_step: float = FD_STEP) -> "TrivialBundle":
        """The standard instance: bump-weighted sin/cos directions and a
        chart-linear Higgs seed, generically curving."""
        E = group.basis
        return TrivialBundle(
            grid, group,
            a_terms=((Fn.of(np.sin, np.cos), E[0]),
                     (Fn.of(np.cos, lambda t: -np.sin(t)), E[1])),
            phi_term=(TrigPoly(1.0), E[2]),
            phi_coeff=lambda m: m[..., 0], fd_step=fd_step,
        )

    @staticmethod
    def chart3(grid: ThetaGrid, group: Group = SU2,
               fd_step: float = FD_STEP) -> "TrivialBundle":
        """Three chart directions, so the descended 3-form has room to
        be nonzero; used to give the circle reduction a nonzero target."""
        E = group.basis
        # third direction deliberately theta-constant: an all-oscillatory
        # choice makes every <F, grad Phi> product average to zero on the
        # circle and the reduced 3-form degenerates to roundoff
        return TrivialBundle(
            grid, group,
            a_terms=((Fn.of(np.sin, np.cos), E[0]),
                     (Fn.of(np.cos, lambda t: -np.sin(t)), E[1]),
                     (TrigPoly(1.0), E[2])),
            phi_term=(TrigPoly(1.0), E[2]),
            phi_coeff=lambda m: m[..., 0] - 0.3 * m[..., 2], fd_step=fd_step,
        )

    # points and tangents

    def point(self, m, g: LoopPoint = None) -> TrivialPoint:
        if g is None:
            g = LoopPoint.identity(self.grid, self.group.n)
        return TrivialPoint(np.asarray(m, dtype=float), g)

    def act(self, p: TrivialPoint, h: LoopPoint) -> TrivialPoint:
        return TrivialPoint(p.m, p.g.mul(h))

    def vertical(self, p: TrivialPoint, xi: GridFun):
        return (np.zeros(self.dim), xi)

    def lift_tangent(self, p: TrivialPoint, u):
        """(u, 0); a stack of chart vectors, chart axis last, lifts to
        the stack of their tangents."""
        u = np.asarray(u, dtype=float)
        n = self.group.n
        zero = np.zeros(u.shape[:-1] + (self.grid.size, n, n), dtype=complex)
        return (u, GridFun(self.grid, zero, zero.copy()))

    def zero_tangent(self, p: TrivialPoint):
        return self.lift_tangent(p, np.zeros(self.dim))

    # base data

    def rho(self, m):
        """The bump prod_i (1 - m_i^2), its factors multiplied left to right."""
        return math.prod(1.0 - _sq(m[..., i]) for i in range(self.dim))

    def _profile_terms(self, m, terms, coeffs) -> list:
        """The terms coeffs_d * profile_d(theta) xi_d of the (profile, xi)
        terms, as (profile, xi) pairs, one loop per chart point of m."""
        return [(Fn.scale(f, _coeffs(c, m)), xi) for (f, xi), c in zip(terms, coeffs)]

    def _base_terms(self, m, u) -> list:
        """The profile terms of a(m)(u); a stack of chart vectors u
        broadcasts against the chart points m."""
        r, u = self.rho(m), np.asarray(u)
        return self._profile_terms(m, self.a_terms,
                                   [r * u[..., d] for d in range(self.dim)])

    def base_connection(self, m, u) -> GridFun:
        """a(m)(u) with its theta derivative, which the connection
        carries; a stack of chart vectors u broadcasts against the chart
        points m."""
        return GridFun.from_profiles(self.grid, self._base_terms(m, u))

    def phi(self, m) -> GridFun:
        """The Higgs seed phi(m), its values alone: no reader of the
        Higgs field takes a theta derivative."""
        return GridFun.from_profile_vals(self.grid, self._profile_terms(
            m, [self.phi_term], [self.rho(m) * self.phi_coeff(m)]))

    # gerbe surface

    def connection(self, p: TrivialPoint, V) -> GridFun:
        return conj_loop(p.g, self.base_connection(p.m, V[0])) + V[1]

    def higgs(self, p: TrivialPoint) -> GridFun:
        """ad(g^-1) phi(m) + g^-1 d_theta g, with no theta-derivative
        payload: neither the seed nor the log-derivative carries one."""
        return conj_loop(p.g, self.phi(p.m)) + p.g.log_derivative

    def dphi_chart(self, p: TrivialPoint, u) -> GridFun:
        """ad(g^-1) of the chart derivative of the seed phi(m) along u:
        the part of dPhi that moves the chart point, by one difference
        stencil over chart points alone."""
        d = directional(lambda t: self.phi(ChartPt(p.m).flow(u, t).x).vals, self.fd_step)
        return conj_loop(p.g, GridFun(self.grid, d))

    def tau(self, p: TrivialPoint, q: TrivialPoint) -> LoopPoint:
        if float(np.max(np.abs(p.m - q.m))) > ATOL_STRUCT:
            raise ValueError("points in different fibres")
        return p.g.inv().mul(q.g)

    def curvature(self, p: TrivialPoint, V, W) -> GridFun:
        """ad(g^-1)(da + [a(u), a(v)]) with da(u, v) - da(v, u) by chart
        differences: one stacked base connection per difference stencil.
        u and v, broadcast against the chart points, stack the two
        orders x = (u, v) and y = (v, u) on a new leading axis; one
        stencil flows the chart point along x and evaluates a at y, and
        one plain evaluation at x gives a(u) and a(v).  No reader of F
        needs a theta derivative, so a is summed from its profiles'
        values alone (`GridFun.from_profile_vals`), and its samples are
        differenced and bracketed as arrays."""
        x = np.empty((2,) + np.broadcast(p.m, V[0], W[0]).shape)
        x[0], x[1] = V[0], W[0]
        y = x[::-1]

        def a(m, z):
            return GridFun.from_profile_vals(self.grid, self._base_terms(m, z)).vals

        da = directional(lambda t: a(ChartPt(p.m).flow(x, t).x, y), self.fd_step)
        ax = a(p.m, x)
        return conj_loop(p.g, GridFun(self.grid, da[0] - da[1] + bracket(ax[0], ax[1])))


# ---------------------------------------------------------------------------
# path fibration


def _end(vals: np.ndarray) -> np.ndarray:
    """The samples at 2 pi, theta kept as a unit axis -3 so that they
    broadcast against every node of a stack of paths."""
    return vals[..., -1:, :, :]


class PathFibration:
    """Identity-based paths in K over K, based loops acting on the right.

    Points are closed-grid loop-group elements p with p(0) = identity;
    the projection is evaluation at 2 pi.  Tangents are closed-grid
    algebra loops vanishing at theta = 0; vertical means vanishing at
    2 pi as well.  The connection interpolates between the path value
    and its endpoint pullback.  The scenario holds the closed grid with
    the N of the grid it is given.
    """

    def __init__(self, grid: ThetaGrid, group: Group = SU2,
                 fd_step: float = FD_STEP):
        self.grid = ThetaGrid(grid.n, closed=True)
        self.group = group
        self.fd_step = fd_step

    def act(self, p: LoopPoint, gam: LoopPoint) -> LoopPoint:
        return p.mul(gam)

    def vertical(self, p: LoopPoint, xi: GridFun) -> GridFun:
        return xi

    def zero_tangent(self, p: LoopPoint) -> GridFun:
        return GridFun.zero(self.grid, self.group.n)

    def project(self, p: LoopPoint) -> np.ndarray:
        return p.endpoint()

    def project_tangent(self, V: GridFun) -> np.ndarray:
        return V.vals[..., -1, :, :]

    def higgs(self, p: LoopPoint) -> GridFun:
        """Phi = p^-1 d_theta p, which the point keeps."""
        return p.log_derivative

    def connection(self, p: LoopPoint, V: GridFun) -> GridFun:
        """V - (theta/2pi) Ad(Q) V(2pi) with Q = p.endpoint_frame."""
        ramp = p.grid.nodes / (2.0 * np.pi)
        w = adjoint(p.endpoint_frame, _end(V.vals))
        vals = V.vals - ramp[:, None, None] * w
        dvals = None
        if V.dvals is not None:
            dw = bracket(w, self.higgs(p).vals)
            dvals = V.dvals - (1.0 / (2 * np.pi)) * w - ramp[:, None, None] * dw
        return GridFun(p.grid, vals, dvals)

    def tau(self, p: LoopPoint, q: LoopPoint) -> LoopPoint:
        if float(np.max(np.abs(p.endpoint() - q.endpoint()))) > ATOL_STRUCT:
            raise ValueError("points in different fibres")
        return p.inv().mul(q)

    def curvature(self, p: LoopPoint, V: GridFun, W: GridFun) -> GridFun:
        """Closed form: a quadratic-in-theta profile times the endpoint
        bracket conjugated back along the path.  No theta-derivative
        payload: no reader of F needs one."""
        theta = p.grid.nodes
        adc = adjoint(p.endpoint_frame, bracket(_end(V.vals), _end(W.vals)))
        poly = theta ** 2 / (8 * np.pi ** 2) - theta / (4 * np.pi)
        return GridFun(p.grid, 2.0 * poly[:, None, None] * adc)


# ---------------------------------------------------------------------------
# scenario-generic constructions


def tau_deriv(scn, p, q, V, W) -> GridFun:
    """Left-trivialised derivative of tau(p, q) along a fibre-pair tangent."""
    t = scn.tau(p, q)
    xp = V if isinstance(V, GridFun) else V[1]
    xq = W if isinstance(W, GridFun) else W[1]
    return xq - conj_loop(t, xp)


def tau_deriv_fd(scn, p, q, V, W) -> GridFun:
    """Finite-difference route: flow both slots, differentiate tau."""

    def at(t):
        return scn.tau(forms.flow(p, V, t), forms.flow(q, W, t))

    raw = directional(lambda t: at(t).vals, scn.fd_step)
    t0 = at(0.0)
    ltriv = project_algebra(mm(group_inv(t0.vals), raw))
    return GridFun(t0.grid, ltriv)


def connection_pullback_check(scn, p, q, V, W) -> float:
    """Residual of: A at q = ad(tau^-1)(A at p) + (d tau) tau^-1-style term.

    The transition derivative is taken by finite differences, making
    this an honest cross-check of the connection against tau.
    """
    t = scn.tau(p, q)
    lhs = scn.connection(q, W)
    rhs = conj_loop(t, scn.connection(p, V)) + tau_deriv_fd(scn, p, q, V, W)
    return float(np.max(np.abs(lhs.vals - rhs.vals)))


def epsilon_form(scn, pts, vecs) -> complex:
    """(i/2 pi) int <A at the first slot, Z(tau)> dtheta on a fibre pair.

    With projections indexed by the omitted slot this is the pullback
    of A through the second projection, which is what makes
    delta(epsilon) = beta an identity.
    """
    p1, p2 = pts
    return centext.gomi_cocycle_Z(scn.tau(p1, p2), scn.connection(p1, vecs[0]))


def beta_form(scn, pts, vecs) -> complex:
    """Pullback of the extension 1-form through (tau12, tau23)."""
    p1, p2, p3 = pts
    V1, V2, V3 = vecs
    t12 = scn.tau(p1, p2)
    t23 = scn.tau(p2, p3)
    d12 = tau_deriv(scn, p1, p2, V1, V2)
    d23 = tau_deriv(scn, p2, p3, V2, V3)
    return centext.eval_alpha(t12, t23, d12, d23)


def curving_f(scn, p, V, W) -> complex:
    """(i/2 pi) int [ (1/2)(<A(V), A(W)'> - <A(W), A(V)'>) - <F(V,W), Phi> ]."""
    aV = scn.connection(p, V)
    aW = scn.connection(p, W)
    F = scn.curvature(p, V, W)
    phi = scn.higgs(p)
    s = (0.5 * (pair_samples(aV, aW.dtheta()) - pair_samples(aW, aV.dtheta()))
         - pair_samples(F, phi))
    return 0.5j / np.pi * aV.grid.quad(s)


def nabla_phi(scn, p, V) -> GridFun:
    """Covariant derivative dPhi(V) + [A(V), Phi] - d_theta A(V) of the
    Higgs field along V, with no loop flow.

    dPhi along the loop part X of V is exact by the equivariance
    Phi(pg) = ad(g^-1) Phi(p) + g^-1 d_theta g: d_theta X + [Phi, X],
    from X's payload (`GridFun.dtheta`, ValueError where it has none)
    and one bracket.  A trivial-bundle tangent (u, X) adds
    `dphi_chart(p, u)`."""
    X = V[1] if isinstance(V, tuple) else V
    aV = scn.connection(p, V)
    phi = scn.higgs(p)
    dphi = X.dtheta() + tangent_bracket(phi, X)
    if isinstance(V, tuple):
        dphi = dphi + scn.dphi_chart(p, V[0])
    return dphi + tangent_bracket(aV, phi) - aV.dtheta()


def pick(T, at):
    """The stacked tangent T at the stack positions `at`, componentwise
    for a tuple."""
    if isinstance(T, tuple):
        return tuple(c[at] for c in T)
    return T[at]


def _stack(Ts):
    """Tangents of one kind and shape as one tangent with a leading stack
    axis: tuples componentwise, a GridFun's vals and dvals (None unless
    every one has them), arrays by np.stack."""
    if isinstance(Ts[0], tuple):
        return tuple(_stack(c) for c in zip(*Ts))
    if isinstance(Ts[0], GridFun):
        d = None if any(T.dvals is None for T in Ts) else np.stack([T.dvals for T in Ts])
        return GridFun(Ts[0].grid, np.stack([T.vals for T in Ts]), d)
    return np.stack(Ts)


def string_form_at(scn, p, T1, T2, T3):
    """-(1/4 pi^2) int <F, nabla Phi> dtheta at a total-space point, one
    value per node set of a stacked point, whose leading axes the
    tangents carry.

    The (2,1) `forms.pair_stacks` through `pair_samples` of one
    `scn.curvature` call on the pairs, gathered by index from the three
    tangents stacked once, and one `nabla_phi` call on that stack,
    integrated by the quadrature of the scenario's grid.  The value
    descends: it depends only on the projections of point and tangents.
    """
    Ts = _stack((T1, T2, T3))
    i, j = np.array([[0, 0, 1], [1, 2, 2]])      # the pairs i < j, in order
    F = scn.curvature(p, pick(Ts, i), pick(Ts, j))
    s = pair_stacks(pair_samples, (F, nabla_phi(scn, p, Ts)), shuffle_index((2, 1)))
    return np.real(-1.0 / (4 * np.pi ** 2) * scn.grid.quad(s))


def string_form(scn, m, u1, u2, u3):
    """The descended 3-form of a trivial bundle at a chart point, or a
    stack of them, at the point over m with the identity loop; each
    chart vector lifts at every point of the stack."""
    p = scn.point(m)
    lifts = [scn.lift_tangent(p, np.broadcast_arrays(p.m, u)[1]) for u in (u1, u2, u3)]
    return string_form_at(scn, p, *lifts)


def higgs_transform_residual(scn, p, g: LoopPoint, field=None) -> float:
    """Residual of Phi(pg) = ad(g^-1) Phi(p) + g^-1 dg."""
    if field is None:
        field = scn.higgs
    lhs = field(scn.act(p, g))
    rhs = conj_loop(g, field(p)) + g.log_derivative
    return float(np.max(np.abs(lhs.vals - rhs.vals)))


# ---------------------------------------------------------------------------
# the right-invariant 3-form on K


def omega3(k: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """(1/48 pi^2) <[Theta-hat, Theta-hat], Theta-hat> on raw tangents at k.

    Tangents are curve derivatives at k; the right-invariant form sends
    x to x k^-1.  The six-permutation sum is taken literally, with each
    of the three brackets and its trace computed once.  k and the
    tangents may stack leading axes; the value has those axes.
    """
    ki = group_inv(np.asarray(k, dtype=complex))
    hats = [mm(np.asarray(x, dtype=complex), ki) for x in (u, v, w)]
    total = 0.0 + 0.0j
    traces = {}
    for (i, j, l), sign in signed_permutations(3):
        if (j, i) in traces:
            # [b, a] is exactly -[a, b], so its trace against the same
            # third slot is exactly the negated one
            total -= sign * -traces.pop((j, i))
        else:
            traces[i, j] = trace_mm(bracket(hats[i], hats[j]), hats[l])
            total += sign * -traces[i, j]
    return np.real(total) / (48 * np.pi ** 2)


def omega3_su2_integral(neta: int = 64, nxi: int = 16) -> float:
    """Quadrature of omega3 over SU(2) in Hopf coordinates.

    k = [[cos(eta) e^{i x1}, -sin(eta) e^{-i x2}],
         [sin(eta) e^{i x2},  cos(eta) e^{-i x1}]],
    eta in [0, pi/2], x1, x2 in [0, 2 pi); orientation chosen so the
    integral of the generator form is +1.
    """
    eta = (np.arange(neta) + 0.5) * (np.pi / 2) / neta
    x1 = np.arange(nxi) * 2 * np.pi / nxi
    x2 = np.arange(nxi) * 2 * np.pi / nxi
    E, X1, X2 = np.meshgrid(eta, x1, x2, indexing="ij")
    ce, se = np.cos(E), np.sin(E)
    e1, e2 = np.exp(1j * X1), np.exp(1j * X2)

    def pack(a, b, c, d):
        # matrix axes outermost in memory: every product of omega3 runs
        # its inner loop along the node stack
        out = np.empty((2, 2) + E.shape, dtype=complex).transpose(2, 3, 4, 0, 1)
        out[..., 0, 0] = a
        out[..., 0, 1] = b
        out[..., 1, 0] = c
        out[..., 1, 1] = d
        return out

    k = pack(ce * e1, -se / e2, se * e2, ce / e1)
    dk_eta = pack(-se * e1, -ce / e2, ce * e2, -se / e1)
    dk_x1 = pack(1j * ce * e1, 0.0 * E, 0.0 * E, -1j * ce / e1)
    dk_x2 = pack(0.0 * E, 1j * se / e2, 1j * se * e2, 0.0 * E)

    vals = omega3(k, dk_eta, dk_x1, dk_x2)
    cell = (np.pi / 2 / neta) * (2 * np.pi / nxi) ** 2
    return float(vals.sum() * cell)
