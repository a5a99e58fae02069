"""Lifting-gerbe data on concrete bundle scenarios.

Two scenarios are provided: a trivial loop-group bundle over a flat
chart, and the fibration of identity-based paths in K over K with based
loops acting on the right.  Both expose the same small surface: points,
tangents, the right action, the fibre transition tau, a connection A,
a twisted Higgs field Phi, and the scenario's preferred curvature route.
On top of that the module computes the transition forms epsilon and
beta, the curving f, the covariant derivative of the Higgs field, the
descended 3-form, and the right-invariant 3-form on K it reproduces.

Conventions worth stating once: fibre-product projections are indexed
by the slot they omit (pi_1(p1, p2) = p2), matching the alternating sums
in forms.delta_fibre; all loop tangents are left-trivialised; tangents
to a fibre product share their projection slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import centext, forms
from .forms import (Form, directional, ext_d, signed_permutations,
                    tangent_bracket)
from .liegroup import SU2, Group, exp_alg, group_inv, project_algebra
from .loops import (Fn, GridFun, LoopPoint, ThetaGrid, conj_loop,
                    pair_samples, quad_grid)


def _one() -> Fn:
    return Fn(lambda t: np.ones_like(np.asarray(t, dtype=float)),
              lambda t: np.zeros_like(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# trivial bundle over a flat chart


@dataclass(frozen=True)
class TrivialPoint:
    m: np.ndarray
    g: LoopPoint

    def flow(self, v, t: float) -> "TrivialPoint":
        return TrivialPoint(self.m + t * v[0], self.g.flow(v[1], t))


class TrivialBundle:
    """Chart x loop group with an analytic base connection and Higgs seed.

    a_terms: one (profile, xi) per chart direction; the base connection
    is a(m)(u) = rho(m) * sum_d u_d profile_d(theta) xi_d.  The Higgs
    seed is phi(m) = phi_coeff(m) * profile(theta) xi.  Tangents are
    (u, X) pairs: a chart vector and a left-trivialised loop vector.
    """

    def __init__(self, grid: ThetaGrid, group: Group, a_terms, phi_term,
                 phi_coeff, phi_coeff_grad, rho, rho_grad,
                 phi2_term=None, phi2_coeff=None):
        self.grid = grid
        self.group = group
        self.dim = len(a_terms)
        self.a_terms = a_terms
        self.phi_term = phi_term
        self.phi_coeff = phi_coeff
        self.phi_coeff_grad = phi_coeff_grad
        self.rho = rho
        self.rho_grad = rho_grad
        self.phi2_term = phi2_term if phi2_term is not None else phi_term
        self.phi2_coeff = phi2_coeff if phi2_coeff is not None else phi_coeff

    @staticmethod
    def default(grid: ThetaGrid, group: Group = SU2) -> "TrivialBundle":
        """The standard instance: bump-weighted sin/cos directions and a
        chart-linear Higgs seed, generically curving."""
        E = group.basis

        def rho(m):
            return (1.0 - m[0] ** 2) * (1.0 - m[1] ** 2)

        def rho_grad(m):
            return np.array([-2.0 * m[0] * (1.0 - m[1] ** 2),
                             -2.0 * m[1] * (1.0 - m[0] ** 2)])

        return TrivialBundle(
            grid, group,
            a_terms=[(Fn(np.sin, np.cos), E[0]),
                     (Fn(np.cos, lambda t: -np.sin(t)), E[1])],
            phi_term=(_one(), E[2]),
            phi_coeff=lambda m: m[0],
            phi_coeff_grad=lambda m: np.array([1.0, 0.0]),
            rho=rho, rho_grad=rho_grad,
            phi2_term=(_one(), E[0]),
            phi2_coeff=lambda m: 0.4 + m[1],
        )

    @staticmethod
    def chart3(grid: ThetaGrid, group: Group = SU2) -> "TrivialBundle":
        """Three chart directions, so the descended 3-form has room to
        be nonzero; used to give the circle reduction a nonzero target."""
        E = group.basis

        def rho(m):
            return ((1.0 - m[0] ** 2) * (1.0 - m[1] ** 2)
                    * (1.0 - m[2] ** 2))

        def rho_grad(m):
            f = (1.0 - m[0] ** 2, 1.0 - m[1] ** 2, 1.0 - m[2] ** 2)
            return np.array([-2.0 * m[0] * f[1] * f[2],
                             -2.0 * m[1] * f[0] * f[2],
                             -2.0 * m[2] * f[0] * f[1]])

        # third direction deliberately theta-constant: an all-oscillatory
        # choice makes every <F, grad Phi> product average to zero on the
        # circle and the reduced 3-form degenerates to roundoff
        return TrivialBundle(
            grid, group,
            a_terms=[(Fn(np.sin, np.cos), E[0]),
                     (Fn(np.cos, lambda t: -np.sin(t)), E[1]),
                     (_one(), E[2])],
            phi_term=(_one(), E[2]),
            phi_coeff=lambda m: m[0] - 0.3 * m[2],
            phi_coeff_grad=lambda m: np.array([1.0, 0.0, -0.3]),
            rho=rho, rho_grad=rho_grad,
            phi2_term=(_one(), E[0]),
            phi2_coeff=lambda m: 0.4 + m[1],
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
        return (np.asarray(u, dtype=float), GridFun.zero(self.grid, self.group.n))

    def zero_tangent(self, p: TrivialPoint):
        return (np.zeros(self.dim), GridFun.zero(self.grid, self.group.n))

    def project(self, p: TrivialPoint) -> np.ndarray:
        return p.m

    def project_tangent(self, V) -> np.ndarray:
        return V[0]

    # base data

    def base_connection(self, m, u) -> GridFun:
        r = self.rho(m)
        terms = [(Fn.scale(f, r * float(u[d])), xi)
                 for d, (f, xi) in enumerate(self.a_terms)]
        return GridFun.from_profiles(self.grid, terms)

    def base_connection_dm(self, m, u, w) -> GridFun:
        """Exact directional m-derivative of a(.)(u) along chart vector w."""
        dr = float(self.rho_grad(m) @ np.asarray(w, dtype=float))
        terms = [(Fn.scale(f, dr * float(u[d])), xi)
                 for d, (f, xi) in enumerate(self.a_terms)]
        return GridFun.from_profiles(self.grid, terms)

    def phi(self, m) -> GridFun:
        f, xi = self.phi_term
        c = self.rho(m) * self.phi_coeff(m)
        return GridFun.from_profiles(self.grid, [(Fn.scale(f, c), xi)])

    def phi_alt(self, m) -> GridFun:
        f, xi = self.phi2_term
        c = self.rho(m) * self.phi2_coeff(m)
        return GridFun.from_profiles(self.grid, [(Fn.scale(f, c), xi)])

    # gerbe surface

    def connection(self, p: TrivialPoint, V) -> GridFun:
        return conj_loop(p.g, self.base_connection(p.m, V[0])) + V[1]

    def higgs(self, p: TrivialPoint) -> GridFun:
        return conj_loop(p.g, self.phi(p.m)) + p.g.log_derivative()

    def higgs_alt(self, p: TrivialPoint) -> GridFun:
        return conj_loop(p.g, self.phi_alt(p.m)) + p.g.log_derivative()

    def tau(self, p: TrivialPoint, q: TrivialPoint) -> LoopPoint:
        if float(np.max(np.abs(p.m - q.m))) > 1e-10:
            raise ValueError("points in different fibres")
        return p.g.inv().mul(q.g)

    def curvature(self, p: TrivialPoint, V, W,
                  fd_step: float = 1e-4) -> GridFun:
        """ad(g^-1)(da + [a(u), a(v)]) with da by chart differences."""
        u, v = V[0], W[0]

        def da_dir(x, y):
            return directional(
                lambda t: self.base_connection(p.m + t * x, y), fd_step)

        base = da_dir(u, v) - da_dir(v, u) + tangent_bracket(
            self.base_connection(p.m, u), self.base_connection(p.m, v))
        return conj_loop(p.g, base)

    def curvature_exact(self, p: TrivialPoint, V, W) -> GridFun:
        """Same field from the analytic chart gradient (test oracle)."""
        base = (self.base_connection_dm(p.m, W[0], V[0])
                - self.base_connection_dm(p.m, V[0], W[0])
                + tangent_bracket(self.base_connection(p.m, V[0]),
                                  self.base_connection(p.m, W[0])))
        return conj_loop(p.g, base)


# ---------------------------------------------------------------------------
# path fibration


class PathFibration:
    """Identity-based paths in K over K, based loops acting on the right.

    Points are closed-grid loop-group elements p with p(0) = identity;
    the projection is evaluation at 2 pi.  Tangents are closed-grid
    algebra loops vanishing at theta = 0; vertical means vanishing at
    2 pi as well.  The connection interpolates between the path value
    and its endpoint pullback.
    """

    def __init__(self, grid: ThetaGrid, group: Group = SU2):
        self.grid = grid
        self.group = group

    def check_point(self, p: LoopPoint) -> None:
        if not p.closed:
            raise ValueError("path points live on the closed grid")
        if float(np.max(np.abs(p.vals[0] - np.eye(self.group.n)))) > 1e-10:
            raise ValueError("paths must start at the identity")

    def act(self, p: LoopPoint, gam: LoopPoint) -> LoopPoint:
        return p.mul(gam)

    def vertical(self, p: LoopPoint, xi: GridFun) -> GridFun:
        return xi

    def lift_tangent(self, p: LoopPoint, xbar) -> GridFun:
        """The ramp lift: theta/2pi times a left-trivialised base vector."""
        return GridFun.from_profiles(self.grid, [(Fn.ramp(1.0), np.asarray(xbar))],
                                     closed=True)

    def zero_tangent(self, p: LoopPoint) -> GridFun:
        return GridFun.zero(self.grid, self.group.n, closed=True)

    def project(self, p: LoopPoint) -> np.ndarray:
        return p.endpoint()

    def project_tangent(self, V: GridFun) -> np.ndarray:
        return V.vals[-1]

    def canonical_lift(self, k: np.ndarray) -> LoopPoint:
        """The one-parameter path exp(theta/2pi * log k); generic k only."""
        import scipy.linalg

        eta = project_algebra(scipy.linalg.logm(np.asarray(k, dtype=complex)))
        if float(np.max(np.abs(exp_alg(eta) - k))) > 1e-8:
            raise ValueError("no principal logarithm near this element")
        return LoopPoint(
            self.grid,
            exp_alg(eta, self.grid.closed_nodes / (2 * np.pi)),
            closed=True,
            zvals=(1.0 / (2 * np.pi))
            * np.broadcast_to(eta, (self.grid.n + 1,) + eta.shape).copy())

    def higgs(self, p: LoopPoint) -> GridFun:
        return conj_loop(p, p.z())

    def _endpoint_frame(self, p: LoopPoint):
        """Q(theta) = p(theta)^-1 p(2pi) and the ramp theta/2pi."""
        Q = group_inv(p.vals) @ p.vals[-1]
        ramp = p.grid.closed_nodes / (2.0 * np.pi)
        return Q, ramp

    def connection(self, p: LoopPoint, V: GridFun) -> GridFun:
        Q, ramp = self._endpoint_frame(p)
        w = np.einsum("tij,jk,tkl->til", Q, V.vals[-1], group_inv(Q))
        vals = V.vals - ramp[:, None, None] * w
        dvals = None
        if V.dvals is not None and p.zvals is not None:
            phi = self.higgs(p).vals
            dw = np.einsum("tij,tjk->tik", w, phi) - np.einsum(
                "tij,tjk->tik", phi, w)
            dvals = V.dvals - (1.0 / (2 * np.pi)) * w - ramp[:, None, None] * dw
        return GridFun(p.grid, vals, closed=True, dvals=dvals)

    def tau(self, p: LoopPoint, q: LoopPoint) -> LoopPoint:
        if float(np.max(np.abs(p.vals[-1] - q.vals[-1]))) > 1e-10:
            raise ValueError("points in different fibres")
        return p.inv().mul(q)

    def curvature(self, p: LoopPoint, V: GridFun, W: GridFun,
                  fd_step: float = 1e-4) -> GridFun:
        """Closed form: a quadratic-in-theta profile times the endpoint
        bracket conjugated back along the path."""
        Q, ramp = self._endpoint_frame(p)
        theta = p.grid.closed_nodes
        c = V.vals[-1] @ W.vals[-1] - W.vals[-1] @ V.vals[-1]
        adc = np.einsum("tij,jk,tkl->til", Q, c, group_inv(Q))
        poly = theta ** 2 / (8 * np.pi ** 2) - theta / (4 * np.pi)
        vals = 2.0 * poly[:, None, None] * adc
        phi = self.higgs(p).vals
        dpoly = theta / (4 * np.pi ** 2) - 1.0 / (4 * np.pi)
        dadc = np.einsum("tij,tjk->tik", adc, phi) - np.einsum(
            "tij,tjk->tik", phi, adc)
        dvals = 2.0 * (dpoly[:, None, None] * adc + poly[:, None, None] * dadc)
        return GridFun(p.grid, vals, closed=True, dvals=dvals)

    def nabla_phi_closed(self, p: LoopPoint, V: GridFun) -> GridFun:
        Q, _ = self._endpoint_frame(p)
        w = np.einsum("tij,jk,tkl->til", Q, V.vals[-1], group_inv(Q))
        return GridFun(p.grid, w * (1.0 / (2 * np.pi)), closed=True)


# ---------------------------------------------------------------------------
# scenario-generic constructions


def connection_form(scn) -> Form:
    return Form(1, lambda p, V: scn.connection(p, V), name="A")


def tau_deriv(scn, p, q, V, W) -> GridFun:
    """Left-trivialised derivative of tau(p, q) along a fibre-pair tangent."""
    t = scn.tau(p, q)
    xp = V if isinstance(V, GridFun) else V[1]
    xq = W if isinstance(W, GridFun) else W[1]
    return xq - conj_loop(t, xp)


def tau_deriv_fd(scn, p, q, V, W, fd_step: float = 1e-4) -> GridFun:
    """Finite-difference route: flow both slots, differentiate tau."""

    def at(t):
        return scn.tau(forms.flow(p, V, t), forms.flow(q, W, t))

    raw = directional(lambda t: at(t).vals, fd_step, richardson=False)
    t0 = at(0.0)
    ltriv = project_algebra(group_inv(t0.vals) @ raw)
    return GridFun(t0.grid, ltriv, t0.closed)


def connection_pullback_check(scn, p, q, V, W, fd_step: float = 1e-4) -> float:
    """Residual of: A at q = ad(tau^-1)(A at p) + (d tau) tau^-1-style term.

    The transition derivative is taken by finite differences, making
    this an honest cross-check of the connection against tau.
    """
    t = scn.tau(p, q)
    lhs = scn.connection(q, W)
    rhs = conj_loop(t, scn.connection(p, V)) + tau_deriv_fd(scn, p, q, V, W, fd_step)
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


def curving_f(scn, p, V, W, fd_step: float = 1e-4) -> complex:
    """(i/2 pi) int [ (1/2)(<A(V), A(W)'> - <A(W), A(V)'>) - <F(V,W), Phi> ]."""
    aV = scn.connection(p, V)
    aW = scn.connection(p, W)
    F = scn.curvature(p, V, W, fd_step)
    phi = scn.higgs(p)
    s = (0.5 * (pair_samples(aV, aW.dtheta()) - pair_samples(aW, aV.dtheta()))
         - pair_samples(F, phi))
    return 0.5j / np.pi * quad_grid(s, aV)


def nabla_phi(scn, p, V, fd_step: float = 1e-4) -> GridFun:
    """Covariant derivative of the Higgs field along V.

    Directional term by flow differences; bracket and -dtheta(A) exact.
    """
    d1 = directional(lambda t: scn.higgs(forms.flow(p, V, t)), fd_step)
    aV = scn.connection(p, V)
    phi = scn.higgs(p)
    return d1 + tangent_bracket(aV, phi) - aV.dtheta()


def curvature_via_ext_d(scn, p, V, W, fd_step: float = 1e-4) -> GridFun:
    """dA(V, W) + [A(V), A(W)] through the generic exterior derivative."""
    A = connection_form(scn)
    dA = ext_d(A, p, (V, W), fd_step)
    return dA + tangent_bracket(scn.connection(p, V), scn.connection(p, W))


def string_form_at(scn, p, T1, T2, T3, fd_step: float = 1e-4) -> float:
    """-(1/4 pi^2) int <F, nabla Phi> dtheta at a total-space point.

    The (2,1) pairing is the three-term alternating shuffle.  The value
    descends: it depends only on the projections of point and tangents.
    """
    Ts = (T1, T2, T3)
    Fs = {(i, j): scn.curvature(p, Ts[i], Ts[j], fd_step)
          for i, j in ((0, 1), (0, 2), (1, 2))}
    nps = [nabla_phi(scn, p, T, fd_step) for T in Ts]
    s = (pair_samples(Fs[(0, 1)], nps[2])
         - pair_samples(Fs[(0, 2)], nps[1])
         + pair_samples(Fs[(1, 2)], nps[0]))
    val = -1.0 / (4 * np.pi ** 2) * quad_grid(s, nps[0])
    return float(np.real(val))


def string_form(scn, m, u1, u2, u3, fd_step: float = 1e-4) -> float:
    """The descended 3-form at a base point, via the canonical lift."""
    if isinstance(scn, TrivialBundle):
        p = scn.point(m)
    else:
        p = scn.canonical_lift(m)
    lifts = [scn.lift_tangent(p, u) for u in (u1, u2, u3)]
    return string_form_at(scn, p, *lifts, fd_step=fd_step)


def higgs_transform_residual(scn, p, g: LoopPoint, field=None) -> float:
    """Residual of Phi(pg) = ad(g^-1) Phi(p) + g^-1 dg."""
    if field is None:
        field = scn.higgs
    lhs = field(scn.act(p, g))
    rhs = conj_loop(g, field(p)) + g.log_derivative()
    return float(np.max(np.abs(lhs.vals - rhs.vals)))


# ---------------------------------------------------------------------------
# the right-invariant 3-form on K


def omega3(k: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    """(1/48 pi^2) <[Theta-hat, Theta-hat], Theta-hat> on raw tangents at k.

    Tangents are curve derivatives at k; the right-invariant form sends
    x to x k^-1.  The full six-permutation sum is taken literally.
    """
    ki = group_inv(np.asarray(k, dtype=complex))
    hats = [np.asarray(x, dtype=complex) @ ki for x in (u, v, w)]
    total = 0.0 + 0.0j
    for perm, sign in signed_permutations(3):
        a, b, c = (hats[i] for i in perm)
        total += sign * -np.trace((a @ b - b @ a) @ c)
    return float(np.real(total)) / (48 * np.pi ** 2)


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
        out = np.empty(E.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = a
        out[..., 0, 1] = b
        out[..., 1, 0] = c
        out[..., 1, 1] = d
        return out

    k = pack(ce * e1, -se / e2, se * e2, ce / e1)
    dk_eta = pack(-se * e1, -ce / e2, ce * e2, -se / e1)
    dk_x1 = pack(1j * ce * e1, 0.0 * E, 0.0 * E, -1j * ce / e1)
    dk_x2 = pack(0.0 * E, 1j * se / e2, 1j * se * e2, 0.0 * E)

    ki = np.swapaxes(k, -1, -2).conj()
    hats = [d @ ki for d in (dk_eta, dk_x1, dk_x2)]
    total = np.zeros(E.shape, dtype=complex)
    for perm, sign in signed_permutations(3):
        a, b, c = (hats[i] for i in perm)
        comm = a @ b - b @ a
        total += sign * -np.einsum("...ij,...ji->...", comm, c)
    vals = np.real(total) / (48 * np.pi ** 2)
    cell = (np.pi / 2 / neta) * (2 * np.pi / nxi) ** 2
    return float(vals.sum() * cell)
