"""Transfer of loop-group bundle data to a group bundle over base x circle.

A point of the transferred bundle is a scenario point together with a
group element and an angle; based loops act by simultaneously twisting
all three slots, so the quotient is a group bundle over base x circle.
The scenario's connection and Higgs field combine into one connection
here, its curvature square is a 4-form, and integrating that over the
circle returns the descended 3-form of the gerbe module.  An evaluation
construction realises the transfer on concrete loops in a chart model.

Angles decouple from the scenario's theta grid: grid functions are read
off at exact nodes by table lookup and elsewhere by trigonometric
interpolation (periodic scenarios only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms, gerbe
from .forms import Form, tangent_bracket, wedge_pair
from .liegroup import adjoint_inv, exp_alg, group_inv, inner
from .loops import GridFun, LoopPoint, conj_loop, pair_samples, quad_s1


@dataclass(frozen=True)
class CaloronPoint:
    p: object
    k: np.ndarray
    theta: float

    def flow(self, v: "CaloronTangent", t: float) -> "CaloronPoint":
        return CaloronPoint(forms.flow(self.p, v.X, t),
                            self.k @ exp_alg(t * v.eta),
                            self.theta + t * v.lam)


@dataclass(frozen=True)
class CaloronTangent:
    X: object
    eta: np.ndarray
    lam: float

    def bracket(self, w: "CaloronTangent") -> "CaloronTangent":
        return CaloronTangent(tangent_bracket(self.X, w.X),
                              self.eta @ w.eta - w.eta @ self.eta, 0.0)


# ---------------------------------------------------------------------------
# angle evaluation


def _node(fun, theta: float):
    """Index of the grid node at the angle for a GridFun or LoopPoint,
    None off the nodes (more than 1e-9 grid steps away).  Periodic grids
    wrap around; closed grids reject angles outside [0, 2 pi]."""
    j = float(theta) / fun.grid.h
    jr = int(round(j))
    if abs(j - jr) > 1e-9:
        return None
    if not fun.closed:
        return jr % fun.grid.n
    if 0 <= jr <= fun.grid.n:
        return jr
    raise ValueError("angle outside the closed grid")


def eval_samples(fun: GridFun, theta: float) -> np.ndarray:
    """Value of a grid function at an arbitrary angle.

    Exact table lookup on grid nodes; trigonometric interpolation off
    the nodes, which needs periodic data.
    """
    j = _node(fun, theta)
    if j is not None:
        return fun.vals[j]
    if fun.closed:
        raise ValueError("off-node angles need periodic data")
    return fun.interp(float(theta))


def eval_loop(g: LoopPoint, theta: float) -> np.ndarray:
    """Group-valued loops are only evaluated at exact grid nodes."""
    j = _node(g, theta)
    if j is None:
        raise ValueError("group loops are evaluated at grid nodes only")
    return g.vals[j]


# ---------------------------------------------------------------------------
# the transferred connection


def caloron_connection(scn, pt: CaloronPoint, V: CaloronTangent) -> np.ndarray:
    """ad(k^-1) A(X)|_theta + eta + lam ad(k^-1) Phi|_theta."""
    a = eval_samples(scn.connection(pt.p, V.X), pt.theta)
    phi = eval_samples(scn.higgs(pt.p), pt.theta)
    return adjoint_inv(pt.k, a + V.lam * phi) + V.eta


def vertical_vector(scn, pt: CaloronPoint, xi: np.ndarray) -> CaloronTangent:
    """The tangent whose raw group part is L_k(xi); reproduced by the
    connection."""
    return CaloronTangent(scn.zero_tangent(pt.p), np.asarray(xi), 0.0)


def kernel_vector(scn, pt: CaloronPoint, X: GridFun) -> CaloronTangent:
    """The degenerate quotient direction (iota(X), -X(theta) k, 0) for a
    loop-algebra direction X; the connection kills it."""
    eta = -adjoint_inv(pt.k, eval_samples(X, pt.theta))
    return CaloronTangent(scn.vertical(pt.p, X), eta, 0.0)


def loop_act(scn, pt: CaloronPoint, V: CaloronTangent, g: LoopPoint):
    """Push point and tangent along the based-loop action
    (p, k, theta) -> (p g, g(theta)^-1 k, theta)."""
    gtheta = eval_loop(g, pt.theta)
    newpt = CaloronPoint(scn.act(pt.p, g), group_inv(gtheta) @ pt.k, pt.theta)
    if isinstance(V.X, tuple):
        pushed = (V.X[0], conj_loop(g, V.X[1]))
    else:
        pushed = conj_loop(g, V.X)
    # moving in theta drags g(theta): the group slot picks up -Z(g)
    eta = V.eta - V.lam * adjoint_inv(pt.k, eval_samples(g.z(), pt.theta))
    return newpt, CaloronTangent(pushed, eta, V.lam)


def group_act(pt: CaloronPoint, V: CaloronTangent, k0: np.ndarray):
    """Push along the right action of a constant group element."""
    newpt = CaloronPoint(pt.p, pt.k @ k0, pt.theta)
    return newpt, CaloronTangent(V.X, adjoint_inv(k0, V.eta), V.lam)


# ---------------------------------------------------------------------------
# curvature


def _memo(fn):
    """fn, computed at most once per tuple of argument objects (keyed by
    identity); made per call, for the pairs of one 4-form evaluation."""
    seen = {}

    def at(*args):
        key = tuple(map(id, args))
        hit = seen.get(key)
        if hit is None:
            # the entry keeps the arguments alive, so their ids are not reused
            hit = seen[key] = (args, fn(*args))
        return hit[1]

    return at


def curvature_samples(scn, p, k, V: CaloronTangent, W: CaloronTangent,
                      fd_step: float = 1e-4, nabla_phi=None) -> GridFun:
    """The curvature on a tangent pair as a function of the angle:
    ad(k^-1)(F(X_V, X_W) + nabla Phi(X_V) lam_W - nabla Phi(X_W) lam_V).

    nabla_phi, if given, maps a scenario tangent X to nabla Phi(X) at p
    and is used instead of calling gerbe.nabla_phi, so that callers
    pairing several curvature samples at one point can share one
    evaluation per tangent; it must return what gerbe.nabla_phi would.
    """
    if nabla_phi is None:
        def nabla_phi(X):
            return gerbe.nabla_phi(scn, p, X, fd_step)

    total = scn.curvature(p, V.X, W.X, fd_step)
    if W.lam != 0.0:
        total = total + nabla_phi(V.X) * W.lam
    if V.lam != 0.0:
        total = total - nabla_phi(W.X) * V.lam
    ki = group_inv(np.asarray(k, dtype=complex))
    vals = np.einsum("ij,tjk,kl->til", ki, total.vals, np.asarray(k, dtype=complex))
    return GridFun(total.grid, vals, total.closed)


def caloron_curvature(scn, pt: CaloronPoint, V: CaloronTangent,
                      W: CaloronTangent, fd_step: float = 1e-4,
                      nabla_phi=None) -> np.ndarray:
    samples = curvature_samples(scn, pt.p, pt.k, V, W, fd_step, nabla_phi)
    return eval_samples(samples, pt.theta)


def curvature_via_ext_d(scn, pt: CaloronPoint, V: CaloronTangent,
                        W: CaloronTangent, fd_step: float = 1e-4) -> np.ndarray:
    """dA + (1/2)[A, A] evaluated through the generic exterior derivative
    (periodic scenarios; the angle flows off the nodes)."""
    A = Form(1, lambda q, T: caloron_connection(scn, q, T), name="caloron A")
    dA = forms.ext_d(A, pt, (V, W), fd_step)
    aV = caloron_connection(scn, pt, V)
    aW = caloron_connection(scn, pt, W)
    return dA + (aV @ aW - aW @ aV)


# ---------------------------------------------------------------------------
# the 4-form and its circle integral


def curvature_form(scn, fd_step: float = 1e-4, nabla_phi=None) -> Form:
    """The curvature as a 2-form; a nabla_phi memo (see curvature_samples)
    ties it to the point the memo was made for."""
    return Form(2, lambda q, a, b: caloron_curvature(scn, q, a, b, fd_step,
                                                     nabla_phi))


def pontrjagin_form(scn, pt: CaloronPoint, V1, V2, V3, V4,
                    fd_step: float = 1e-4) -> float:
    """-(1/8 pi^2) <R, R> as a 4-form on the transferred bundle."""
    nabla_phi = _memo(lambda X: gerbe.nabla_phi(scn, pt.p, X, fd_step))
    Rf = curvature_form(scn, fd_step, nabla_phi)
    val = wedge_pair(inner, (Rf, Rf))(pt, V1, V2, V3, V4)
    return float(np.real(val)) * (-1.0 / (8 * np.pi ** 2))


def pontrjagin_split(scn, pt: CaloronPoint, V1, V2, V3, V4,
                     fd_step: float = 1e-4) -> float:
    """-(1/8 pi^2)(<F, F> + 2 <F, H>) with H the nabla Phi wedge dtheta
    part; the conjugation by k drops under the invariant pairing.  The
    two wedges share one F sample per ordered tangent pair."""
    n = scn.group.n
    nabla_phi = _memo(lambda X: gerbe.nabla_phi(scn, pt.p, X, fd_step))

    @_memo
    def f_ev(q, a, b):
        return eval_samples(scn.curvature(q.p, a.X, b.X, fd_step), q.theta)

    def h_ev(q, a, b):
        out = np.zeros((n, n), dtype=complex)
        if b.lam != 0.0:
            out = out + b.lam * eval_samples(nabla_phi(a.X), q.theta)
        if a.lam != 0.0:
            out = out - a.lam * eval_samples(nabla_phi(b.X), q.theta)
        return out

    Ff = Form(2, f_ev)
    Hf = Form(2, h_ev)
    val = (wedge_pair(inner, (Ff, Ff))(pt, V1, V2, V3, V4)
           + 2.0 * wedge_pair(inner, (Ff, Hf))(pt, V1, V2, V3, V4))
    return float(np.real(val)) * (-1.0 / (8 * np.pi ** 2))


def integrate_circle(scn, m, u1, u2, u3, fd_step: float = 1e-4) -> float:
    """Circle integral of the 4-form contracted with three lifted base
    directions and the angle direction; equals the descended 3-form.

    Only scenarios in the periodic picture qualify: the integrand is a
    function on the whole circle, not on a cut interval.
    """
    if isinstance(scn, gerbe.TrivialBundle):
        p = scn.point(m)
    else:
        p = scn.canonical_lift(m)
    if scn.higgs(p).closed:
        raise ValueError("circle integration needs the periodic picture")
    n = scn.group.n
    no_eta = np.zeros((n, n), dtype=complex)
    Ts = [CaloronTangent(scn.lift_tangent(p, u), no_eta, 0.0)
          for u in (u1, u2, u3)]
    Ts.append(CaloronTangent(scn.zero_tangent(p), no_eta, 1.0))
    k = np.eye(n, dtype=complex)
    R = {}
    for i in range(4):
        for j in range(i + 1, 4):
            R[(i, j)] = curvature_samples(scn, p, k, Ts[i], Ts[j], fd_step)

    integrand = 2.0 * (pair_samples(R[(0, 1)], R[(2, 3)])
                       - pair_samples(R[(0, 2)], R[(1, 3)])
                       + pair_samples(R[(0, 3)], R[(1, 2)]))
    total = quad_s1(integrand) * (-1.0 / (8 * np.pi ** 2))
    return float(np.real(total))


# ---------------------------------------------------------------------------
# framed inverse and the evaluation construction


def extract_connection_higgs(scn, p):
    """Read (A, Phi) back out of the transferred connection at the
    identity frame: A(X) from (X, 0, 0), Phi from (0, 0, 1)."""
    template = scn.higgs(p)
    n = scn.group.n
    k = np.eye(n, dtype=complex)
    thetas = template.grid.closed_nodes if template.closed else template.grid.nodes

    def at(theta, V):
        return caloron_connection(scn, CaloronPoint(p, k, float(theta)), V)

    tdir = CaloronTangent(scn.zero_tangent(p), np.zeros((n, n)), 1.0)
    phi = GridFun(template.grid,
                  np.stack([at(t, tdir) for t in thetas]), template.closed)

    def connection_of(X):
        V = CaloronTangent(X, np.zeros((n, n)), 0.0)
        return GridFun(template.grid,
                       np.stack([at(t, V) for t in thetas]), template.closed)

    return connection_of, phi


def killingback_map(xloop: np.ndarray, qloop: LoopPoint, k: np.ndarray,
                    theta: float):
    """Evaluation of a loop in a trivial chart bundle: (x(theta), q(theta) k).

    Covers evaluation on the base and is exact on grid nodes; constant
    on based-loop orbits (x, q g, g(theta)^-1 k, theta)."""
    q = eval_loop(qloop, theta)
    x = np.asarray(xloop)[_node(qloop, theta)]
    return x, q @ np.asarray(k, dtype=complex)
