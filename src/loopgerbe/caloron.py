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

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import forms, gerbe
from .forms import Form, pair_forms, stack_tangents, tangent_bracket
from .liegroup import adjoint_inv, bracket, exp_alg, group_inv, inner, mm
from .loops import GridFun, LoopPoint, conj_loop, quad_s1, step_axes


@dataclass(frozen=True)
class CaloronPoint:
    """A scenario point, a group element and an angle; a stack of them
    when k and theta carry leading axes (theta's are the point's).

    The point keeps a table of the scenario samples at p that its
    curvature reads, F(X, Y) and nabla Phi(X), once per scenario and
    tangent objects (keyed by identity): the 4-form and its split share
    them.  `fill` puts in what a tuple of tangents needs, F on every
    pair i < j and nabla Phi on every tangent: the missing entries, each
    key once however often its tangents repeat, from one `scn.curvature`
    call on the stacked pairs and one `gerbe.nabla_phi` call on the
    stacked tangents, each entry a slice of its stack.

    The point also keeps, per theta grid, the grid node of its angle
    (`_node`, made on the first read on that grid): every read of a
    grid function at the angle (`_at`) looks it up there.  A flowed or
    pushed point is a new point and starts with both empty.
    """

    p: object
    k: np.ndarray
    theta: float
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _nodes: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _at(self, fun: GridFun) -> np.ndarray:
        """fun at the point's angle, as `eval_samples`, from the kept
        node lookup of fun's grid."""
        if fun.grid not in self._nodes:
            self._nodes[fun.grid] = _node(fun.grid, self.theta)
        return eval_samples(fun, self.theta, self._nodes[fun.grid])

    def _missing(self, kind, scn, args) -> dict:
        """{key: tangents} for the argument tuples not in the table yet."""
        out = {}
        for a in args:
            key = (kind, id(scn)) + tuple(map(id, a))
            if key not in self._samples:
                out.setdefault(key, a)
        return out

    def _store(self, scn, todo: dict, stack: GridFun):
        # the entry keeps its keys alive, so their ids are not reused
        for i, (key, args) in enumerate(todo.items()):
            self._samples[key] = (scn, args, stack[i])

    def fill(self, scn, Xs) -> None:
        """F(X_i, X_j) for i < j and nabla Phi(X_i) into the table, for
        the scenario tangents Xs."""
        pairs = self._missing("F", scn, itertools.combinations(Xs, 2))
        ones = self._missing("nabla_phi", scn, ((X,) for X in Xs))
        if pairs:
            V, W = (stack_tangents(s) for s in zip(*pairs.values()))
            self._store(scn, pairs, scn.curvature(self.p, V, W))
        if ones:
            V = stack_tangents([X for X, in ones.values()])
            self._store(scn, ones, gerbe.nabla_phi(scn, self.p, V))

    def _base_curvature(self, scn, X, Y) -> GridFun:
        """The scenario's curvature F(X, Y) at p, from the table."""
        return self._samples[("F", id(scn), id(X), id(Y))][2]

    def _nabla_phi(self, scn, X) -> GridFun:
        """The covariant derivative nabla Phi(X) at p, from the table."""
        return self._samples[("nabla_phi", id(scn), id(X))][2]

    def flow(self, v: "CaloronTangent", t) -> "CaloronPoint":
        pad = np.ndim(self.theta) - np.ndim(v.lam)
        return CaloronPoint(forms.flow(self.p, v.X, t),
                            mm(self.k, exp_alg(step_axes(t, pad + 2) * v.eta)),
                            self.theta + step_axes(t, pad) * v.lam)


@dataclass(frozen=True)
class CaloronTangent:
    X: object
    eta: np.ndarray
    lam: float

    def bracket(self, w: "CaloronTangent") -> "CaloronTangent":
        return CaloronTangent(tangent_bracket(self.X, w.X),
                              bracket(self.eta, w.eta), 0.0)


# ---------------------------------------------------------------------------
# angle evaluation


def _node(grid, theta):
    """(j, off) for an angle or an array of them on a theta grid: the
    index of the nearest grid node and whether the angle is off the
    nodes (NaN, +-inf, or more than 1e-9 grid steps away).  Periodic
    grids wrap; closed grids reject node angles outside [0, 2 pi]."""
    j = theta / grid.h
    # NaN and +-inf are off the nodes; node 0 stands in for them, so that
    # neither the subtraction nor the cast sees them
    finite = np.isfinite(j)
    jr = np.rint(np.where(finite, j, 0.0))
    off = ~finite | (abs(j - jr) > 1e-9)
    jr = np.where(off, 0.0, jr)
    if not grid.closed:
        jr = jr % grid.n
    elif np.count_nonzero((jr < 0) | (jr > grid.n)):
        raise ValueError("angle outside the closed grid")
    return jr.astype(int), off


def _at_nodes(vals: np.ndarray, j: np.ndarray) -> np.ndarray:
    """vals at theta node j; the axes of j broadcast against the leading
    axes of vals (a node per node set of a stack)."""
    if j.ndim == 0:
        return vals[..., j, :, :]
    lead = max(vals.ndim - 3, j.ndim)
    vals = vals.reshape((1,) * (lead + 3 - vals.ndim) + vals.shape)
    j = j.reshape((1,) * (lead - j.ndim) + j.shape + (1, 1, 1))
    return np.take_along_axis(vals, j, axis=-3)[..., 0, :, :]


def eval_samples(fun: GridFun, theta, node) -> np.ndarray:
    """Value of a grid function at an angle, or at an array of angles
    whose axes broadcast against the function's leading axes.

    Exact table lookup on grid nodes; trigonometric interpolation off
    the nodes, which needs periodic data.

    node is the lookup `_node(fun.grid, theta)`, which the caller keeps
    (`CaloronPoint._at`).
    """
    j, off = node
    vals = _at_nodes(fun.vals, j)
    if not np.count_nonzero(off):
        return vals
    if fun.grid.closed:
        raise ValueError("off-node angles need periodic data")
    return np.where(off[..., None, None], fun.interp(theta), vals)


def eval_loop(g: LoopPoint, theta) -> np.ndarray:
    """Group-valued loops are only evaluated at exact grid nodes."""
    j, off = _node(g.grid, theta)
    if np.count_nonzero(off):
        raise ValueError("group loops are evaluated at grid nodes only")
    return _at_nodes(g.vals, j)


# ---------------------------------------------------------------------------
# the transferred connection


def caloron_connection(scn, pt: CaloronPoint, V: CaloronTangent) -> np.ndarray:
    """ad(k^-1) A(X)|_theta + eta + lam ad(k^-1) Phi|_theta."""
    a = pt._at(scn.connection(pt.p, V.X))
    phi = pt._at(scn.higgs(pt.p))
    return adjoint_inv(pt.k, a + V.lam * phi) + V.eta


def vertical_vector(scn, pt: CaloronPoint, xi: np.ndarray) -> CaloronTangent:
    """The tangent whose raw group part is L_k(xi); reproduced by the
    connection."""
    return CaloronTangent(scn.zero_tangent(pt.p), np.asarray(xi), 0.0)


def kernel_vector(scn, pt: CaloronPoint, X: GridFun) -> CaloronTangent:
    """The degenerate quotient direction (iota(X), -X(theta) k, 0) for a
    loop-algebra direction X; the connection kills it."""
    eta = -adjoint_inv(pt.k, pt._at(X))
    return CaloronTangent(scn.vertical(pt.p, X), eta, 0.0)


def loop_act(scn, pt: CaloronPoint, V: CaloronTangent, g: LoopPoint):
    """Push point and tangent along the based-loop action
    (p, k, theta) -> (p g, g(theta)^-1 k, theta)."""
    gtheta = eval_loop(g, pt.theta)
    newpt = CaloronPoint(scn.act(pt.p, g), mm(group_inv(gtheta), pt.k), pt.theta)
    if isinstance(V.X, tuple):
        pushed = (V.X[0], conj_loop(g, V.X[1]))
    else:
        pushed = conj_loop(g, V.X)
    # moving in theta drags g(theta): the group slot picks up -Z(g)
    eta = V.eta - V.lam * adjoint_inv(pt.k, pt._at(g.z()))
    return newpt, CaloronTangent(pushed, eta, V.lam)


def group_act(pt: CaloronPoint, V: CaloronTangent, k0: np.ndarray):
    """Push along the right action of a constant group element."""
    newpt = CaloronPoint(pt.p, mm(pt.k, k0), pt.theta)
    return newpt, CaloronTangent(V.X, adjoint_inv(k0, V.eta), V.lam)


# ---------------------------------------------------------------------------
# curvature


def curvature_samples(scn, pt: CaloronPoint, V: CaloronTangent,
                      W: CaloronTangent) -> GridFun:
    """The curvature on a tangent pair as a function of the angle:
    ad(k^-1)(F(X_V, X_W) + nabla Phi(X_V) lam_W - nabla Phi(X_W) lam_V),
    from the point's sample table."""
    pt.fill(scn, (V.X, W.X))
    total = pt._base_curvature(scn, V.X, W.X)
    if W.lam != 0.0:
        total = total + pt._nabla_phi(scn, V.X) * W.lam
    if V.lam != 0.0:
        total = total - pt._nabla_phi(scn, W.X) * V.lam
    return GridFun(total.grid, adjoint_inv(pt.k, total.vals))


def caloron_curvature(scn, pt: CaloronPoint, V: CaloronTangent,
                      W: CaloronTangent) -> np.ndarray:
    return pt._at(curvature_samples(scn, pt, V, W))


def curvature_via_ext_d(scn, pt: CaloronPoint, V: CaloronTangent,
                        W: CaloronTangent) -> np.ndarray:
    """dA + (1/2)[A, A] evaluated through the generic exterior derivative
    (periodic scenarios; the angle flows off the nodes)."""
    A = Form(1, lambda q, T: caloron_connection(scn, q, T), name="caloron A")
    dA = forms.ext_d(A, pt, (V, W), scn.fd_step)
    aV = caloron_connection(scn, pt, V)
    aW = caloron_connection(scn, pt, W)
    return dA + bracket(aV, aW)


# ---------------------------------------------------------------------------
# the 4-form and its circle integral


def curvature_form(scn) -> Form:
    """The curvature as a 2-form."""
    return Form(2, lambda q, a, b: caloron_curvature(scn, q, a, b))


def pontrjagin_form(scn, pt: CaloronPoint, V1, V2, V3, V4):
    """-(1/8 pi^2) <R, R> as a 4-form on the transferred bundle, one
    value per angle of a point stacked over angles."""
    pt.fill(scn, (V1.X, V2.X, V3.X, V4.X))
    Rf = curvature_form(scn)
    val = pair_forms(inner, (Rf, Rf))(pt, V1, V2, V3, V4)
    return np.real(val) * (-1.0 / (8 * np.pi ** 2))


def pontrjagin_split(scn, pt: CaloronPoint, V1, V2, V3, V4) -> float:
    """-(1/8 pi^2)(<F, F> + 2 <F, H>) with H the nabla Phi wedge dtheta
    part; the conjugation by k drops under the invariant pairing.  The
    F and nabla Phi samples come from the point's table, so the two
    wedges and the 4-form at the same point share them."""
    n = scn.group.n
    pt.fill(scn, (V1.X, V2.X, V3.X, V4.X))

    def f_ev(q, a, b):
        return q._at(q._base_curvature(scn, a.X, b.X))

    def h_ev(q, a, b):
        out = np.zeros((n, n), dtype=complex)
        if b.lam != 0.0:
            out = out + b.lam * q._at(q._nabla_phi(scn, a.X))
        if a.lam != 0.0:
            out = out - a.lam * q._at(q._nabla_phi(scn, b.X))
        return out

    Ff = Form(2, f_ev)
    Hf = Form(2, h_ev)
    val = (pair_forms(inner, (Ff, Ff))(pt, V1, V2, V3, V4)
           + 2.0 * pair_forms(inner, (Ff, Hf))(pt, V1, V2, V3, V4))
    return float(np.real(val)) * (-1.0 / (8 * np.pi ** 2))


def integrate_circle(scn, m, u1, u2, u3) -> float:
    """Circle integral of the 4-form contracted with three lifted base
    directions and the angle direction; equals the descended 3-form.

    The periodic trapezoid rule over the N off-node angles
    (j + 1/2) 2 pi / N: `pontrjagin_form` at one CaloronPoint stacked
    over them, its curvature read off by trigonometric interpolation.
    No sum, pairing or node is shared with `gerbe.string_form`.

    Only scenarios in the periodic picture qualify: the integrand is a
    function on the whole circle, not on a cut interval.
    """
    if scn.grid.closed:
        raise ValueError("circle integration needs the periodic picture")
    p = scn.canonical_lift(m)
    n = scn.group.n
    no_eta = np.zeros((n, n), dtype=complex)
    Ts = [CaloronTangent(scn.lift_tangent(p, u), no_eta, 0.0)
          for u in (u1, u2, u3)]
    Ts.append(CaloronTangent(scn.zero_tangent(p), no_eta, 1.0))
    angles = scn.grid.nodes + 0.5 * scn.grid.h
    pt = CaloronPoint(p, np.eye(n, dtype=complex), angles)
    return float(quad_s1(pontrjagin_form(scn, pt, *Ts)))


# ---------------------------------------------------------------------------
# framed inverse and the evaluation construction


def extract_connection_higgs(scn, p):
    """Read (A, Phi) back out of the transferred connection at the
    identity frame: A(X) from (X, 0, 0), Phi from (0, 0, 1), each from
    one evaluation at the point stacked over the grid nodes."""
    grid = scn.grid
    n = scn.group.n
    pt = CaloronPoint(p, np.eye(n, dtype=complex), grid.nodes)

    def connection_of(X):
        V = CaloronTangent(X, np.zeros((n, n)), 0.0)
        return GridFun(grid, caloron_connection(scn, pt, V))

    tdir = CaloronTangent(scn.zero_tangent(p), np.zeros((n, n)), 1.0)
    return connection_of, GridFun(grid, caloron_connection(scn, pt, tdir))

