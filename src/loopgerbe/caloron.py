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
interpolation (periodic scenarios only).  A scenario on a one-node grid
(`ThetaGrid(n, node=j)`) is read at node j's angle only: the checks
`connection-axioms` and `curvature-square-split` build theirs there,
since every sample they read is pointwise in theta, while
`circle-reduction` and `frame-round-trip` read the whole circle.

Tangents may come as one stack: a CaloronTangent whose X, eta and lam
carry a leading axis over d tangents (`curvature-square-split` draws
its four so, and `integrate_circle` builds its four so).  The curvature
of such a stack is one explicit value: the scenario's F on the pairs
i < j, gathered from the stack by index arrays, its nabla Phi on the
tangents, and the caloron curvature R built from them, all on the grid
(`curvature_samples`).  The value looks its angle's node up once and
keeps the lookup; the 4-form reads R and the split F and nabla Phi
from it (`CurvatureSamples.at_angle`), and only a stack that is read
is interpolated off the nodes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import forms, gerbe
from .forms import Form, pair_stacks, tangent_bracket
from .liegroup import adjoint_inv, bracket, exp_alg, group_inv, inner, mm
from .loops import GridFun, LoopPoint, conj_loop, quad_s1, step_axes


@dataclass(frozen=True)
class CaloronPoint:
    """A scenario point, a group element and an angle; a stack of them
    when k and theta carry leading axes (theta's are the point's).

    The point keeps nothing derived: a reader of a grid function at its
    angle calls `eval_samples`, and the curvature samples of a stack of
    tangents are one `CurvatureSamples` value that `curvature_samples`
    builds and its readers take explicitly.
    """

    p: object
    k: np.ndarray
    theta: float

    def flow(self, v: "CaloronTangent", t) -> "CaloronPoint":
        pad = np.ndim(self.theta) - np.ndim(v.lam)
        return CaloronPoint(forms.flow(self.p, v.X, t),
                            mm(self.k, exp_alg(step_axes(t, pad + 2) * v.eta)),
                            self.theta + step_axes(t, pad) * v.lam)


@dataclass(frozen=True)
class CaloronTangent:
    """A tangent (X, eta, lam); a stack of d of them when X, eta and lam
    carry a leading axis of length d."""

    X: object
    eta: np.ndarray
    lam: float

    def __getitem__(self, at) -> "CaloronTangent":
        """The tangents of a stack at the stack positions `at`."""
        return CaloronTangent(gerbe.pick(self.X, at), self.eta[at], self.lam[at])

    def bracket(self, w: "CaloronTangent") -> "CaloronTangent":
        return CaloronTangent(tangent_bracket(self.X, w.X),
                              bracket(self.eta, w.eta), 0.0)


# ---------------------------------------------------------------------------
# angle evaluation


def _node(grid, theta):
    """(j, off) for an angle or an array of them on a theta grid: the
    index of the nearest grid node and whether the angle is off the
    nodes (NaN, +-inf, or more than 1e-9 grid steps away).  Periodic
    grids wrap; closed grids reject node angles outside [0, 2 pi].  A
    one-node grid maps its node's angle to index 0 and rejects any
    other angle."""
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
    if grid.node is not None:
        if np.count_nonzero(off | (jr != grid.node)):
            raise ValueError("a one-node grid is read at its node's angle only")
        jr = np.zeros_like(jr)
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


def eval_samples(fun: GridFun, theta) -> np.ndarray:
    """Value of a grid function at an angle, or at an array of angles
    whose axes broadcast against the function's leading axes.

    Exact table lookup on grid nodes; trigonometric interpolation off
    the nodes, which needs periodic data.
    """
    return _read(fun, theta, *_node(fun.grid, theta))


def _read(fun: GridFun, theta, j, off) -> np.ndarray:
    """`eval_samples` at the node lookup (j, off) of theta."""
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
    newpt = CaloronPoint(scn.act(pt.p, g), mm(group_inv(gtheta), pt.k), pt.theta)
    if isinstance(V.X, tuple):
        pushed = (V.X[0], conj_loop(g, V.X[1]))
    else:
        pushed = conj_loop(g, V.X)
    # moving in theta drags g(theta): the group slot picks up -Z(g)
    eta = V.eta - V.lam * adjoint_inv(pt.k, eval_samples(g.z(), pt.theta))
    return newpt, CaloronTangent(pushed, eta, V.lam)


def group_act(pt: CaloronPoint, V: CaloronTangent, k0: np.ndarray):
    """Push along the right action of a constant group element."""
    newpt = CaloronPoint(pt.p, mm(pt.k, k0), pt.theta)
    return newpt, CaloronTangent(V.X, adjoint_inv(k0, V.eta), V.lam)


# ---------------------------------------------------------------------------
# curvature


@dataclass(frozen=True)
class CurvatureSamples:
    """What the curvature of d stacked tangents V_1 .. V_d reads at a
    point: its angle, the lams of the V_i, and three stacks on the
    scenario's grid.  F holds F(X_i, X_j) and R the caloron curvature on
    the pairs i < j, in itertools.combinations order, and pairs holds
    their index arrays (i, j); nabla_phi holds nabla Phi(X_i)."""

    theta: object
    lams: np.ndarray
    pairs: tuple
    F: GridFun
    nabla_phi: GridFun
    R: GridFun

    @functools.cached_property
    def _angle(self) -> tuple:
        """(theta, j, off): the angle, its axes put in front of the stack
        axis, and its node lookup, made once for every read of the table."""
        theta = np.expand_dims(self.theta, -1) if np.ndim(self.theta) else self.theta
        return (theta,) + _node(self.R.grid, theta)

    @functools.cached_property
    def _shuffles(self) -> tuple:
        """The (2, 2) `forms.shuffle_index`, made once per table."""
        return forms.shuffle_index((2, 2))

    def at_angle(self, stack: GridFun) -> np.ndarray:
        """One of the table's stacks at its angle, stack axis leading, from
        the one node lookup; off the nodes only this stack is interpolated."""
        return np.moveaxis(_read(stack, *self._angle), -3, 0)


def _lam_terms(base, grad, lam, i, j):
    """base + lam_j grad_i - lam_i grad_j on the pairs (i, j), stack axis
    leading: each lam term added only where its lam is nonzero, with lam
    multiplying in its own dtype."""
    lam = lam.reshape(lam.shape + (1,) * (grad.ndim - 1))
    total = np.where(lam[j] != 0.0, base + lam[j] * grad[i], base)
    return np.where(lam[i] != 0.0, total - lam[i] * grad[j], total)


def curvature_samples(scn, pt: CaloronPoint, Vs: CaloronTangent) -> CurvatureSamples:
    """The curvature samples of the stacked tangents Vs at pt, as
    functions of the angle: F from one `scn.curvature` call on the pair
    stacks, gathered from Vs by index arrays, nabla Phi from one
    `gerbe.nabla_phi` call on Vs, and R = ad(k^-1)(F(X_i, X_j)
    + nabla Phi(X_i) lam_j - nabla Phi(X_j) lam_i) from one stacked
    conjugation, each lam term added only where its lam is nonzero
    (`_lam_terms`)."""
    i, j = (np.array(ix) for ix in zip(*itertools.combinations(range(len(Vs.lam)), 2)))
    F = scn.curvature(pt.p, gerbe.pick(Vs.X, i), gerbe.pick(Vs.X, j))
    grad = gerbe.nabla_phi(scn, pt.p, Vs.X)
    total = _lam_terms(F.vals, grad.vals, np.asarray(Vs.lam, dtype=complex), i, j)
    return CurvatureSamples(pt.theta, np.asarray(Vs.lam), (i, j), F, grad,
                            GridFun(F.grid, adjoint_inv(pt.k, total)))


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


def pontrjagin_form(table: CurvatureSamples):
    """-(1/8 pi^2) <R, R> as a 4-form on the table's four tangents, one
    value per angle of a point stacked over angles: the (2, 2)
    `pair_stacks` of the R stack read at the angle with itself."""
    R = table.at_angle(table.R)
    val = pair_stacks(inner, (R, R), table._shuffles)
    return np.real(val) * (-1.0 / (8 * np.pi ** 2))


def pontrjagin_split(table: CurvatureSamples) -> float:
    """-(1/8 pi^2)(<F, F> + 2 <F, H>) with H the nabla Phi wedge dtheta
    part; the conjugation by k drops under the invariant pairing.  F and
    nabla Phi are read at the angle first, H is built from them in one
    step, and both pairings share the table's shuffle index."""
    F, grad = table.at_angle(table.F), table.at_angle(table.nabla_phi)
    H = _lam_terms(np.zeros_like(F), grad, table.lams, *table.pairs)
    val = (pair_stacks(inner, (F, F), table._shuffles)
           + 2.0 * pair_stacks(inner, (F, H), table._shuffles))
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
    p = scn.point(m)
    n = scn.group.n
    # the three lifts and the angle direction, as one stacked tangent
    us = np.array([u1, u2, u3, np.zeros(np.shape(u1))], dtype=float)
    Ts = CaloronTangent(scn.lift_tangent(p, us), np.zeros((4, n, n), dtype=complex),
                        np.array([0.0, 0.0, 0.0, 1.0]))
    angles = scn.grid.nodes + 0.5 * scn.grid.h
    pt = CaloronPoint(p, np.eye(n, dtype=complex), angles)
    return float(quad_s1(pontrjagin_form(curvature_samples(scn, pt, Ts))))


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

