"""Loops and paths in a compact group, sampled on a circle grid.

A grid is periodic or closed; objects read the flavour from their grid
(`ThetaGrid.closed`), which owns the nodes, the node count and the
quadrature of that flavour.  Periodic grids carry N nodes
theta_j = 2 pi j/N with the node at 2 pi identified with 0; loops in
the group and their tangents live here, and the quadrature is the
periodic trapezoid rule, spectrally accurate for smooth periodic data.
Closed grids carry N+1 nodes including both ends; identity-based paths
(which need not close up) live here, and the quadrature is composite
Simpson.  A one-node grid `ThetaGrid(n, node=j)` carries node j of the
periodic N-grid alone, rounded as in the full grid: data read at that
one angle only are built there (the caloron checks `connection-axioms`
and `curvature-square-split`); it has no quadrature or interpolation,
and each raises ValueError.

A grid has no numerical derivative: every theta derivative is an exact
payload.  Every loop carries Z(g) (`LoopPoint.zvals`, a required
field), and a tangent that a reader differentiates carries its
derivative (`GridFun.dvals`): tangents built from closed-form data
carry one (flows, connections and the curving read them), while path
velocities and a scenario's curvature and Higgs field carry none,
because every reader of those takes their values only; asking one of
those for its derivative, or flowing along it, raises ValueError.

Node arrays may carry leading axes: the samples of a path in the loop
group stack its parameter nodes in front, shape (M, N, n, n).  Theta is
always axis -3 of a matrix-valued array and the last axis of a scalar
one; theta derivatives never run along a leading axis, and the
quadratures integrate the last axis.  A flow by an array of steps puts
the step axes in front of those (`step_axes`).

A closed-form profile gives its values alone (`val`) or its values and
theta derivative from one evaluation (`val_dval`).  Profiles may come
as a stack with a leading term axis (a TrigPoly of k profiles): one
`val_dval` call evaluates every term, `GridFun.from_profiles`
multiplies them by a stack of k matrices in one broadcast product and
adds the terms in order, and `product_loop` decomposes its generators
in one stacked eigh; each rounds as the same terms one at a time.
Derived samples are kept on the object they
derive from, each a cached property made on first use: a TrigPoly
keeps its coefficient rows, a GridFun its eigendecomposition, a
LoopPoint its left logarithmic derivative and endpoint frame.  The
classes are frozen so that what they keep matches their samples, and
no module keeps anything.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .liegroup import (
    AlgEig,
    adjoint,
    adjoint_inv,
    bracket,
    eig_alg,
    exp_dexp_right,
    group_inv,
    inner,
    mm,
)

# ---------------------------------------------------------------------------
# closed-form scalar profiles


@dataclass(frozen=True)
class Fn:
    """A scalar function of theta (or of a path parameter) with exact
    derivative: `val(t)` gives its values alone, `val_dval(t)` its
    values and derivative from one evaluation."""

    val: Callable[[np.ndarray], np.ndarray]
    val_dval: Callable[[np.ndarray], tuple]

    @staticmethod
    def of(val: Callable, dval: Callable) -> "Fn":
        """The function with values val(t) and derivative dval(t)."""
        return Fn(val, lambda t: (val(t), dval(t)))

    @staticmethod
    def ramp(c: float = 1.0, period: float = 2.0 * np.pi) -> "Fn":
        """c * t / period: vanishes at 0, reaches c at the period end."""
        return Fn.of(lambda t, c=c: c * np.asarray(t, dtype=float) / period,
                     lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c / period))

    @staticmethod
    def scale(f: "Fn", c: float) -> "Fn":
        def val_dval(t):
            v, d = f.val_dval(t)
            return c * v, c * d

        return Fn(lambda t: c * f.val(t), val_dval)

    @staticmethod
    def add(*fs: "Fn") -> "Fn":
        def val_dval(t):
            vs, ds = zip(*(f.val_dval(t) for f in fs))
            return sum(vs), sum(ds)

        return Fn(lambda t: sum(f.val(t) for f in fs), val_dval)

    @staticmethod
    def based(f: "Fn") -> "Fn":
        """f shifted by a constant so that the result vanishes at 0: one
        evaluation of f takes t and 0.0 together, and the value at 0.0 is
        subtracted after, term by term for a stack of profiles."""

        def at_t(v, t):
            """The samples of v at t: all but the last, at 0.0."""
            return v[..., :-1].reshape(v.shape[:-1] + t.shape)

        def val(t):
            t = np.asarray(t, dtype=float)
            v = np.asarray(f.val(np.append(t, 0.0)))
            return at_t(v - v[..., -1:], t)

        def val_dval(t):
            t = np.asarray(t, dtype=float)
            v, d = (np.asarray(x) for x in f.val_dval(np.append(t, 0.0)))
            return at_t(v - v[..., -1:], t), at_t(d, t)

        return Fn(val, val_dval)


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier sum a0 + sum_m (ac[m] cos((m+1) t) + bs[m] sin((m+1) t)).
    TrigPoly() is the zero profile and TrigPoly(1.0) the unit one.

    A stack of profiles has a0 of the stack's shape, (k,) or (k1, k2)
    say, and ac, bs of that shape plus (harmonics,): the stack axes
    lead the samples.  `val_dval` makes one cos and one sin call, over
    m t for every harmonic m, and one broadcast product of every term of
    the value and of the derivative; one ordered np.add.reduce then adds
    a0, the cos terms and the sin terms of the value, and from 0.0 minus
    m a_m sin(m t) and plus m b_m cos(m t) of the derivative, so that
    every term of every profile rounds as it rounds alone; a profile
    without harmonics is a0 along t, with no wave call.  `val` is the
    value of `val_dval`.  The coefficients are kept as float arrays, one
    row per term, from the first evaluation on.
    """

    a0: float = 0.0
    ac: tuple = ()
    bs: tuple = ()

    @functools.cached_property
    def rows(self) -> tuple:
        """The terms a0, a_m cos(m t), b_m sin(m t) one row each, made
        once and kept: per row the coefficients of its value and of its
        derivative (0.0 for a0, -m a_m, m b_m), the stack axes after
        them; its order m; and where its value and its derivative take
        cos(m t) rather than sin(m t)."""
        a0 = np.asarray(self.a0, dtype=float)
        ac, bs = (np.asarray(c, dtype=float).reshape(a0.shape + (-1,))
                  for c in (self.ac, self.bs))
        hc, hs = ac.shape[-1], bs.shape[-1]
        m = np.array([0.0, *range(1, hc + 1), *range(1, hs + 1)])
        vals = np.concatenate((a0[..., None], ac, bs), axis=-1)
        coef = np.array((vals, vals * np.array([0.0, *range(-1, -hc - 1, -1),
                                                  *range(1, hs + 1)])))
        coef[1, ..., 0] = 0.0
        cos_at = np.array([(True, True)] + [(True, False)] * hc + [(False, True)] * hs)
        # the row axis first, then value and derivative, the stack and t
        coef = coef.transpose((-1, 0) + tuple(range(1, a0.ndim + 1)))
        ends = (1,) * a0.ndim + (1,)
        return (np.ascontiguousarray(coef)[..., None], m.reshape((-1, 1) + ends),
                cos_at.reshape((-1, 2) + ends))

    def val(self, t):
        return self.val_dval(t)[0]

    def val_dval(self, t) -> tuple:
        t = np.asarray(t, dtype=float)
        if not len(self.ac) and not len(self.bs):
            # a0 alone, along t's axes, and the derivative 0.0: no wave
            val = np.multiply.outer(np.asarray(self.a0, dtype=float), np.ones(t.shape))
            return val, np.zeros(val.shape)
        coef, m, cos_at = self.rows
        mt = m * t.reshape(-1)
        waves = np.where(cos_at, np.cos(mt), np.sin(mt))
        waves[0] = 1.0  # the a0 row takes no wave
        # the rows are the outer axis, so they add one after another; from
        # -0.0, since -0.0 + x is x for every x, signed zeros included
        out = np.add.reduce(coef * waves, axis=0, initial=-0.0)
        val, dval = out.reshape(out.shape[:-1] + t.shape)
        return val, dval


# ---------------------------------------------------------------------------
# grids and quadrature


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform grid on [0, 2 pi] with N subintervals: periodic (N nodes,
    2 pi identified with 0) or closed (N+1 nodes, both ends kept).

    `ThetaGrid(n, node=j)` is node j of the periodic N-grid alone, for
    data read at that one angle: its one node rounds as node j of the
    full grid and its step stays 2 pi/N, but it has no quadrature.
    Equality and hash compare the N-grid (n, closed), so a one-node grid
    equals the grid it samples; data on it combine only with data on
    the same node (`_check_grids`, the one grid rule).

    A grid owns its nodes, its node count and its quadrature; it has no
    derivative, since every theta derivative is an exact payload.
    """

    n: int
    closed: bool = False
    node: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("grid size must be even and at least 8")
        if self.node is not None and (self.closed
                                      or not 0 <= operator.index(self.node) < self.n):
            raise ValueError(f"a one-node grid takes a node of the periodic "
                             f"{self.n}-grid, got {self.node!r}")

    @property
    def h(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def size(self) -> int:
        """The number of nodes: N periodic, N+1 closed, 1 on one node."""
        if self.node is not None:
            return 1
        return self.n + 1 if self.closed else self.n

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The nodes 2 pi j/N, built once per grid and read-only."""
        first = 0 if self.node is None else self.node
        return _frozen(2.0 * np.pi * np.arange(first, first + self.size) / self.n)

    def _whole(self, what: str):
        if self.node is not None:
            raise ValueError(f"{what} needs the whole circle, not one node")

    def quad(self, samples: np.ndarray) -> np.ndarray:
        """Integral over theta (the last axis) of node samples: the
        periodic trapezoid rule, or composite Simpson on a closed grid."""
        self._whole("a quadrature")
        return quad_closed(samples, self.h) if self.closed else quad_s1(samples)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def step_axes(t, pad: int) -> np.ndarray:
    """The steps t of a flow as a float array with `pad` unit axes
    appended.  A flow pads by its point's leading ndim minus its
    tangent's (none when a stack of tangents has more), so the axes of t
    lead the point's own leading axes, broadcast against the tangent's,
    in the flowed point."""
    t = np.asarray(t, dtype=float)
    return t.reshape(t.shape + (1,) * pad)


def quad_s1(samples: np.ndarray) -> np.ndarray:
    """Periodic trapezoid rule over the N nodes of the last axis: (2 pi / N) * sum."""
    samples = np.asarray(samples)
    return samples.sum(axis=-1) * (2.0 * np.pi / samples.shape[-1])


def _simpson_weights(m: int) -> np.ndarray:
    """Composite Simpson weights for m nodes, unit spacing.

    For an odd interval count the last three intervals use the 3/8 rule,
    keeping the whole rule 4th order.
    """
    if m < 2:
        raise ValueError("need at least two nodes")
    if m == 2:
        return np.array([0.5, 0.5])
    w = np.zeros(m)
    intervals = m - 1
    if intervals % 2 == 0:
        w[0] = w[-1] = 1.0 / 3.0
        w[1:-1:2] = 4.0 / 3.0
        w[2:-1:2] = 2.0 / 3.0
    else:
        head = _simpson_weights(m - 3) if m - 3 >= 2 else None
        if head is not None:
            w[: m - 3] += head
        w[m - 4 :] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)
    return w


def quad_closed(samples: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson along the last axis, a closed grid with spacing h.
    One BLAS dot per row (`np.vecdot`), so a stack of rows rounds as
    each row alone."""
    samples = np.asarray(samples)
    w = _simpson_weights(samples.shape[-1]) * h
    return np.vecdot(w, samples)


def quad_unit(samples: np.ndarray) -> np.ndarray:
    """Composite Simpson over [0, 1] on equally spaced nodes of the last axis."""
    samples = np.asarray(samples)
    return quad_closed(samples, 1.0 / (samples.shape[-1] - 1))


# ---------------------------------------------------------------------------
# algebra-valued grid functions


@dataclass(frozen=True)
class GridFun:
    """A matrix-valued function sampled on the theta grid.

    Tangent vectors to loop groups appear here in left-trivialised form:
    the samples are algebra elements.  `dvals` is the exact theta
    derivative, the only one there is: `dtheta` and a flow along the
    tangent read it, and raise ValueError where it is None (a path
    velocity, a curvature or a Higgs field sample).  The samples may
    carry leading axes (the nodes of a path, say); theta is axis -3 of
    `vals` and `dvals`.

    One eigendecomposition per tangent: `eig` decomposes `vals` (with
    `dvals` in its eigenbasis) on first use and keeps the result, so
    every flow along this tangent, at any step, reuses it.  The instance
    is frozen so that the kept decomposition always matches the samples.
    """

    grid: ThetaGrid
    vals: np.ndarray
    dvals: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_nodes(self.grid, self.vals)

    def _like(self, vals, dvals=None) -> "GridFun":
        return GridFun(self.grid, vals, dvals)

    def _check(self, other):
        """Raise ValueError unless other (a tangent or a loop) lives on
        this grid, node included (`_check_grids`)."""
        _check_grids(self.grid, other.grid)

    def __add__(self, other: "GridFun") -> "GridFun":
        self._check(other)
        d = None
        if self.dvals is not None and other.dvals is not None:
            d = self.dvals + other.dvals
        return self._like(self.vals + other.vals, d)

    def __sub__(self, other: "GridFun") -> "GridFun":
        self._check(other)
        d = None
        if self.dvals is not None and other.dvals is not None:
            d = self.dvals - other.dvals
        return self._like(self.vals - other.vals, d)

    def __mul__(self, c) -> "GridFun":
        """Scale by a number, or node-set by node-set by an array of the
        leading shape."""
        c = np.asarray(c, dtype=complex)[..., None, None, None]
        return self._like(c * self.vals, None if self.dvals is None else c * self.dvals)

    __rmul__ = __mul__

    def __getitem__(self, i) -> "GridFun":
        """Index the leading axes, never theta: X[0] is the first node set
        of a stack."""
        return self._like(self.vals[i], None if self.dvals is None else self.dvals[i])

    @functools.cached_property
    def eig(self) -> AlgEig:
        """The decomposition of vals and dvals, made once and kept."""
        return eig_alg(self.vals, self.dvals)

    def dtheta(self) -> "GridFun":
        """The exact theta derivative, from the payload."""
        if self.dvals is None:
            raise ValueError("no exact theta derivative")
        return self._like(self.dvals)

    def interp(self, theta) -> np.ndarray:
        """Trigonometric interpolation at off-grid angles (periodic only),
        along theta.  The angles' axes broadcast against the leading axes
        (an angle per node set of a stack), shape (..., n, n)."""
        if self.grid.closed:
            raise ValueError("trigonometric interpolation needs periodic data")
        self.grid._whole("trigonometric interpolation")
        theta = np.asarray(theta, dtype=float)
        # an infinite angle has no phase; as NaN it gives NaN without a warning
        theta = np.where(np.isinf(theta), np.nan, theta)
        n = self.grid.n
        spec = np.fft.fft(self.vals, axis=-3) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        phase = np.exp(1j * k * theta[..., None])
        # split the Nyquist coefficient between +n/2 and -n/2
        phase[..., n // 2] = np.cos(n // 2 * theta)
        # the row of phases times the n*n columns of the spectrum
        flat = spec.reshape(spec.shape[:-2] + (-1,))
        out = mm(phase[..., None, :], flat)[..., 0, :]
        return out.reshape(out.shape[:-1] + self.vals.shape[-2:])

    @staticmethod
    def from_profiles(grid: ThetaGrid, terms: Sequence[tuple]) -> "GridFun":
        """sum_j f_j(theta) X_j for closed-form profiles f_j and fixed X_j,
        with its exact theta derivative sum_j f_j'(theta) X_j, each added
        from 0.0 in the order given (`_add_terms`).  A profile may return
        a stack of them, theta last: its leading axes lead the samples.
        An X with a leading axis is a stack of k matrices, and its f then
        a stack of k profiles, term axis first (a stacked TrigPoly, say):
        one `val_dval` call per profile, and one broadcast product for the
        values and one for the derivatives, serve the k terms, which enter
        the sums in their order.  `from_profile_vals` is the same sum of
        the values alone."""
        t = grid.nodes
        both = [(f.val_dval(t), X) for f, X in terms]
        return GridFun(grid, _add_terms((v, X) for (v, _), X in both),
                       _add_terms((d, X) for (_, d), X in both))

    @staticmethod
    def from_profile_vals(grid: ThetaGrid, terms: Sequence[tuple]) -> "GridFun":
        """The samples of `from_profiles` without a theta-derivative
        payload, bit for bit: one val call per profile and no derivative,
        for data that no reader differentiates (a trivial bundle's
        curvature and Higgs field)."""
        return GridFun(grid, _add_terms((f.val(grid.nodes), X) for f, X in terms))

    @staticmethod
    def zero(grid: ThetaGrid, n: int) -> "GridFun":
        z = np.zeros((grid.size, n, n), dtype=complex)
        return GridFun(grid, z, z.copy())


def _add_terms(terms):
    """sum_j s_j X_j over (samples s_j, matrix X_j) terms, added from 0.0
    in order, so that the profiles' stack shape sets the samples'.  For
    a stack of k matrices X_j, s_j stacks k profiles, and
    s_j0 X_j0, ..., s_j(k-1) X_j(k-1) come from one broadcast product;
    a stack that opens the sum is added by one np.add.reduce from 0.0
    along the term axis, one after other terms term by term, so that the
    stack rounds as its terms one at a time."""
    out = 0.0
    for samples, X in terms:
        s = np.asarray(samples)[..., None, None]
        X = np.asarray(X)
        if X.ndim == 2:
            out = out + s * X
            continue
        prods = s * X.reshape(X.shape[:1] + (1,) * (s.ndim - 3) + X.shape[1:])
        out = (np.add.reduce(prods, axis=0, initial=0.0) if np.ndim(out) == 0
               else functools.reduce(np.add, prods, out))
    return out


def _check_nodes(grid: ThetaGrid, vals: np.ndarray):
    if vals.shape[-3] != grid.size:
        raise ValueError(f"expected {grid.size} nodes, got {vals.shape[-3]}")


def _check_grids(a: ThetaGrid, b: ThetaGrid):
    if a is not b and (a != b or a.node != b.node):
        raise ValueError("grid mismatch")


def pair_samples(X: GridFun, Y: GridFun) -> np.ndarray:
    """Node-wise invariant pairing <X, Y> = -tr(X Y); the leading axes of
    X and Y broadcast, and theta becomes the last axis.

    An operand that broadcasts is copied out to the common shape first:
    einsum walks a stride-0 operand in another order, and on contiguous
    operands every node rounds as it rounds alone."""
    X._check(Y)
    shape = np.broadcast_shapes(X.vals.shape, Y.vals.shape)
    x, y = (a if a.shape == shape else np.ascontiguousarray(np.broadcast_to(a, shape))
            for a in (X.vals, Y.vals))
    return inner(x, y)


# ---------------------------------------------------------------------------
# group-valued loops and identity-based paths


@dataclass(frozen=True)
class LoopPoint:
    """A group-valued function of theta.

    Instances on a periodic grid are loops; instances on a closed grid
    with vals[0] = identity are the points of the path fibration.
    `zvals` is the exact right logarithmic derivative
    Z(g) = (d_theta g) g^(-1), required: every loop is built from
    closed-form data that give it, and group multiplication, inversion
    and flows carry it along.  As for GridFun, the samples
    may carry leading axes and theta is axis -3, and their node count
    must match the grid.

    A point keeps what is derived from its samples alone: the left
    logarithmic derivative (`log_derivative`, the Higgs field of a path
    point) and, on a closed grid, the endpoint frame g(theta)^(-1) g(2 pi)
    (`endpoint_frame`), each made on first use.  The instance is frozen
    so that the kept data always match the samples, and they go with it.
    """

    grid: ThetaGrid
    vals: np.ndarray
    zvals: np.ndarray

    def __post_init__(self):
        _check_nodes(self.grid, self.vals)

    def _check(self, other):
        """Raise ValueError unless other (a loop or a tangent) lives on
        this grid, node included (`_check_grids`)."""
        _check_grids(self.grid, other.grid)

    def inv(self) -> "LoopPoint":
        return LoopPoint(self.grid, group_inv(self.vals),
                         -adjoint_inv(self.vals, self.zvals))

    def mul(self, other: "LoopPoint") -> "LoopPoint":
        """Pointwise product; Z(gh) = Z(g) + Ad(g) Z(h)."""
        self._check(other)
        return LoopPoint(self.grid, mm(self.vals, other.vals),
                         self.zvals + adjoint(self.vals, other.zvals))

    def z(self) -> GridFun:
        """Right logarithmic derivative Z(g) = (d_theta g) g^(-1)."""
        return GridFun(self.grid, self.zvals)

    @functools.cached_property
    def log_derivative(self) -> GridFun:
        """Left logarithmic derivative g^(-1) d_theta g = Ad(g^(-1)) Z(g),
        made once and kept."""
        return GridFun(self.grid, adjoint_inv(self.vals, self.zvals))

    def flow(self, X: GridFun, t) -> "LoopPoint":
        """The points g exp(t X), with the Z payload carried along exactly.

        t is a step or an array of steps; its axes lead the point's own
        leading axes in the result (`step_axes`), which broadcast against
        those of a stack of tangents X.  Evaluated from the
        tangent's kept eigendecomposition (`X.eig`), so the four
        Richardson steps of a directional derivative, and every other
        flow along X, share one eigh.  A tangent that is not
        anti-Hermitian, or that carries no theta derivative, raises
        ValueError on its first flow."""
        _check_grids(X.grid, self.grid)
        if X.dvals is None:
            raise ValueError("a flow needs the tangent's exact theta derivative (dvals)")
        t = step_axes(t, max(0, self.vals.ndim - X.vals.ndim))
        e, d = X.eig.exp_dexp(t)
        return LoopPoint(self.grid, mm(self.vals, e),
                         self.zvals + adjoint(self.vals, d))

    def endpoint(self) -> np.ndarray:
        if not self.grid.closed:
            raise ValueError("endpoint is defined for closed-grid paths")
        return self.vals[..., -1, :, :]

    @functools.cached_property
    def endpoint_frame(self) -> np.ndarray:
        """Q(theta) = g(theta)^(-1) g(2 pi) at every node, theta axis -3,
        made once and kept (closed grids only)."""
        return mm(group_inv(self.vals), self.endpoint()[..., None, :, :])

    @staticmethod
    def identity(grid: ThetaGrid, n: int) -> "LoopPoint":
        vals = np.broadcast_to(np.eye(n, dtype=complex), (grid.size, n, n)).copy()
        return LoopPoint(grid, vals, np.zeros_like(vals))


def conj_loop(h: LoopPoint, X: GridFun) -> GridFun:
    """Ad(h^(-1)) X node-wise, with the exact derivative when X has one.

    d_theta Ad(h^(-1)) X = Ad(h^(-1)) (d_theta X + [X, Z(h)]).
    """
    d = None
    if X.dvals is not None:
        d = adjoint_inv(h.vals, X.dvals + bracket(X.vals, h.zvals))
    return GridFun(X.grid, adjoint_inv(h.vals, X.vals), d)


# ---------------------------------------------------------------------------
# closed-form loops


def product_loop(grid: ThetaGrid, factors: Sequence[tuple]) -> LoopPoint:
    """Product of single-generator loops exp(f_j xi_j) on the nodes of
    the grid, exact Z payload.

    Each factor is (profile, xi), the profile evaluated once by its
    `val_dval`.  One eigendecomposition of the stacked generators and
    one stacked exp serve every factor.
    """
    if not factors:
        raise ValueError("need at least one factor")
    t = grid.nodes
    xi = np.asarray([x for _, x in factors], dtype=complex)
    fv, dfv = zip(*(f.val_dval(t) for f, _ in factors))
    vals = eig_alg(xi).exp_each(list(fv))
    dfv = np.asarray(dfv, dtype=float)
    z = dfv[..., None, None] * xi[:, None]
    out = LoopPoint(grid, vals[0], z[0])
    for e, dz in zip(vals[1:], z[1:]):
        out = out.mul(LoopPoint(grid, e, dz))
    return out


# ---------------------------------------------------------------------------
# paths in the loop group


@dataclass
class PathInLoopGroup:
    """A path [0, 1] -> loop group, sampled at the M parameter nodes `sgrid`.

    `g` holds the M loops as one LoopPoint and `vel` their exact
    left-trivialised s-velocities as one GridFun, both with the path
    nodes as the leading axis: shape (M, N, n, n), theta is axis -3.
    """

    sgrid: np.ndarray
    g: LoopPoint
    vel: GridFun

    def __post_init__(self):
        want = (self.sgrid.size,)
        if self.g.vals.shape[:-3] != want or self.vel.vals.shape[:-3] != want:
            raise ValueError(f"path samples must stack {want[0]} path nodes in front, "
                             f"got {self.g.vals.shape} and {self.vel.vals.shape}")

    @property
    def m(self) -> int:
        return self.sgrid.size

    def mul(self, other: "PathInLoopGroup") -> "PathInLoopGroup":
        """Pointwise product path; velocities compose as Ad(h^(-1)) f' + h'."""
        return PathInLoopGroup(self.sgrid, self.g.mul(other.g),
                               conj_loop(other.g, self.vel) + other.vel)


def path_from_factors(grid: ThetaGrid, factors: Sequence[tuple],
                      npath: int) -> PathInLoopGroup:
    """Path s -> prod_j exp(sigma_j(s) X_j) with exact velocities.

    factors: sequence of (sigma, X) with sigma a scalar profile on [0, 1]
    vanishing at 0 and X a periodic GridFun algebra loop with its exact
    theta derivative (ValueError otherwise).  The path is the product of
    the single-factor paths exp(sigma_j(s) X_j), whose velocities are
    sigma_j'(s) X_j.  The velocities carry no theta derivative: no path
    integral reads one.  Every array carries the path nodes as a leading
    axis, so each factor costs one eigendecomposition whatever npath is.
    """
    sgrid = np.linspace(0.0, 1.0, npath)
    path = None
    for sigma, X in factors:
        if X.dvals is None:
            raise ValueError("a path factor needs its exact theta derivative (dvals)")
        sv, dsv = sigma.val_dval(sgrid)
        ev, ze = exp_dexp_right(X.vals, X.dvals, sv)
        dsv = np.asarray(dsv, dtype=float)[:, None, None, None]
        one = PathInLoopGroup(sgrid, LoopPoint(grid, ev, zvals=ze),
                              GridFun(grid, dsv * X.vals))
        path = one if path is None else path.mul(one)
    if path is None:
        raise ValueError("need at least one factor")
    return path
