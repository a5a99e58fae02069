"""Loops and paths in a compact group, sampled on a circle grid.

Two grid flavours appear.  Periodic grids carry N nodes theta_j = 2 pi j/N
with the node at 2 pi identified with 0; loops in the group and their
tangents live here, differentiation is trigonometric (FFT) and the
quadrature is the periodic trapezoid rule, both spectrally accurate for
smooth periodic data.  Closed grids carry N+1 nodes including both ends;
identity-based paths (which need not close up) live here, differentiation
falls back to 4th-order finite differences and quadrature to composite
Simpson.  Objects built from closed-form data carry exact derivative
payloads which take precedence over either numerical route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .liegroup import (
    adjoint,
    adjoint_inv,
    bracket,
    exp_alg,
    exp_dexp_right,
    group_inv,
    project_algebra,
)

# ---------------------------------------------------------------------------
# closed-form scalar profiles


@dataclass(frozen=True)
class Fn:
    """A scalar function of theta (or of a path parameter) with exact derivative."""

    val: Callable[[np.ndarray], np.ndarray]
    dval: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.val(t)

    @staticmethod
    def zero() -> "Fn":
        return Fn(lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                  lambda t: np.zeros_like(np.asarray(t, dtype=float)))

    @staticmethod
    def ramp(c: float = 1.0, period: float = 2.0 * np.pi) -> "Fn":
        """c * t / period: vanishes at 0, reaches c at the period end."""
        return Fn(lambda t, c=c: c * np.asarray(t, dtype=float) / period,
                  lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c / period))

    @staticmethod
    def scale(f: "Fn", c: float) -> "Fn":
        return Fn(lambda t: c * f.val(t), lambda t: c * f.dval(t))

    @staticmethod
    def add(*fs: "Fn") -> "Fn":
        return Fn(lambda t: sum(f.val(t) for f in fs),
                  lambda t: sum(f.dval(t) for f in fs))

    @staticmethod
    def based(f: "Fn", at: float = 0.0) -> "Fn":
        """f shifted by a constant so that the result vanishes at `at`."""
        c = float(f.val(np.asarray(at, dtype=float)))
        return Fn(lambda t: f.val(t) - c, f.dval)


@dataclass(frozen=True)
class TrigPoly:
    """Finite Fourier sum a0 + sum_m (ac[m] cos((m+1) t) + bs[m] sin((m+1) t))."""

    a0: float = 0.0
    ac: tuple = ()
    bs: tuple = ()

    def val(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.a0)
        for m, a in enumerate(self.ac, start=1):
            out = out + a * np.cos(m * t)
        for m, b in enumerate(self.bs, start=1):
            out = out + b * np.sin(m * t)
        return out

    def dval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for m, a in enumerate(self.ac, start=1):
            out = out - m * a * np.sin(m * t)
        for m, b in enumerate(self.bs, start=1):
            out = out + m * b * np.cos(m * t)
        return out

    def __call__(self, t):
        return self.val(t)

    def as_fn(self) -> Fn:
        return Fn(self.val, self.dval)


# ---------------------------------------------------------------------------
# grids, differentiation, quadrature


@dataclass(frozen=True)
class ThetaGrid:
    """Uniform grid on [0, 2 pi] with N subintervals."""

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError("grid size must be even and at least 8")

    @property
    def h(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def closed_nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n + 1) / self.n


def spectral_dtheta(vals: np.ndarray) -> np.ndarray:
    """FFT derivative along axis 0 of periodic samples.

    The Nyquist mode is dropped: its derivative is not representable on
    the grid, and for resolved data its coefficient is at roundoff.
    """
    n = vals.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    shape = (n,) + (1,) * (vals.ndim - 1)
    spec = np.fft.fft(vals, axis=0)
    return np.fft.ifft(1j * k.reshape(shape) * spec, axis=0)


_FD4_LEFT = np.array([[-25, 48, -36, 16, -3],
                      [-3, -10, 18, -6, 1]], dtype=float) / 12.0


def fd4_dtheta_closed(vals: np.ndarray, h: float) -> np.ndarray:
    """4th-order derivative on a closed grid, one-sided at the ends."""
    out = np.empty_like(vals)
    out[2:-2] = (-vals[4:] + 8 * vals[3:-1] - 8 * vals[1:-3] + vals[:-4]) / (12.0 * h)
    for r in range(2):
        out[r] = sum(c * vals[j] for j, c in enumerate(_FD4_LEFT[r])) / h
        out[-1 - r] = -sum(c * vals[-1 - j] for j, c in enumerate(_FD4_LEFT[r])) / h
    return out


def _dtheta(vals: np.ndarray, grid: ThetaGrid, closed: bool) -> np.ndarray:
    """Numerical theta derivative of node samples: 4th-order differences
    on a closed grid, spectral on a periodic one."""
    if closed:
        return fd4_dtheta_closed(vals, grid.h)
    return spectral_dtheta(vals)


def quad_s1(samples: np.ndarray) -> np.ndarray:
    """Periodic trapezoid rule over the N-node grid: (2 pi / N) * sum."""
    samples = np.asarray(samples)
    return samples.sum(axis=0) * (2.0 * np.pi / samples.shape[0])


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
    """Composite Simpson over a closed grid with spacing h."""
    samples = np.asarray(samples)
    w = _simpson_weights(samples.shape[0]) * h
    return np.tensordot(w, samples, axes=(0, 0))


def quad_unit(samples: np.ndarray) -> np.ndarray:
    """Composite Simpson over [0, 1] on equally spaced nodes."""
    samples = np.asarray(samples)
    return quad_closed(samples, 1.0 / (samples.shape[0] - 1))


# ---------------------------------------------------------------------------
# algebra-valued grid functions


@dataclass
class GridFun:
    """A matrix-valued function sampled on the theta grid.

    Tangent vectors to loop groups appear here in left-trivialised form:
    the samples are algebra elements.  `dvals` is an optional exact theta
    derivative used in preference to numerical differentiation.
    """

    grid: ThetaGrid
    vals: np.ndarray
    closed: bool = False
    dvals: Optional[np.ndarray] = None

    def __post_init__(self):
        want = self.grid.n + 1 if self.closed else self.grid.n
        if self.vals.shape[0] != want:
            raise ValueError(f"expected {want} nodes, got {self.vals.shape[0]}")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.closed_nodes if self.closed else self.grid.nodes

    def _like(self, vals, dvals=None) -> "GridFun":
        return GridFun(self.grid, vals, self.closed, dvals)

    def _check(self, other: "GridFun"):
        if self.grid.n != other.grid.n or self.closed != other.closed:
            raise ValueError("grid mismatch")

    def __add__(self, other: "GridFun") -> "GridFun":
        self._check(other)
        d = None
        if self.dvals is not None and other.dvals is not None:
            d = self.dvals + other.dvals
        return self._like(self.vals + other.vals, d)

    def __sub__(self, other: "GridFun") -> "GridFun":
        return self + (-other)

    def __neg__(self) -> "GridFun":
        return self._like(-self.vals, None if self.dvals is None else -self.dvals)

    def __mul__(self, c) -> "GridFun":
        c = complex(c)
        return self._like(c * self.vals, None if self.dvals is None else c * self.dvals)

    __rmul__ = __mul__

    def scale_profile(self, c: np.ndarray, dc: Optional[np.ndarray] = None) -> "GridFun":
        """Multiply node-wise by a scalar profile c(theta); product rule for dvals."""
        cv = np.asarray(c)[:, None, None]
        d = None
        if self.dvals is not None and dc is not None:
            d = np.asarray(dc)[:, None, None] * self.vals + cv * self.dvals
        return self._like(cv * self.vals, d)

    def dtheta(self) -> "GridFun":
        if self.dvals is not None:
            return self._like(self.dvals)
        return self._like(_dtheta(self.vals, self.grid, self.closed))

    def interp(self, theta: float) -> np.ndarray:
        """Trigonometric interpolation at an off-grid angle (periodic only)."""
        if self.closed:
            raise ValueError("trigonometric interpolation needs periodic data")
        n = self.grid.n
        spec = np.fft.fft(self.vals, axis=0) / n
        k = np.fft.fftfreq(n, d=1.0 / n)
        phase = np.exp(1j * k * theta)
        # split the Nyquist coefficient between +n/2 and -n/2
        phase[n // 2] = np.cos(n // 2 * theta)
        return np.tensordot(phase, spec, axes=(0, 0))

    @staticmethod
    def from_profiles(grid: ThetaGrid, terms: Sequence[tuple], closed: bool = False) -> "GridFun":
        """sum_j f_j(theta) X_j for closed-form profiles f_j and fixed X_j."""
        t = grid.closed_nodes if closed else grid.nodes
        n = terms[0][1].shape[-1]
        vals = np.zeros((t.size, n, n), dtype=complex)
        dvals = np.zeros_like(vals)
        for f, X in terms:
            vals += np.asarray(f.val(t))[:, None, None] * X
            dvals += np.asarray(f.dval(t))[:, None, None] * X
        return GridFun(grid, vals, closed, dvals)

    @staticmethod
    def zero(grid: ThetaGrid, n: int, closed: bool = False) -> "GridFun":
        m = grid.n + 1 if closed else grid.n
        z = np.zeros((m, n, n), dtype=complex)
        return GridFun(grid, z, closed, z.copy())


def pair_samples(X: GridFun, Y: GridFun) -> np.ndarray:
    """Node-wise invariant pairing <X, Y> = -tr(X Y); shape (nodes,)."""
    X._check(Y)
    return -np.einsum("tij,tji->t", X.vals, Y.vals)


def quad_grid(samples: np.ndarray, template: GridFun) -> complex:
    """Integral over theta of node samples, using the rule matching the
    grid flavour of `template`."""
    if template.closed:
        return complex(quad_closed(samples, template.grid.h))
    return complex(quad_s1(samples))


def quad_pair(X: GridFun, Y: GridFun) -> complex:
    """Integral over theta of <X, Y>, using the rule matching the grid flavour."""
    return quad_grid(pair_samples(X, Y), X)


# ---------------------------------------------------------------------------
# group-valued loops and identity-based paths


@dataclass
class LoopPoint:
    """A group-valued function of theta.

    Periodic instances are loops; closed instances with vals[0] = identity
    are the points of the path fibration.  `zvals` caches the exact right
    logarithmic derivative Z(g) = (d_theta g) g^(-1) when it is known in
    closed form; group multiplication and flows propagate it.
    """

    grid: ThetaGrid
    vals: np.ndarray
    closed: bool = False
    zvals: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.vals.shape[-1]

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.closed_nodes if self.closed else self.grid.nodes

    def _check(self, other: "LoopPoint"):
        if self.grid.n != other.grid.n or self.closed != other.closed:
            raise ValueError("grid mismatch")

    def inv(self) -> "LoopPoint":
        zi = None if self.zvals is None else -adjoint_inv(self.vals, self.zvals)
        return LoopPoint(self.grid, group_inv(self.vals), self.closed, zi)

    def mul(self, other: "LoopPoint") -> "LoopPoint":
        """Pointwise product; Z(gh) = Z(g) + Ad(g) Z(h)."""
        self._check(other)
        z = None
        if self.zvals is not None and other.zvals is not None:
            z = self.zvals + adjoint(self.vals, other.zvals)
        return LoopPoint(self.grid, self.vals @ other.vals, self.closed, z)

    def z(self) -> GridFun:
        """Right logarithmic derivative Z(g) = (d_theta g) g^(-1)."""
        if self.zvals is not None:
            return GridFun(self.grid, self.zvals, self.closed)
        dv = _dtheta(self.vals, self.grid, self.closed)
        return GridFun(self.grid, project_algebra(dv @ group_inv(self.vals)), self.closed)

    def log_derivative(self) -> GridFun:
        """Left logarithmic derivative g^(-1) d_theta g = Ad(g^(-1)) Z(g)."""
        zz = self.z()
        return GridFun(self.grid, adjoint_inv(self.vals, zz.vals), self.closed)

    def flow(self, X: GridFun, t: float) -> "LoopPoint":
        """The point g exp(t X), with the Z payload carried along exactly."""
        if X.closed != self.closed or X.grid.n != self.grid.n:
            raise ValueError("grid mismatch")
        if self.zvals is None or X.dvals is None:
            return LoopPoint(self.grid, self.vals @ exp_alg(X.vals, t), self.closed)
        e, d = exp_dexp_right(X.vals, X.dvals, t)
        return LoopPoint(self.grid, self.vals @ e, self.closed,
                         self.zvals + adjoint(self.vals, d))

    def endpoint(self) -> np.ndarray:
        if not self.closed:
            raise ValueError("endpoint is defined for closed-grid paths")
        return self.vals[-1]

    @staticmethod
    def identity(grid: ThetaGrid, n: int, closed: bool = False) -> "LoopPoint":
        m = grid.n + 1 if closed else grid.n
        vals = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
        return LoopPoint(grid, vals, closed, np.zeros_like(vals))

    @staticmethod
    def constant(grid: ThetaGrid, k: np.ndarray, closed: bool = False) -> "LoopPoint":
        m = grid.n + 1 if closed else grid.n
        vals = np.broadcast_to(np.asarray(k, dtype=complex), (m, k.shape[0], k.shape[0])).copy()
        return LoopPoint(grid, vals, closed, np.zeros_like(vals))


def conj_loop(h: LoopPoint, X: GridFun) -> GridFun:
    """Ad(h^(-1)) X node-wise, with the exact derivative when known.

    d_theta Ad(h^(-1)) X = Ad(h^(-1)) (d_theta X + [X, Z(h)]).
    """
    vals, d = _conj(h.vals, h.zvals, X.vals, X.dvals)
    return GridFun(X.grid, vals, X.closed, d)


def _conj(h, zh, x, dx) -> tuple:
    """Ad(h^(-1)) x and its theta derivative (None unless zh and dx are
    known) on node arrays with any leading axes."""
    d = None if zh is None or dx is None else adjoint_inv(h, dx + bracket(x, zh))
    return adjoint_inv(h, x), d


# ---------------------------------------------------------------------------
# closed-form loops


def product_loop(grid: ThetaGrid, factors: Sequence[tuple], closed: bool = False) -> LoopPoint:
    """Product of single-generator loops exp(f_j xi_j), exact Z payload.

    Each factor is (profile, xi) where profile provides val/dval.
    """
    out = None
    t = grid.closed_nodes if closed else grid.nodes
    for f, xi in factors:
        vals = exp_alg(xi, f.val(t))
        dfv = np.asarray(f.dval(t))
        z = np.ascontiguousarray(dfv[:, None, None] * np.broadcast_to(xi, vals.shape))
        lp = LoopPoint(grid, vals, closed, z)
        out = lp if out is None else out.mul(lp)
    if out is None:
        raise ValueError("need at least one factor")
    return out


# ---------------------------------------------------------------------------
# paths in the loop group


@dataclass
class PathInLoopGroup:
    """A path [0, 1] -> loop group, sampled at M parameter nodes.

    `vels` optionally carries exact left-trivialised velocities; the
    `velocity` method is the generic 4th-order finite-difference route.
    """

    sgrid: np.ndarray
    loops: list
    vels: Optional[list] = None

    @property
    def m(self) -> int:
        return len(self.loops)

    def endpoint(self) -> LoopPoint:
        return self.loops[-1]

    def velocity(self, i: int) -> GridFun:
        """Left-trivialised s-derivative at node i (4th-order differences)."""
        ds = self.sgrid[1] - self.sgrid[0]
        m = self.m
        if m < 5:
            raise ValueError("need at least 5 path nodes")
        # the 5-node window around i, shifted inwards at the ends
        lo = min(max(i - 2, 0), m - 5)
        window = np.stack([lp.vals for lp in self.loops[lo:lo + 5]])
        raw = fd4_dtheta_closed(window, ds)[i - lo]
        g = self.loops[i]
        ltriv = project_algebra(group_inv(g.vals) @ raw)
        return GridFun(g.grid, ltriv, g.closed)

    def velocity_exact(self, i: int) -> GridFun:
        if self.vels is None:
            return self.velocity(i)
        return self.vels[i]

    def mul(self, other: "PathInLoopGroup") -> "PathInLoopGroup":
        """Pointwise product path; velocities compose as Ad(h^(-1)) f' + h'."""
        loops = [f.mul(g) for f, g in zip(self.loops, other.loops)]
        vels = None
        if self.vels is not None and other.vels is not None:
            vels = [conj_loop(h, vf) + vg
                    for h, vf, vg in zip(other.loops, self.vels, other.vels)]
        return PathInLoopGroup(self.sgrid, loops, vels)


def path_from_factors(grid: ThetaGrid, factors: Sequence[tuple],
                      npath: int) -> PathInLoopGroup:
    """Path s -> prod_j exp(sigma_j(s) X_j) with exact velocities.

    factors: sequence of (sigma, X) with sigma a scalar profile on [0, 1]
    vanishing at 0 and X a periodic GridFun algebra loop.  The
    left-trivialised velocity is
    sum_j Ad((prod_{l>j} E_l)^(-1))(sigma_j'(s) X_j), accumulated factor
    by factor as v <- Ad(E_j^(-1)) v + sigma_j'(s) X_j.  Every array
    carries the path nodes as a leading axis, so each factor costs one
    eigendecomposition whatever npath is.
    """
    sgrid = np.linspace(0.0, 1.0, npath)
    g = vel = dvel = None
    for sigma, X in factors:
        sv = sigma.val(sgrid)
        dsv = np.asarray(sigma.dval(sgrid), dtype=float)[:, None, None, None]
        if X.dvals is None:
            e, dv = LoopPoint(grid, exp_alg(X.vals, sv)), None
        else:
            ev, ze = exp_dexp_right(X.vals, X.dvals, sv)
            e, dv = LoopPoint(grid, ev, zvals=ze), dsv * X.dvals
        v = dsv * X.vals
        if g is None:
            g, vel, dvel = e, v, dv
            continue
        cv, cd = _conj(e.vals, e.zvals, vel, dvel)
        g, vel = g.mul(e), cv + v
        dvel = None if cd is None or dv is None else cd + dv
    loops = [LoopPoint(grid, g.vals[i], zvals=None if g.zvals is None else g.zvals[i])
             for i in range(npath)]
    vels = [GridFun(grid, vel[i], dvals=None if dvel is None else dvel[i])
            for i in range(npath)]
    return PathInLoopGroup(sgrid, loops, vels)
