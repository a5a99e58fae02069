"""Central-extension data for loop groups.

The two basic objects are a left-invariant 2-form R on the loop group
and a 1-form alpha on its square; together they present the extension.
From them: the path-group cocycle c(f,g), disk holonomy H, the
path-space connection mu_hat, and the pairing behind reduced splittings.

The argument slot of alpha (which factor's velocity it eats) is pinned
to the first factor; verified once by the self-test of d(alpha) =
delta(R) on a small fixture at first use, and a ConventionError aborts
everything if the pinned slot fails it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .forms import Form, delta_nerve, ext_d
from .liegroup import SU2, exp_dexp_right
from .loops import (Fn, GridFun, LoopPoint, PathInLoopGroup, ThetaGrid,
                    conj_loop, pair_samples, quad_grid, quad_unit)


class ConventionError(RuntimeError):
    """The pinned argument slot of alpha fails d(alpha) = delta(R)."""


def eval_R(g: LoopPoint, X: GridFun, Y: GridFun) -> complex:
    """(i/4 pi) int (<X, Y'> - <Y, X'>) dtheta; independent of g."""
    if X.grid.n != g.grid.n or Y.grid.n != g.grid.n:
        raise ValueError("grid mismatch")
    s = pair_samples(X, Y.dtheta()) - pair_samples(Y, X.dtheta())
    return 0.25j / np.pi * quad_grid(s, X)


# ---------------------------------------------------------------------------
# alpha and its slot self-test


ALPHA_SLOT = "first"


def _slot_residual() -> float:
    """|d(alpha) - delta(R)| on a small fixture nerve pair."""
    from . import sampling

    grid = ThetaGrid(24)
    rng = sampling.make_rng(1905)
    pt = tuple(sampling.random_loop(rng, grid, SU2) for _ in range(2))
    vecs = [tuple(sampling.random_loop_tangent(rng, grid, SU2) for _ in range(2))
            for _ in range(2)]
    alpha_form = Form(1, lambda q, V: gomi_cocycle_Z(q[1], V[0]))
    r_nerve = Form(2, lambda q, V, W: eval_R(q[0], V[0], W[0]))
    lhs = ext_d(alpha_form, pt, vecs)
    rhs = delta_nerve(r_nerve)(pt, *vecs)
    return abs(lhs - rhs)


@functools.cache
def alpha_slot() -> str:
    """The argument slot alpha consumes: pinned; verified once by the
    self-test, which raises ConventionError when the slot fails it."""
    res = _slot_residual()
    if res > 1e-6:
        raise ConventionError(
            f"alpha slot {ALPHA_SLOT!r} fails d(alpha) = delta(R): residual {res}")
    return ALPHA_SLOT


def eval_alpha(g: LoopPoint, h: LoopPoint, Xg: GridFun, Xh: GridFun) -> complex:
    """(i/2 pi) int <Xg, Z(h)> dtheta: the velocity of the first slot
    against Z of the second element.

    The slot is pinned; verified once by the self-test (alpha_slot).
    """
    if g.grid.n != h.grid.n or Xg.grid.n != g.grid.n or Xh.grid.n != g.grid.n:
        raise ValueError("grid mismatch")
    alpha_slot()
    return gomi_cocycle_Z(h, Xg)


# ---------------------------------------------------------------------------
# path-group cocycle


def cocycle_c(f: PathInLoopGroup, g: PathInLoopGroup) -> complex:
    """exp of the s-integral of alpha along the pair path; unit modulus."""
    if f.m != g.m:
        raise ValueError("path shape mismatch")
    vals = np.array([
        eval_alpha(f.loops[i], g.loops[i], f.velocity_exact(i), g.velocity_exact(i))
        for i in range(f.m)])
    return complex(np.exp(quad_unit(vals)))


# ---------------------------------------------------------------------------
# disk holonomy


@dataclass
class DiskLoop:
    """Boundary loop s -> exp(xi(s)) with xi(s) = sum_j sigma_j(s) X_j.

    Profiles vanish at s = 0 and 1, so the boundary is a loop at the
    identity; the disk filling is (r, s) -> exp(r xi(s)).
    """

    terms: list  # of (Fn, GridFun)

    def xi(self, s: float) -> GridFun:
        out = None
        for sigma, X in self.terms:
            t = X * float(sigma.val(np.asarray(s)))
            out = t if out is None else out + t
        return out

    def dxi(self, s: float) -> GridFun:
        out = None
        for sigma, X in self.terms:
            t = X * float(sigma.dval(np.asarray(s)))
            out = t if out is None else out + t
        return out

    def reversed(self) -> "DiskLoop":
        terms = []
        for sigma, X in self.terms:
            rev = Fn(lambda s, f=sigma: f.val(1.0 - np.asarray(s)),
                     lambda s, f=sigma: -f.dval(1.0 - np.asarray(s)))
            terms.append((rev, X))
        return DiskLoop(terms)

    def scaled(self, lam: float) -> "DiskLoop":
        return DiskLoop([(Fn.scale(sigma, lam), X) for sigma, X in self.terms])


def holonomy_H(disk: DiskLoop, nr: int = 33, ns: int = 33) -> complex:
    """exp of the integral of R over the exponential disk filling.

    The left-trivialised radial partial of exp(r xi(s)) is xi(s) exactly
    (single direction commutes with itself); the s-partial is
    dexp_left(r xi(s), r xi'(s)) = dexp_right(-r xi(s), r xi'(s)), in
    closed form from one eigendecomposition of xi(s) for all radii.
    """
    rs = np.linspace(0.0, 1.0, nr)
    ss = np.linspace(0.0, 1.0, ns)
    grid = disk.terms[0][1].grid
    shape = disk.terms[0][1].vals.shape
    pt = LoopPoint(grid, np.broadcast_to(np.eye(shape[-1]), shape))
    rows = np.empty((nr, ns), dtype=complex)
    for j, s in enumerate(ss):
        xi = disk.xi(float(s))
        _, ds = exp_dexp_right(-xi.vals, disk.dxi(float(s)).vals, rs)
        for i in range(nr):
            rows[i, j] = eval_R(pt, xi, GridFun(grid, ds[i]))
    inner = np.array([quad_unit(rows[:, j]) for j in range(ns)])
    return complex(np.exp(quad_unit(inner)))


# ---------------------------------------------------------------------------
# path-space connection


def mu_hat(f: PathInLoopGroup, X: list) -> complex:
    """s-quadrature of R(f(s))(f'(s), X(s)) along the path."""
    if len(X) != f.m:
        raise ValueError("shape mismatch: need one vector per path node")
    vals = np.array([eval_R(f.loops[i], f.velocity_exact(i), X[i])
                     for i in range(f.m)])
    return complex(quad_unit(vals))


# ---------------------------------------------------------------------------
# splitting cocycle and reduced splittings


def gomi_cocycle_Z(g: LoopPoint, X: GridFun) -> complex:
    """(i/2 pi) int <X, Z(g)> dtheta."""
    if g.grid.n != X.grid.n:
        raise ValueError("grid mismatch")
    return 0.5j / np.pi * quad_grid(pair_samples(X, g.z()), X)


def splitting_ell(scenario, p, X: GridFun) -> complex:
    """ell(p, X) = (i/2 pi) int <Higgs(p), X> dtheta."""
    phi = scenario.higgs(p)
    return 0.5j / np.pi * quad_grid(pair_samples(phi, X), X)


def reduced_splitting_check(scenario, p, g: LoopPoint, X: GridFun) -> float:
    """Residual of the defining identity of a reduced splitting.

    ell(p, X) should equal ell(p g, ad(g^-1) X) plus the cocycle value
    at the inverse element, which is minus gomi_cocycle_Z(g, X); the
    cancellation is pointwise in theta, so the residual is roundoff.
    """
    l1 = splitting_ell(scenario, p, X)
    l2 = splitting_ell(scenario, scenario.act(p, g), conj_loop(g, X))
    return abs(l1 - l2 + gomi_cocycle_Z(g, X))


def extension_forms() -> tuple:
    """The pair (alpha, R) as Form objects over nerve tuples."""
    alpha = Form(1, lambda q, V: eval_alpha(q[0], q[1], V[0], V[1]), name="alpha")
    r2 = Form(2, lambda q, V, W: eval_R(q[0], V[0], W[0]), name="R")
    return alpha, r2
