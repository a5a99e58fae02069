"""Central-extension data for loop groups.

The two basic objects are a left-invariant 2-form R on the loop group
and a 1-form alpha on its square; together they present the extension.
From them: the path-group cocycle c(f,g) and the pairing behind
reduced splittings.  Loops and tangents may be stacked along leading
axes (the nodes of a path); each form then returns one value per
stacked node, so a path integral is one evaluation and one quadrature.

The argument slot of alpha (which factor's velocity it eats) is pinned
to the first factor.  A wrong slot breaks d(alpha) = delta(R), and so
fails the rows central-extension/pair-form-coboundary,
central-extension/cochain-closed, central-extension/path-cocycle-identity
and trivial-bundle/transition-coboundary.
"""

from __future__ import annotations

import numpy as np

from .forms import Form
from .loops import (GridFun, LoopPoint, PathInLoopGroup, conj_loop,
                    pair_samples, quad_unit)


def eval_R(g: LoopPoint, X: GridFun, Y: GridFun) -> np.ndarray:
    """(i/4 pi) int (<X, Y'> - <Y, X'>) dtheta; independent of g."""
    g._check(X)
    g._check(Y)
    s = pair_samples(X, Y.dtheta()) - pair_samples(Y, X.dtheta())
    return 0.25j / np.pi * X.grid.quad(s)


# ---------------------------------------------------------------------------
# alpha


ALPHA_SLOT = "first"


def alpha_slot() -> str:
    """The argument slot alpha consumes: the first factor's velocity."""
    return ALPHA_SLOT


def eval_alpha(g: LoopPoint, h: LoopPoint, Xg: GridFun, Xh: GridFun) -> np.ndarray:
    """(i/2 pi) int <Xg, Z(h)> dtheta: the velocity of the first slot
    against Z of the second element."""
    for other in (h, Xg, Xh):
        g._check(other)
    return gomi_cocycle_Z(h, Xg)


# ---------------------------------------------------------------------------
# path-group cocycle


def cocycle_c(f: PathInLoopGroup, g: PathInLoopGroup) -> complex:
    """exp of the s-integral of alpha along the pair path; unit modulus."""
    if f.m != g.m:
        raise ValueError("path shape mismatch")
    return complex(np.exp(quad_unit(eval_alpha(f.g, g.g, f.vel, g.vel))))


# ---------------------------------------------------------------------------
# splitting cocycle and reduced splittings


def gomi_cocycle_Z(g: LoopPoint, X: GridFun) -> np.ndarray:
    """(i/2 pi) int <X, Z(g)> dtheta."""
    g._check(X)
    return 0.5j / np.pi * X.grid.quad(pair_samples(X, g.z()))


def splitting_ell(scenario, p, X: GridFun) -> complex:
    """ell(p, X) = (i/2 pi) int <Higgs(p), X> dtheta."""
    phi = scenario.higgs(p)
    return 0.5j / np.pi * X.grid.quad(pair_samples(phi, X))


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
