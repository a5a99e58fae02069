"""Differential forms over the supported point types.

Points and tangents come in a handful of kinds: loop-group points with
left-trivialised algebra-loop tangents, flat chart points with plain
vector tangents, tuples of either (products, fibre products, nerve
levels), and scenario-specific composites.  Every non-tuple point type
moves itself along a tangent through its own `flow(v, t)` method, and a
composite tangent type brackets itself through `bracket(w)`.

Tangent objects double as their canonical extension fields: a chart
tangent extends to the constant field, a left-trivialised loop tangent
to the left-invariant field, tuples componentwise.  Re-evaluating a form
at a flowed point with the same tangent objects therefore evaluates it
on the canonical extension, which is what the finite-difference exterior
derivative below assumes.  Brackets of those extensions are zero on
chart parts and the pointwise algebra bracket on loop parts.

The step axes.  `flow(v, t)` takes an array of steps t, and the flowed
point is the stack of the points at every step: the axes of t lead,
the point's own leading axes follow, and theta stays axis -3 of every
matrix-valued sample.  Everything evaluated at a point broadcasts over
its leading axes, so a form at a flowed point returns one value per
step, stacked in front.  `directional` makes one such evaluation per
difference stencil; an exterior derivative of an exterior derivative
flows an already stacked point and gets the axes (inner, outer, ...).

The tangent stacks.  A tangent may carry leading stack axes as well
(the caloron checks draw their k tangents as one): the point broadcasts
against them, right-aligned, so a flow along a stack of k tangents
gives the axes (steps, k, ...), and a scenario's connection, curvature
and nabla Phi at a stack of tangents return the k values stacked in
front, each rounded as it rounds alone.

The pairing.  `pair_stacks` is the one wedge of vector-valued forms:
each slot's values come once, stacked over its increasing blocks of
arguments, and one call of the multilinear map on the stacks gathered
by `shuffle_index` gives every shuffle's term.  The forms must be
alternating: the sum over the shuffles equals the sum over all d!
permutations divided by the product of the degrees' factorials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liegroup import bracket as alg_bracket
from .loops import GridFun, conj_loop, step_axes

FD_STEP = 1e-4  # the difference step of a scenario or derivative given none

# ---------------------------------------------------------------------------
# points, tangents, flows, brackets


@dataclass(frozen=True)
class ChartPt:
    """A point of a flat parameter chart; tangents are plain real vectors."""

    x: np.ndarray

    def flow(self, v: np.ndarray, t) -> "ChartPt":
        """x + t v at every step of t; t's axes lead those of x and of a
        stack of vectors v, which broadcast."""
        v = np.asarray(v)
        return ChartPt(self.x + step_axes(t, max(self.x.ndim, v.ndim)) * v)


def flow(pt, v, t):
    """Move pt along the canonical extension of tangent v for every step
    of t (a number or an array); t's axes lead the point's own."""
    if isinstance(pt, tuple):
        return tuple(flow(p, w, t) for p, w in zip(pt, v))
    if not hasattr(pt, "flow"):
        raise TypeError(f"no flow rule for {type(pt).__name__}")
    return pt.flow(v, t)


def tangent_bracket(v, w):
    """Bracket of the canonical extensions of v and w (evaluated pointwise)."""
    if isinstance(v, tuple):
        return tuple(tangent_bracket(a, b) for a, b in zip(v, w))
    if isinstance(v, GridFun):
        d = None
        if v.dvals is not None and w.dvals is not None:
            d = alg_bracket(v.dvals, w.vals) + alg_bracket(v.vals, w.dvals)
        return GridFun(v.grid, alg_bracket(v.vals, w.vals), d)
    if isinstance(v, np.ndarray):
        return np.zeros_like(v)
    if not hasattr(v, "bracket"):
        raise TypeError(f"no bracket rule for {type(v).__name__}")
    return v.bracket(w)


# ---------------------------------------------------------------------------
# forms


@dataclass
class Form:
    """A k-form: an evaluator (point, k tangents) -> value.

    Values are complex scalars for honest differential forms, but the
    same container is used for algebra-valued forms whose values are
    GridFun loops; everything downstream only needs linear arithmetic.
    """

    degree: int
    ev: Callable
    name: str = ""

    def __call__(self, pt, *vecs):
        if len(vecs) != self.degree:
            raise ValueError(f"{self.name or 'form'} expects {self.degree} tangents")
        return self.ev(pt, *vecs)


def _sign(perm) -> int:
    """+1 or -1 by the inversion count of perm."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def signed_permutations(d: int) -> list:
    """(perm, sign) for every permutation of range(d), in
    itertools.permutations order; sign is +1 or -1 by inversion count."""
    return [(perm, _sign(perm)) for perm in itertools.permutations(range(d))]


def _signed_sum(terms):
    """The sum, in order, of the values of (sign, value) terms: a value of
    sign -1 enters as value * -1.0, one of sign +1 as it is.  Values
    need only addition and scalar multiplication."""
    total = None
    for sign, val in terms:
        val = val * -1.0 if sign < 0 else val
        total = val if total is None else total + val
    return total


def shuffle_index(degs) -> tuple:
    """(index, signs) of the shuffles of sum(degs) arguments into
    increasing blocks of the given sizes, in itertools.permutations order
    of their blocks written out one after the other: index[r][s] is the
    position of block r of shuffle s among the increasing blocks of its
    size, in itertools.combinations order of range(sum(degs)), and
    signs[s] the shuffle's sign.

    The shuffles grow block by block: block r is each combination of the
    arguments the blocks before it left, in combinations order, and the
    arguments it leaves are the complements, which come in the reverse
    order; the last block takes all that is left.  A block at positions
    pick among the arguments it chose from passes sum(pick) - k(k-1)/2
    of the arguments it leaves, and the sign is -1 to the number of
    passes over all blocks."""
    d = sum(degs)
    at = [{c: n for n, c in enumerate(itertools.combinations(range(d), k))} for k in degs]
    # per shuffle: the positions of its blocks so far, the arguments
    # left, and sum(pick) over its blocks so far
    grown = [((), tuple(range(d)), 0)]
    for k, table in zip(degs[:-1], at):
        grown = [(row + (table[block],), left, picked + sum(pick))
                 for row, rest, picked in grown
                 for block, left, pick in zip(
                     itertools.combinations(rest, k),
                     reversed(list(itertools.combinations(rest, len(rest) - k))),
                     itertools.combinations(range(len(rest)), k))]
    rows = [row + (at[-1][rest],) for row, rest, _ in grown] if degs else [()]
    shift = sum(k * (k - 1) // 2 for k in degs[:-1])
    return ([np.array(col) for col in zip(*rows)],
            tuple([-1 if (picked - shift) % 2 else 1 for _, _, picked in grown]))


def pair_stacks(p: Callable, stacks, index):
    """The wedge of vector-valued forms through a multilinear map p.

    stacks[r] holds form r's values on every increasing block of its
    degree k_r, in itertools.combinations order, stack axis leading, and
    index is `shuffle_index` of the degrees.  The value is the signed sum
    over the shuffles, in itertools.permutations order, of
    p(w_1(X..), ..., w_r(X..)): p is called once, on the stacks gathered
    by index, keeps the shuffle axis in front, and its terms are added in
    shuffle order.  On alternating forms this is the signed sum over all
    d! permutations divided by prod(k_r!)."""
    at, signs = index
    return _signed_sum(zip(signs, p(*(s[i] for s, i in zip(stacks, at)))))


def directional(fun: Callable, h: float):
    """Derivative of t -> fun(t) at 0: the central differences at h and
    h/2 with one Richardson level, exact on quartics.

    fun is called once, with the step array [h, -h, h/2, -h/2], and
    returns its values stacked in front: the step axis leads, whatever
    leading axes the value has follow.  The differences are taken from
    slices of that axis, which need only support subtraction and scalar
    multiplication."""
    step = 0.5 * h
    vals = fun(np.array([h, -h, step, -step]))
    d1 = (vals[0] - vals[1]) * (0.5 / h)
    d2 = (vals[2] - vals[3]) * (0.5 / step)
    return d2 * (4.0 / 3.0) - d1 * (1.0 / 3.0)


def ext_d(form: Form, pt, vecs, h: float = FD_STEP):
    """Exterior derivative of `form` at pt on len = degree+1 tangents.

    Directional terms are `directional` along the canonical extension
    flows, one evaluation of the form at the point flowed by the whole
    stencil per tangent; bracket terms are exact.  Values must
    support addition and scalar multiplication (complex numbers, arrays
    and GridFun all do), and the form must broadcast over the leading
    axes of a stacked point.
    """
    k1 = len(vecs)
    if k1 != form.degree + 1:
        raise ValueError("ext_d needs degree+1 tangents")

    def terms():
        for i, v in enumerate(vecs):
            rest = vecs[:i] + vecs[i + 1 :]
            yield (-1) ** i, directional(lambda t: form(flow(pt, v, t), *rest), h)
        for i, j in itertools.combinations(range(k1), 2):
            rest = tuple(vecs[m] for m in range(k1) if m not in (i, j))
            yield (-1) ** (i + j), form(pt, tangent_bracket(vecs[i], vecs[j]), *rest)

    return _signed_sum(terms())


def ext_d_form(form: Form, h: float = FD_STEP) -> Form:
    """The exterior derivative as a Form (for nesting and delta-compatibility)."""
    return Form(form.degree + 1,
                lambda pt, *vecs: ext_d(form, pt, vecs, h),
                name=f"d({form.name})" if form.name else "")


# ---------------------------------------------------------------------------
# simplicial alternating sums
#
# Forms at simplicial level p evaluate on length-p tuples of points with
# tuple tangents, including p = 1.


def _drop(tpl: tuple, i: int) -> tuple:
    return tpl[:i] + tpl[i + 1 :]


def delta_fibre(form: Form) -> Form:
    """Alternating sum of omission pullbacks on fibre products.

    Takes a form on p-tuples to a form on (p+1)-tuples:
    sum_{i=1..p+1} (-1)^(i-1) (omit slot i)^*.  Tangents to a fibre
    product must share their base component slot by slot; omission just
    drops a slot from every tuple.
    """

    def ev(pt, *vecs):
        return _signed_sum(((-1) ** i, form(_drop(pt, i), *(_drop(v, i) for v in vecs)))
                           for i in range(len(pt)))

    return Form(form.degree, ev, name=f"delta({form.name})" if form.name else "")


def _nerve_face(pt: tuple, vecs, j: int):
    """Face j of the group nerve: drop first, merge adjacent, drop last.

    Points are tuples of loop-group elements; under the merge
    (g, h) -> gh a pair of left-trivialised tangents pushes to
    Ad(h^(-1)) X_g + X_h.
    """
    p1 = len(pt)
    if j == 0:
        return pt[1:], [v[1:] for v in vecs]
    if j == p1:
        return pt[:-1], [v[:-1] for v in vecs]
    a, b = j - 1, j
    newpt = pt[:a] + (pt[a].mul(pt[b]),) + pt[b + 1 :]
    newvecs = []
    for v in vecs:
        merged = conj_loop(pt[b], v[a]) + v[b]
        newvecs.append(v[:a] + (merged,) + v[b + 1 :])
    return newpt, newvecs


def delta_nerve(form: Form) -> Form:
    """Alternating sum sum_{j=0..p+1} (-1)^j (face j)^* on the group nerve."""

    def ev(pt, *vecs):
        faces = (_nerve_face(pt, vecs, j) for j in range(len(pt) + 1))
        return _signed_sum(((-1) ** j, form(fpt, *fvecs))
                           for j, (fpt, fvecs) in enumerate(faces))

    return Form(form.degree, ev, name=f"delta_n({form.name})" if form.name else "")
