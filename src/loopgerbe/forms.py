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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .liegroup import bracket as alg_bracket
from .loops import GridFun, conj_loop

# ---------------------------------------------------------------------------
# points, tangents, flows, brackets


@dataclass(frozen=True)
class ChartPt:
    """A point of a flat parameter chart; tangents are plain real vectors."""

    x: np.ndarray

    def flow(self, v: np.ndarray, t: float) -> "ChartPt":
        return ChartPt(self.x + t * v)


def flow(pt, v, t: float):
    """Move pt for time t along the canonical extension of tangent v."""
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
        return GridFun(v.grid, alg_bracket(v.vals, w.vals), v.closed, d)
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


def signed_permutations(d: int) -> list:
    """(perm, sign) for every permutation of range(d), in
    itertools.permutations order; sign is +1 or -1 by inversion count."""
    out = []
    for perm in itertools.permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        out.append((perm, sign))
    return out


def pair_forms(p: Callable, forms, name: str = "") -> Form:
    """Combine vector-valued forms through a multilinear map p.

    The result has degree d = sum(degrees) and is the signed sum over
    all d! permutations of the arguments, with no 1/d! factor:

        (X_1 .. X_d) -> sum_perm sign(perm) p(w_1(X..), ..., w_k(X..)).

    For a collection of 1-forms and antisymmetric p this is d! times the
    pointwise application.

    Within one evaluation each component form is evaluated once per
    distinct ordered tuple of argument indices and the value reused
    across permutations, so a (2,2) pairing of one form with itself
    costs 12 component evaluations rather than 48.  The terms are
    summed in the same order as without the reuse.
    """
    degs = [f.degree for f in forms]
    d = sum(degs)
    perms = signed_permutations(d)

    def ev(pt, *vecs):
        seen = {}
        total = None
        for perm, sign in perms:
            args = []
            pos = 0
            for f, k in zip(forms, degs):
                idx = perm[pos:pos + k]
                key = (id(f), idx)
                if key not in seen:
                    seen[key] = f(pt, *(vecs[i] for i in idx))
                args.append(seen[key])
                pos += k
            term = p(*args)
            term = term * sign if sign < 0 else term
            total = term if total is None else total + term
        return total

    return Form(d, ev, name)


def wedge_pair(p: Callable, forms, name: str = "") -> Form:
    """Shuffle-normalised pairing: pair_forms divided by prod(degree_i!).

    Agrees with pair_forms on collections of 1-forms; for alternating
    higher-degree inputs it is the usual wedge of vector-valued forms,
    which is the normalisation the curving and Pontrjagin formulas use.
    """
    base = pair_forms(p, forms, name)
    scale = 1.0
    for f in forms:
        scale *= math.factorial(f.degree)
    inv = 1.0 / scale

    def ev(pt, *vecs):
        return base.ev(pt, *vecs) * inv

    return Form(base.degree, ev, name)


def directional(fun: Callable, h: float, richardson: bool = True):
    """Central-difference derivative of t -> fun(t) at 0, optional one
    Richardson level (h and h/2).  fun's values need only support
    subtraction and scalar multiplication."""

    def d(step):
        return (fun(step) - fun(-step)) * (0.5 / step)

    d1 = d(h)
    if not richardson:
        return d1
    d2 = d(0.5 * h)
    return d2 * (4.0 / 3.0) - d1 * (1.0 / 3.0)


def ext_d(form: Form, pt, vecs, h: float = 1e-4, richardson: bool = True):
    """Exterior derivative of `form` at pt on len = degree+1 tangents.

    Directional terms use central differences along the canonical
    extension flows; bracket terms are exact.  Values must support
    addition and scalar multiplication (complex numbers, arrays and
    GridFun all do).
    """
    k1 = len(vecs)
    if k1 != form.degree + 1:
        raise ValueError("ext_d needs degree+1 tangents")
    total = None

    def acc(val):
        nonlocal total
        total = val if total is None else total + val

    for i, v in enumerate(vecs):
        rest = vecs[:i] + vecs[i + 1 :]
        sign = -1.0 if i % 2 else 1.0
        der = directional(lambda t: form(flow(pt, v, t), *rest), h, richardson)
        acc(der * sign)
    for i in range(k1):
        for j in range(i + 1, k1):
            rest = tuple(vecs[m] for m in range(k1) if m not in (i, j))
            sign = -1.0 if (i + j) % 2 else 1.0
            acc(form(pt, tangent_bracket(vecs[i], vecs[j]), *rest) * sign)
    return total


def ext_d_form(form: Form, h: float = 1e-4, richardson: bool = True) -> Form:
    """The exterior derivative as a Form (for nesting and delta-compatibility)."""
    return Form(form.degree + 1,
                lambda pt, *vecs: ext_d(form, pt, vecs, h, richardson),
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
        total = None
        for i in range(len(pt)):
            term = form(_drop(pt, i), *(_drop(v, i) for v in vecs))
            if i % 2:
                term = term * (-1.0)
            total = term if total is None else total + term
        return total

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
        total = None
        for j in range(len(pt) + 1):
            fpt, fvecs = _nerve_face(pt, vecs, j)
            term = form(fpt, *fvecs)
            if j % 2:
                term = term * (-1.0)
            total = term if total is None else total + term
        return total

    return Form(form.degree, ev, name=f"delta_n({form.name})" if form.name else "")
