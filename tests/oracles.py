"""The second routes that the tests compare the package against.

Each is a numerical or closed-form reference for a route that a check,
the CLI or the benchmark runs, and nothing outside the tests calls it:
the FFT and fourth-order difference theta derivatives, the difference
velocity of a path in the loop group, the trivial-bundle curvature from
the analytic chart gradient of its bump and by its two orders, one
stencil each, the trivial bundle that evaluates its profiles again at
every call, the closed-form nabla Phi of the path fibration and
nabla Phi by whole loop flows, the curvature through the generic
exterior derivative, the shuffles by nested combinations and the
shuffle-by-shuffle pairing, a stack of
tangents built from its members, a Fourier profile summed harmonic
by harmonic, the samplers that build each loop and tangent of a draw
on its own (a path tangent with a pinned 2 pi value among them), and
the Pauli and Gell-Mann matrices written out.  The
package's own structure rules (every matrix product through
`liegroup.mm`, no module cache) do not bind them: an oracle may differ
from the route it checks.
"""

import dataclasses
import itertools
import math

import numpy as np

from loopgerbe import forms
from loopgerbe.forms import (ChartPt, Form, _sign, _signed_sum, directional, ext_d,
                             tangent_bracket)
from loopgerbe.liegroup import adjoint, group_inv, mm, project_algebra
from loopgerbe.gerbe import TrivialBundle
from loopgerbe.loops import (Fn, GridFun, LoopPoint, TrigPoly, add_terms, conj_loop,
                            product_loop)
from loopgerbe.sampling import (NFACTORS, SCALE, _need_closed, random_algebra,
                                random_chart_point, random_chart_vector,
                                random_path_point, random_trig, random_trig_coeffs)

# ---------------------------------------------------------------------------
# numerical derivatives


def spectral_dtheta(vals: np.ndarray) -> np.ndarray:
    """FFT derivative along axis 0 of periodic samples: the reference
    that tests compare exact theta derivative payloads against.

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


def velocity(path) -> GridFun:
    """Left-trivialised s-derivative of a `loops.PathInLoopGroup` at
    every node by 4th-order differences: the numerical reference for
    `path.vel`."""
    if path.m < 5:
        raise ValueError("need at least 5 path nodes")
    raw = fd4_dtheta_closed(path.g.vals, path.sgrid[1] - path.sgrid[0])
    ltriv = project_algebra(mm(group_inv(path.g.vals), raw))
    return GridFun(path.g.grid, ltriv)


# ---------------------------------------------------------------------------
# scenario curvature and nabla Phi


def rho_grad(tb, m):
    """The chart gradient of the bump `TrivialBundle.rho`: component i
    is -2 m_i times the other factors 1 - m_j^2, multiplied left to
    right."""
    f = [1.0 - np.float_power(m[..., i], 2) for i in range(tb.dim)]
    return np.stack([math.prod(f[:i] + f[i + 1:], start=-2.0 * m[..., i])
                     for i in range(tb.dim)], axis=-1)


def _coeffs(c, m) -> np.ndarray:
    """The coefficient c of a chart function at the chart points m, one
    per point of a stack (a constant function broadcasts), against the
    theta axis of a profile: its axes lead the samples of
    `GridFun.from_profiles`."""
    lead = np.shape(m)[:-1]
    if np.shape(c) != lead:
        c = c * np.ones(lead)
    return np.asarray(c)[..., None]


def _scaled(f, c) -> Fn:
    """The profile c f, which evaluates f at every call."""

    def val_dval(t):
        v, d = f.val_dval(t)
        return c * v, c * d

    return Fn(val_dval)


def _profile_terms(m, terms, coeffs) -> list:
    """The terms coeffs_d * profile_d(theta) xi_d of the (profile, xi)
    terms, as (profile, xi) pairs, one loop per chart point of m."""
    return [(_scaled(f, _coeffs(c, m)), xi) for (f, xi), c in zip(terms, coeffs)]


def _profile_vals(grid, terms) -> GridFun:
    """The samples of `GridFun.from_profiles` without a theta-derivative
    payload: the values of each profile, added in order."""
    return GridFun(grid, add_terms((f.val_dval(grid.nodes)[0], X) for f, X in terms))


class _TermsBundle(TrivialBundle):
    """The trivial bundle that builds its profile terms at every call and
    evaluates them on the grid again: a(m)(u) through
    `GridFun.from_profiles`, and a(m)(u) and phi(m) from their values
    alone.  Every other member is the bundle's own and reads these, so
    that `TrivialBundle`, which scales the profile samples it keeps,
    equals it bit for bit."""

    def _base_terms(self, m, u) -> list:
        r, u = self.rho(m), np.asarray(u)
        return _profile_terms(m, self.a_terms, [r * u[..., d] for d in range(self.dim)])

    def base_connection(self, m, u) -> GridFun:
        return GridFun.from_profiles(self.grid, self._base_terms(m, u))

    def a_vals(self, m, u) -> np.ndarray:
        return _profile_vals(self.grid, self._base_terms(m, u)).vals

    def phi(self, m) -> GridFun:
        return _profile_vals(self.grid, _profile_terms(
            m, [self.phi_term], [self.rho(m) * self.phi_coeff(m)]))


def by_terms(tb) -> TrivialBundle:
    """The bundle of tb's data that evaluates its profiles at every call."""
    return _TermsBundle(*(getattr(tb, f.name) for f in dataclasses.fields(tb)))


def _base_connection_dm(tb, m, u, w) -> GridFun:
    """Exact directional m-derivative of a(.)(u) along chart vector w
    at one chart point; u may be a stack of chart vectors."""
    dr = float(np.dot(rho_grad(tb, m), np.asarray(w, dtype=float)))
    u = np.asarray(u)
    return GridFun.from_profiles(tb.grid, _profile_terms(
        m, tb.a_terms, [dr * u[..., d] for d in range(tb.dim)]))


def curvature_exact(tb, p, V, W) -> GridFun:
    """The trivial-bundle curvature from the analytic chart gradient."""
    base = (_base_connection_dm(tb, p.m, W[0], V[0])
            - _base_connection_dm(tb, p.m, V[0], W[0])
            + tangent_bracket(tb.base_connection(p.m, V[0]),
                              tb.base_connection(p.m, W[0])))
    return conj_loop(p.g, base)


def curvature_by_orders(tb, p, V, W) -> GridFun:
    """The trivial-bundle curvature with da(u, v) and da(v, u) each from
    its own difference stencil, and a(u) and a(v) each from its own
    plain base connection, every theta-derivative payload dropped: the
    route that `TrivialBundle.curvature`, one stencil over both orders,
    equals bit for bit."""
    u, v = V[0], W[0]

    def a(m, x):
        return GridFun(tb.grid, tb.base_connection(m, x).vals)

    def da_dir(x, y):
        return directional(lambda t: a(ChartPt(p.m).flow(x, t).x, y), tb.fd_step)

    base = da_dir(u, v) - da_dir(v, u) + tangent_bracket(a(p.m, u), a(p.m, v))
    return conj_loop(p.g, base)


def nabla_phi_closed(p, V) -> GridFun:
    """nabla Phi of the path fibration in closed form: the endpoint value
    of V conjugated back along the path, over 2 pi."""
    w = adjoint(p.endpoint_frame, V.vals[..., -1:, :, :])
    return GridFun(p.grid, w * (1.0 / (2 * np.pi)))


def nabla_phi_by_flows(scn, p, V) -> GridFun:
    """Covariant derivative of the Higgs field along V.

    Directional term by flow differences; bracket and -dtheta(A) exact.
    """
    d1 = directional(lambda t: scn.higgs(forms.flow(p, V, t)), scn.fd_step)
    aV = scn.connection(p, V)
    phi = scn.higgs(p)
    return d1 + tangent_bracket(aV, phi) - aV.dtheta()


def curvature_via_ext_d(scn, p, V, W) -> GridFun:
    """dA(V, W) + [A(V), A(W)] through the generic exterior derivative."""
    dA = ext_d(Form(1, scn.connection, name="A"), p, (V, W), scn.fd_step)
    return dA + tangent_bracket(scn.connection(p, V), scn.connection(p, W))


# ---------------------------------------------------------------------------
# pairings and tangent stacks


def shuffles(degs) -> list:
    """(blocks, sign) for every shuffle of sum(degs) arguments into
    increasing blocks of the given sizes, in itertools.permutations
    order: each block a combination of the arguments the blocks before
    it left, taken in itertools.combinations order, and the sign by the
    inversion count of the blocks written out.  The enumeration that
    `forms.shuffle_index` indexes."""
    out = []

    def grow(blocks, rest, sizes):
        if not sizes:
            out.append((blocks, _sign(sum(blocks, ()))))
            return
        for block in itertools.combinations(rest, sizes[0]):
            grow(blocks + [block], tuple(i for i in rest if i not in block),
                 sizes[1:])

    grow([], tuple(range(sum(degs))), list(degs))
    return out


def shuffle_pairing(p, forms):
    """The alternating pairing evaluated shuffle by shuffle: every slot
    on its own block of arguments in every shuffle, p once per shuffle,
    the terms added in shuffle order.  The oracle that `pair_stacks`
    equals bit for bit."""
    degs = [f.degree for f in forms]

    def ev(pt, *vecs):
        return _signed_sum((sign, p(*(f(pt, *(vecs[i] for i in idx))
                                      for f, idx in zip(forms, blocks))))
                           for blocks, sign in shuffles(degs))

    return Form(sum(degs), ev)


def stack_tangents(vs):
    """The tangents vs, all of one kind, as one tangent with a leading
    stack axis: tuples componentwise, a GridFun's vals and dvals (None
    unless every tangent has them), arrays by np.stack."""
    v = vs[0]
    if isinstance(v, tuple):
        return tuple(stack_tangents(c) for c in zip(*vs))
    if isinstance(v, GridFun):
        d = None
        if all(w.dvals is not None for w in vs):
            d = np.stack([w.dvals for w in vs])
        return GridFun(v.grid, np.stack([w.vals for w in vs]), d)
    return np.stack(vs)


# ---------------------------------------------------------------------------
# profiles


def trig_val(tp, t) -> np.ndarray:
    """The value of `loops.TrigPoly.val_dval` harmonic by harmonic: a0
    along t's axes, then one cos(m t) and one outer product per cos
    term, then the sin terms, each added in order."""
    t = np.asarray(t, dtype=float)
    a0 = np.asarray(tp.a0, dtype=float)
    ac, bs = (np.moveaxis(np.asarray(c, dtype=float).reshape(a0.shape + (-1,)), -1, 0)
              for c in (tp.ac, tp.bs))
    out = np.empty(a0.shape + t.shape)
    out[...] = a0.reshape(a0.shape + (1,) * t.ndim)
    for m, a in enumerate(ac, start=1):
        out = out + np.multiply.outer(a, np.cos(m * t))
    for m, b in enumerate(bs, start=1):
        out = out + np.multiply.outer(b, np.sin(m * t))
    return out


def trig_dval(tp, t) -> np.ndarray:
    """The derivative of `loops.TrigPoly.val_dval` harmonic by harmonic:
    from zeros, minus m a sin(m t) per cos term, then plus m b cos(m t)
    per sin term."""
    t = np.asarray(t, dtype=float)
    a0 = np.asarray(tp.a0, dtype=float)
    ac, bs = (np.moveaxis(np.asarray(c, dtype=float).reshape(a0.shape + (-1,)), -1, 0)
              for c in (tp.ac, tp.bs))
    out = np.zeros(a0.shape + t.shape)
    for m, a in enumerate(ac, start=1):
        out = out - np.multiply.outer(m * a, np.sin(m * t))
    for m, b in enumerate(bs, start=1):
        out = out + np.multiply.outer(m * b, np.cos(m * t))
    return out


# ---------------------------------------------------------------------------
# the samplers one object at a time: each loop and each tangent of a
# draw built by its own product_loop or from_profiles call


def random_loop_factors(rng, group, nfactors=NFACTORS, based=False) -> list:
    """The factors (f_j, xi_j) of a random loop, drawn without a grid:
    each a profile, then a generator."""
    factors = []
    for _ in range(nfactors):
        tp = random_trig(rng)
        factors.append((Fn.based(tp) if based else tp, random_algebra(rng, group)))
    return factors


def random_loop(rng, grid, group, nfactors=NFACTORS, based=False) -> LoopPoint:
    """Product of single-generator factors exp(f_j(theta) xi_j), exact Z."""
    return product_loop(grid, random_loop_factors(rng, group, nfactors, based))


def random_loop_tangent(rng, grid, group) -> GridFun:
    """Algebra-valued loop sum_a f_a(theta) E_a over the basis, with exact
    derivative payload: one stacked profile per basis element."""
    profiles = TrigPoly(*random_trig_coeffs(rng, group.dim))
    return GridFun.from_profiles(grid, [(profiles, group.basis)])


def random_path_tangent(rng, grid, group, endpoint=None) -> GridFun:
    """Closed-grid tangent vanishing at theta = 0.

    endpoint: None draws the 2 pi value, an algebra matrix pins it
    exactly (zeros make the tangent vertical).
    """
    _need_closed(grid)
    end = random_algebra(rng, group, SCALE) if endpoint is None else np.asarray(endpoint)
    based = Fn.based(TrigPoly(*random_trig_coeffs(rng, group.dim)))
    return GridFun.from_profiles(grid, [(Fn.ramp(1.0), end), (based, group.basis)])


def random_path_fibre_points(rng, scn, q: int) -> tuple:
    """q points of one fibre: p_1 random, the rest p_1 times based loops."""
    p1 = random_path_point(rng, scn.grid, scn.group)
    gams = (random_loop(rng, scn.grid, scn.group, nfactors=1, based=True)
            for _ in range(q - 1))
    return (p1,) + tuple(p1.mul(gam) for gam in gams)


def random_path_fibre_tangents(rng, scn, q: int, k: int = 1) -> tuple:
    """k tangents to the q-fold fibre product, each q slots that share
    their 2 pi value, drawn (a generator) just before the slots."""
    ends = (random_algebra(rng, scn.group, SCALE) for _ in range(k))
    return tuple(tuple(random_path_tangent(rng, scn.grid, scn.group, endpoint=end)
                       for _ in range(q)) for end in ends)


def random_bundle_fibre_points(rng, scn, q: int) -> tuple:
    """q points of one fibre: one chart point, then q loops."""
    m = random_chart_point(rng, scn.dim)
    return tuple(scn.point(m, random_loop(rng, scn.grid, scn.group)) for _ in range(q))


def random_bundle_fibre_tangents(rng, scn, q: int, k: int = 1) -> tuple:
    """k tangents to the q-fold fibre product, each q slots (u, X) that
    share their chart vector u: the k chart vectors, then each one's Xs."""
    us = [random_chart_vector(rng, scn.dim) for _ in range(k)]
    return tuple(tuple((u, random_loop_tangent(rng, scn.grid, scn.group))
                       for _ in range(q)) for u in us)


# ---------------------------------------------------------------------------
# the algebra bases, written out


def pauli_matrices() -> np.ndarray:
    """sigma_1, sigma_2, sigma_3."""
    return np.array([[[0, 1], [1, 0]],
                     [[0, -1j], [1j, 0]],
                     [[1, 0], [0, -1]]], dtype=complex)


def gell_mann_matrices() -> np.ndarray:
    """lambda_1 .. lambda_8, in Gell-Mann's order."""
    lam = np.array([[[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
                    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
                    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
                    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
                    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
                    [[0, 0, 0], [0, 0, 0], [0, 0, 0]]], dtype=complex)
    lam[7] = np.diag([1, 1, -2]) / np.sqrt(3.0)
    return lam
