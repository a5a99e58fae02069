"""Compact matrix groups SU(n) and their Lie algebras su(n).

Group elements are unitary n x n complex matrices of unit determinant,
algebra elements are anti-Hermitian traceless matrices.  All operations
broadcast over leading axes, so arrays of shape (..., n, n) work
throughout; loops sampled on a theta grid are just such stacks.

The invariant inner product is <X, Y> = -trace(XY).  With this choice
the coroot diag(i, -i) of su(2) has squared length 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# residuals below this count as "exactly" satisfying a structural constraint
ATOL_STRUCT = 1e-10


def mm(a, b) -> np.ndarray:
    """a @ b for broadcastable stacks of n x n matrices: the one matrix
    product of the package.  It sums n broadcast outer products (column k
    of a times row k of b), which beats a BLAS call per matrix on the
    2x2 and 3x3 stacks used here, and rounds every matrix of a stack as
    it rounds that matrix alone."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., k, None, :]
    return out


def trace_mm(a, b) -> np.ndarray:
    """trace(mm(a, b)) from the diagonal alone: each diagonal entry is
    summed over k in mm's order, so the value rounds as the trace of the
    full product does, at about half its cost."""
    a = np.asarray(a)
    b = np.asarray(b)
    d = a[..., :, 0] * b[..., 0, :]
    for k in range(1, a.shape[-1]):
        d += a[..., :, k] * b[..., k, :]
    return d.sum(axis=-1)


def gell_mann_basis(n: int) -> np.ndarray:
    """The orthonormal basis of su(n) from the generalised Gell-Mann
    matrices, in Gell-Mann's order: for k = 1 .. n-1, the symmetric and
    then the antisymmetric unit (j, k) for each j < k, then
    diag(1, .., 1, -k, 0, ..) / sqrt(k(k+1)/2); all times 1j/sqrt(2)."""
    out = []
    for k in range(1, n):
        for j in range(k):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1
            anti = np.zeros((n, n), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            out += [sym, anti]
        d = np.zeros(n)
        d[:k], d[k] = 1, -k
        out.append(np.diag(d) / np.sqrt(k * (k + 1) / 2))
    return 1j * np.array(out, dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class Group:
    """One of the supported compact groups, with an orthonormal algebra basis."""

    name: str
    n: int
    basis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def from_coeffs(self, c) -> np.ndarray:
        """Algebra element sum_a c[a] * E_a.  c may have leading axes."""
        c = np.asarray(c, dtype=complex)
        # the one BLAS call of np.tensordot, without its wrapper
        flat = np.dot(c.reshape(-1, self.dim), self.basis.reshape(self.dim, -1))
        return flat.reshape(c.shape[:-1] + self.basis.shape[1:])


SU2 = Group("su2", 2, gell_mann_basis(2))
SU3 = Group("su3", 3, gell_mann_basis(3))

_GROUPS = {"su2": SU2, "su3": SU3}


def group_by_name(name: str) -> Group:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected one of {sorted(_GROUPS)}")


def project_algebra(M) -> np.ndarray:
    """Nearest anti-Hermitian traceless matrix (orthogonal projection)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1]
    A = 0.5 * (M - np.swapaxes(M, -1, -2).conj())
    tr = np.trace(A, axis1=-2, axis2=-1) / n
    return A - tr[..., None, None] * np.eye(n)


def _eigh_alg(X):
    """(w, U) with X = U diag(i w) U*; ValueError unless X is anti-Hermitian."""
    X = np.asarray(X, dtype=complex)
    skew = np.max(np.abs(X + np.swapaxes(X, -1, -2).conj()), initial=0.0)
    if not (skew <= ATOL_STRUCT or skew <= ATOL_STRUCT * np.max(np.abs(X))):
        raise ValueError(f"matrix is not anti-Hermitian (defect {skew:.3e})")
    return np.linalg.eigh(-1j * X)


def _exp_eig(w, U, Uh, s: np.ndarray) -> np.ndarray:
    """U diag(exp(i s w)) U*, the scales s against the leading axes of w."""
    phase = np.exp(1j * s[..., None] * w)
    return mm(U * phase[..., None, :], Uh)


@dataclass(frozen=True)
class AlgEig:
    """X = U diag(i w) U* for an anti-Hermitian X, with Uh = U* and, when a
    tangent dX was given, Y = U* dX U: all that exp(tX) and
    dexp_right(tX, t dX) need, at any number of scales t."""

    w: np.ndarray
    U: np.ndarray
    Uh: np.ndarray
    Y: Optional[np.ndarray] = None

    def exp(self, t=1.0) -> np.ndarray:
        """exp(t X) = U diag(exp(i t w)) U*; leading axes of t lead the result."""
        t = np.asarray(t, dtype=float)
        return _exp_eig(self.w, self.U, self.Uh,
                        t.reshape(t.shape + (1,) * (self.w.ndim - 1)))

    def exp_each(self, s) -> np.ndarray:
        """exp(s[j] X_j) for each X_j of a stack, at scales of its own: the
        leading axes of s are those of X, and its further axes (theta,
        say) lead each matrix of the result, shape s.shape + (n, n)."""
        s = np.asarray(s, dtype=float)
        lead = self.w.shape[:-1] + (1,) * (s.ndim - self.w.ndim + 1)
        return _exp_eig(self.w.reshape(lead + self.w.shape[-1:]),
                        self.U.reshape(lead + self.U.shape[-2:]),
                        self.Uh.reshape(lead + self.Uh.shape[-2:]), s)

    def dexp(self, t=1.0) -> np.ndarray:
        """dexp_right(tX, t dX) = d(exp(tX)) exp(-tX) = U [phi(t(w_j - w_k))
        o (U* t dX U)] U*, phi(x) = (e^(ix) - 1)/(ix) = e^(ix/2) sinc(x/2), in
        closed form (Daleckii-Krein; Higham, Functions of Matrices, 2008,
        3.2), exact for repeated eigenvalues too; t's leading axes lead it."""
        t = np.asarray(t, dtype=float)
        ts = t.reshape(t.shape + (1,) * self.Y.ndim)
        theta = ts * (self.w[..., :, None] - self.w[..., None, :])
        phi = np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
        # phi multiplies last: numpy may multiply into the temporary
        # ts * Y in place, and its complex product is not bitwise
        # commutative, so this order rounds a stack of scales as it
        # rounds each scale alone
        return mm(mm(self.U, (ts * self.Y) * phi), self.Uh)

    def exp_dexp(self, t=1.0) -> tuple:
        """exp(tX) and dexp_right(tX, t dX); t's leading axes lead both."""
        return self.exp(t), self.dexp(t)


def eig_alg(X, dX=None) -> AlgEig:
    """The one eigendecomposition behind exp and dexp at X; dX may add
    leading axes to those of X.  ValueError unless X is anti-Hermitian."""
    w, U = _eigh_alg(X)
    Uh = np.swapaxes(U, -1, -2).conj()
    Y = None if dX is None else mm(mm(Uh, np.asarray(dX, dtype=complex)), U)
    return AlgEig(w, U, Uh, Y)


def exp_alg(X, t=1.0) -> np.ndarray:
    """exp(t X) = U diag(exp(i t w)) U* for anti-Hermitian X = U diag(i w) U*.
    Leading axes of t lead the result: one eigh serves every scale."""
    return eig_alg(X).exp(t)


def exp_dexp_right(X, dX, t=1.0) -> tuple:
    """exp(tX) and dexp_right(tX, t dX) from one eigh of X (`AlgEig.exp_dexp`).
    dX may add leading axes to those of X; t's leading axes lead both."""
    return eig_alg(X, dX).exp_dexp(t)


def adjoint(g, X) -> np.ndarray:
    """Ad(g)(X) = g X g^(-1).  Pass the inverse to get Ad(g^(-1))(X) = g^(-1) X g."""
    g = np.asarray(g, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return mm(mm(g, X), np.swapaxes(g, -1, -2).conj())


def adjoint_inv(g, X) -> np.ndarray:
    """Ad(g^(-1))(X) = g^(-1) X g."""
    g = np.asarray(g, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return mm(mm(np.swapaxes(g, -1, -2).conj(), X), g)


def inner(X, Y):
    """Invariant pairing <X, Y> = -trace(X Y), complex-typed; its real
    part is the pairing of algebra elements."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return -np.einsum("...ij,...ji->...", X, Y)


def bracket(X, Y) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return mm(X, Y) - mm(Y, X)


def group_inv(g) -> np.ndarray:
    """Inverse of a unitary stack (conjugate transpose)."""
    return np.swapaxes(np.asarray(g, dtype=complex), -1, -2).conj()
