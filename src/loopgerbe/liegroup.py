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

import numpy as np

# residuals below this count as "exactly" satisfying a structural constraint
ATOL_STRUCT = 1e-10


def _su2_basis() -> np.ndarray:
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.stack([1j * s1, 1j * s2, 1j * s3]) / np.sqrt(2.0)


def _su3_basis() -> np.ndarray:
    l = np.zeros((8, 3, 3), dtype=complex)
    l[0][0, 1] = l[0][1, 0] = 1
    l[1][0, 1] = -1j
    l[1][1, 0] = 1j
    l[2][0, 0] = 1
    l[2][1, 1] = -1
    l[3][0, 2] = l[3][2, 0] = 1
    l[4][0, 2] = -1j
    l[4][2, 0] = 1j
    l[5][1, 2] = l[5][2, 1] = 1
    l[6][1, 2] = -1j
    l[6][2, 1] = 1j
    l[7] = np.diag([1, 1, -2]) / np.sqrt(3.0)
    return 1j * l / np.sqrt(2.0)


@dataclass(frozen=True)
class Group:
    """One of the supported compact groups, with an orthonormal algebra basis."""

    name: str
    n: int
    basis: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def identity(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)

    def from_coeffs(self, c) -> np.ndarray:
        """Algebra element sum_a c[a] * E_a.  c may have leading axes."""
        c = np.asarray(c, dtype=complex)
        return np.tensordot(c, self.basis, axes=([-1], [0]))

    def coeffs(self, X) -> np.ndarray:
        """Coordinates of X in the orthonormal basis (real for su(n) input)."""
        X = np.asarray(X, dtype=complex)
        # <E_a, X> = -tr(E_a X)
        return np.real(-np.einsum("aij,...ji->...a", self.basis, X))


SU2 = Group("su2", 2, _su2_basis())
SU3 = Group("su3", 3, _su3_basis())

_GROUPS = {"su2": SU2, "su3": SU3}


def group_by_name(name: str) -> Group:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; expected one of {sorted(_GROUPS)}")


def is_group_element(group: Group, g, atol: float = ATOL_STRUCT) -> bool:
    g = np.asarray(g)
    if g.shape[-2:] != (group.n, group.n):
        return False
    eye = np.eye(group.n)
    unitary = np.max(np.abs(np.swapaxes(g, -1, -2).conj() @ g - eye))
    det = np.max(np.abs(np.linalg.det(g) - 1.0))
    return bool(unitary < atol and det < atol)


def is_algebra_element(group: Group, X, atol: float = ATOL_STRUCT) -> bool:
    X = np.asarray(X)
    if X.shape[-2:] != (group.n, group.n):
        return False
    skew = np.max(np.abs(X + np.swapaxes(X, -1, -2).conj()))
    tr = np.max(np.abs(np.trace(X, axis1=-2, axis2=-1)))
    return bool(skew < atol and tr < atol)


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


def _exp_eig(w, U, t: np.ndarray) -> np.ndarray:
    phase = np.exp(1j * t.reshape(t.shape + (1,) * w.ndim) * w)
    return np.einsum("...ij,...j,...kj->...ik", U, phase, U.conj())


def exp_alg(X, t=1.0) -> np.ndarray:
    """exp(t X) = U diag(exp(i t w)) U* for anti-Hermitian X = U diag(i w) U*.
    Leading axes of t lead the result: one eigh serves every scale."""
    return _exp_eig(*_eigh_alg(X), np.asarray(t, dtype=float))


def exp_dexp_right(X, dX, t=1.0) -> tuple:
    """exp(tX) and dexp_right(tX, t dX) from one eigh of X, with the closed
    form of dexp_right (Daleckii-Krein; Higham, Functions of Matrices, 2008,
    3.2).  dX may add leading axes to those of X; t's leading axes lead both."""
    w, U = _eigh_alg(X)
    Uh = np.swapaxes(U, -1, -2).conj()
    Y = Uh @ np.asarray(dX, dtype=complex) @ U
    t = np.asarray(t, dtype=float)
    ts = t.reshape(t.shape + (1,) * Y.ndim)
    theta = ts * (w[..., :, None] - w[..., None, :])
    phi = np.exp(0.5j * theta) * np.sinc(theta / (2.0 * np.pi))
    return _exp_eig(w, U, t), U @ (phi * (ts * Y)) @ Uh


def adjoint(g, X) -> np.ndarray:
    """Ad(g)(X) = g X g^(-1).  Pass the inverse to get Ad(g^(-1))(X) = g^(-1) X g."""
    g = np.asarray(g, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return g @ X @ np.swapaxes(g, -1, -2).conj()


def adjoint_inv(g, X) -> np.ndarray:
    """Ad(g^(-1))(X) = g^(-1) X g."""
    g = np.asarray(g, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return np.swapaxes(g, -1, -2).conj() @ X @ g


def inner(X, Y):
    """Invariant pairing <X, Y> = -trace(X Y); real for algebra elements."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    v = -np.einsum("...ij,...ji->...", X, Y)
    return np.real_if_close(v, tol=1000)


def bracket(X, Y) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return X @ Y - Y @ X


def group_inv(g) -> np.ndarray:
    """Inverse of a unitary stack (conjugate transpose)."""
    return np.swapaxes(np.asarray(g, dtype=complex), -1, -2).conj()


def maurer_cartan(g, v, right: bool = False, atol: float = 1e-8) -> np.ndarray:
    """Trivialise a raw tangent v at g: left form g^(-1) v, right form v g^(-1).

    Raises ValueError when the result is not in the algebra, i.e. when v
    was not actually tangent to the group at g.
    """
    g = np.asarray(g, dtype=complex)
    v = np.asarray(v, dtype=complex)
    gi = group_inv(g)
    out = v @ gi if right else gi @ v
    defect = np.max(np.abs(out - project_algebra(out)))
    if defect > atol:
        raise ValueError(f"vector is not tangent at g (defect {defect:.3e})")
    return project_algebra(out)


def dexp_left(X, dX) -> np.ndarray:
    """exp(-X) d(exp(X)) = dexp_right(-X, dX); same closed form and domain."""
    return dexp_right(-np.asarray(X, dtype=complex), dX)


def dexp_right(X, dX) -> np.ndarray:
    """d(exp(X)) exp(-X) = U [phi(w_j - w_k) o (U* dX U)] U* with X = U diag(i w) U*
    and phi(x) = (e^(ix) - 1)/(ix) = e^(ix/2) sinc(x/2), entire with phi(0) = 1:
    exact up to roundoff for anti-Hermitian X (repeated eigenvalues included)
    and any dX."""
    return exp_dexp_right(X, dX)[1]
