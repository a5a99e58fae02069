import numpy as np
import pytest
import scipy.linalg

from loopgerbe import liegroup as lg
from loopgerbe import sampling


def maxabs(x):
    return float(np.max(np.abs(x)))


def test_basis_orthonormal():
    for group in (lg.SU2, lg.SU3):
        for a in range(group.dim):
            for b in range(group.dim):
                want = 1.0 if a == b else 0.0
                got = lg.inner(group.basis[a], group.basis[b])
                assert abs(got - want) < 1e-12


def test_basis_skew_traceless():
    for group in (lg.SU2, lg.SU3):
        for E in group.basis:
            assert maxabs(E + E.conj().T) < 1e-12
            assert abs(np.trace(E)) < 1e-12


def test_su2_structure_constant():
    # [E1, E2] = -sqrt(2) E3 in this normalisation
    E1, E2, E3 = lg.SU2.basis
    assert maxabs(lg.bracket(E1, E2) + np.sqrt(2.0) * E3) < 1e-12


def test_coroot_length_squared_is_two():
    h = np.diag([1j, -1j])
    assert abs(lg.inner(h, h) - 2.0) < 1e-12


def test_exp_alg_half_turn():
    h = np.diag([1j, -1j])
    g = lg.exp_alg(np.pi * h)
    assert maxabs(g + np.eye(2)) < 1e-12


def test_exp_alg_matches_expm():
    rng = sampling.make_rng(11)
    for group in (lg.SU2, lg.SU3):
        for _ in range(5):
            X = sampling.random_algebra(rng, group, scale=1.3)
            assert maxabs(lg.exp_alg(X) - scipy.linalg.expm(X)) < 1e-12
            assert maxabs(lg.exp_alg(X, 0.7) - scipy.linalg.expm(0.7 * X)) < 1e-12


def test_exp_alg_batched():
    rng = sampling.make_rng(12)
    Xs = np.stack([sampling.random_algebra(rng, lg.SU3) for _ in range(7)])
    G = lg.exp_alg(Xs)
    for i in range(7):
        assert maxabs(G[i] - scipy.linalg.expm(Xs[i])) < 1e-12
        assert lg.is_group_element(lg.SU3, G[i])


def test_coeffs_roundtrip():
    rng = sampling.make_rng(13)
    for group in (lg.SU2, lg.SU3):
        c = rng.uniform(-1, 1, size=group.dim)
        X = group.from_coeffs(c)
        assert lg.is_algebra_element(group, X)
        assert maxabs(group.coeffs(X) - c) < 1e-12


def test_project_algebra():
    rng = sampling.make_rng(14)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    P = lg.project_algebra(M)
    assert lg.is_algebra_element(lg.SU3, P)
    X = sampling.random_algebra(rng, lg.SU3)
    assert maxabs(lg.project_algebra(X) - X) < 1e-12


def test_adjoint_invariance():
    rng = sampling.make_rng(15)
    g = lg.exp_alg(sampling.random_algebra(rng, lg.SU3))
    X = sampling.random_algebra(rng, lg.SU3)
    Y = sampling.random_algebra(rng, lg.SU3)
    lhs = lg.inner(lg.adjoint(g, X), lg.adjoint(g, Y))
    assert abs(lhs - lg.inner(X, Y)) < 1e-12
    assert maxabs(lg.adjoint_inv(g, lg.adjoint(g, X)) - X) < 1e-12


def test_inner_bracket_cyclic():
    rng = sampling.make_rng(16)
    X, Y, Z = (sampling.random_algebra(rng, lg.SU3) for _ in range(3))
    assert abs(lg.inner(lg.bracket(X, Y), Z) - lg.inner(X, lg.bracket(Y, Z))) < 1e-12


def test_maurer_cartan():
    rng = sampling.make_rng(17)
    g0 = lg.exp_alg(sampling.random_algebra(rng, lg.SU2))
    X = sampling.random_algebra(rng, lg.SU2)
    v = g0 @ X  # tangent of t -> g0 exp(tX) at 0
    assert maxabs(lg.maurer_cartan(g0, v) - X) < 1e-12
    assert maxabs(lg.maurer_cartan(g0, v, right=True) - lg.adjoint(g0, X)) < 1e-12
    with pytest.raises(ValueError):
        lg.maurer_cartan(g0, np.eye(2, dtype=complex))


def test_dexp_matches_finite_difference():
    rng = sampling.make_rng(18)
    X = sampling.random_algebra(rng, lg.SU3, scale=0.9)
    dX = sampling.random_algebra(rng, lg.SU3, scale=0.9)
    h = 1e-5
    fd = (scipy.linalg.expm(X + h * dX) - scipy.linalg.expm(X - h * dX)) / (2 * h)
    right = lg.dexp_right(X, dX) @ scipy.linalg.expm(X)
    left = scipy.linalg.expm(X) @ lg.dexp_left(X, dX)
    assert maxabs(right - fd) < 1e-9
    assert maxabs(left - fd) < 1e-9


def test_dexp_commuting_case():
    # when [X, dX] = 0 both variants collapse to dX
    X = lg.SU2.basis[0]
    assert maxabs(lg.dexp_left(2.0 * X, X) - X) < 1e-14
    assert maxabs(lg.dexp_right(2.0 * X, X) - X) < 1e-14


def _scaled(group, c, norm):
    """Algebra element with coefficient vector of the given norm."""
    return group.from_coeffs(norm * c / np.linalg.norm(c))


def _frechet_oracle(X, dX):
    """(right, left) dexp of single matrices from scipy's Frechet derivative."""
    E, L = scipy.linalg.expm_frechet(X, dX)
    Ei = scipy.linalg.expm(-X)
    return L @ Ei, Ei @ L


def _assert_dexp_matches_oracle(Xs, dXs, bound=1e-12):
    right, left = lg.dexp_right(Xs, dXs), lg.dexp_left(Xs, dXs)
    for idx in np.ndindex(Xs.shape[:-2]):
        want_r, want_l = _frechet_oracle(Xs[idx], dXs[idx])
        assert maxabs(right[idx] - want_r) < bound
        assert maxabs(left[idx] - want_l) < bound


def test_dexp_matches_expm_frechet_at_every_norm():
    # the closed form holds over the whole algebra: no loss of accuracy
    # as |X| grows, single and stacked
    rng = sampling.make_rng(19)
    for group in (lg.SU2, lg.SU3):
        for norm in (1e-8, 1.0, 10.0, 20.0, 40.0):
            Xs = np.stack([_scaled(group, rng.normal(size=group.dim), norm)
                           for _ in range(4)])
            dXs = group.from_coeffs(rng.normal(size=(4, group.dim)))
            _assert_dexp_matches_oracle(Xs[0], dXs[0])
            _assert_dexp_matches_oracle(Xs, dXs)


def test_dexp_at_repeated_eigenvalues():
    rng = sampling.make_rng(20)
    for group in (lg.SU2, lg.SU3):
        dX = group.from_coeffs(rng.normal(size=group.dim))
        zero = np.zeros((group.n, group.n), dtype=complex)
        assert maxabs(lg.dexp_right(zero, dX) - dX) < 1e-15
        assert maxabs(lg.dexp_left(zero, dX) - dX) < 1e-15
    # E_8 of su3 is proportional to diag(1, 1, -2): a double eigenvalue
    E8 = lg.SU3.basis[7]
    for c in (0.3, 7.0, 40.0):
        _assert_dexp_matches_oracle(c * E8, lg.SU3.from_coeffs(rng.normal(size=8)))
    # a stack in which only some nodes are degenerate
    Xs = np.stack([3.0 * E8, _scaled(lg.SU3, rng.normal(size=8), 5.0),
                   np.zeros((3, 3), dtype=complex),
                   _scaled(lg.SU3, rng.normal(size=8), 25.0), -12.0 * E8])
    dXs = lg.SU3.from_coeffs(rng.normal(size=(5, 8)))
    _assert_dexp_matches_oracle(Xs, dXs)


def test_exp_dexp_right_serves_every_scale():
    # one eigendecomposition, leading scale axes: the same values as the
    # kernels evaluated scale by scale
    rng = sampling.make_rng(21)
    Xs = np.stack([sampling.random_algebra(rng, lg.SU3, scale=2.0) for _ in range(6)])
    dXs = np.stack([sampling.random_algebra(rng, lg.SU3) for _ in range(6)])
    t = np.array([[0.0, 0.5, -1.5], [2.0, 7.0, 1e-9]])
    E, D = lg.exp_dexp_right(Xs, dXs, t)
    assert E.shape == D.shape == (2, 3, 6, 3, 3)
    assert maxabs(lg.exp_alg(Xs, t) - E) == 0.0
    for idx in np.ndindex(t.shape):
        assert maxabs(E[idx] - lg.exp_alg(t[idx] * Xs)) < 1e-13
        assert maxabs(D[idx] - lg.dexp_right(t[idx] * Xs, t[idx] * dXs)) < 1e-13
    # dX may carry leading axes of its own
    E1, D1 = lg.exp_dexp_right(Xs[0], dXs)
    assert maxabs(E1 - lg.exp_alg(Xs[0])) == 0.0
    for i in range(6):
        assert maxabs(D1[i] - lg.dexp_right(Xs[0], dXs[i])) < 1e-14


def test_eigen_kernels_reject_non_anti_hermitian_input():
    rng = sampling.make_rng(22)
    X = sampling.random_algebra(rng, lg.SU3)
    H = 1e-6 * (X @ X)  # Hermitian, so X + H is not anti-Hermitian
    for bad in (X + H, np.stack([X, X + H]), 1j * np.eye(3) + 1.0):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.exp_alg(bad)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.dexp_right(bad, X)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.dexp_left(bad, X)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.exp_dexp_right(bad, X, 0.5)
    # the tolerance is relative to the size of X
    big = 1e4 * X + 1e-9 * (X @ X)
    assert lg.is_group_element(lg.SU3, lg.exp_alg(big))
