import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from loopgerbe import liegroup as lg
from loopgerbe import sampling
from loopgerbe.loops import ThetaGrid
from oracles import gell_mann_matrices, pauli_matrices


def maxabs(x):
    return float(np.max(np.abs(x)))


def dexp_left(X, dX):
    """exp(-X) d(exp(X)) = dexp_right(-X, dX)."""
    return lg.exp_dexp_right(-X, dX)[1]


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


def test_one_basis_rule_gives_the_pauli_and_gell_mann_bases():
    # the generalised Gell-Mann rule is i/sqrt(2) times the Pauli and the
    # Gell-Mann matrices, bit for bit, and builds SU2 and SU3
    for group, mats in ((lg.SU2, pauli_matrices()), (lg.SU3, gell_mann_matrices())):
        assert np.array_equal(lg.gell_mann_basis(group.n), 1j * mats / np.sqrt(2.0))
        assert np.array_equal(group.basis, lg.gell_mann_basis(group.n))


def test_basis_rule_is_orthonormal_on_su4():
    # no SU4 group: the rule alone, checked by its Gram matrix
    B = lg.gell_mann_basis(4)
    assert B.shape == (15, 4, 4)
    gram = lg.inner(B[:, None], B[None, :])
    assert maxabs(gram - np.eye(15)) < 1e-15
    assert maxabs(B + np.swapaxes(B, -1, -2).conj()) == 0.0
    assert maxabs(np.trace(B, axis1=-2, axis2=-1)) < 1e-15


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
        assert maxabs(G[i].conj().T @ G[i] - np.eye(3)) < 1e-10
        assert abs(np.linalg.det(G[i]) - 1.0) < 1e-10


def test_coeffs_roundtrip():
    rng = sampling.make_rng(13)
    for group in (lg.SU2, lg.SU3):
        c = rng.uniform(-1, 1, size=group.dim)
        X = group.from_coeffs(c)
        assert maxabs(X + X.conj().T) < 1e-10 and abs(np.trace(X)) < 1e-10
        assert maxabs(lg.inner(group.basis, X) - c) < 1e-12


def test_coeffs_round_as_tensordot():
    # one BLAS dot of the flattened stack: the call np.tensordot makes,
    # so every stack rounds as it does there, in its shape
    rng = sampling.make_rng(17)
    for group in (lg.SU2, lg.SU3):
        for lead in ((), (4,), (3, 2), (2, 1, 5)):
            c = rng.uniform(-1, 1, size=lead + (group.dim,))
            want = np.tensordot(c.astype(complex), group.basis, axes=([-1], [0]))
            got = group.from_coeffs(c)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_project_algebra():
    rng = sampling.make_rng(14)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    P = lg.project_algebra(M)
    assert maxabs(P + P.conj().T) < 1e-10 and abs(np.trace(P)) < 1e-10
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


def test_dexp_matches_finite_difference():
    rng = sampling.make_rng(18)
    X = sampling.random_algebra(rng, lg.SU3, scale=0.9)
    dX = sampling.random_algebra(rng, lg.SU3, scale=0.9)
    h = 1e-5
    fd = (scipy.linalg.expm(X + h * dX) - scipy.linalg.expm(X - h * dX)) / (2 * h)
    right = lg.eig_alg(X, dX).dexp() @ scipy.linalg.expm(X)
    left = scipy.linalg.expm(X) @ dexp_left(X, dX)
    assert maxabs(right - fd) < 1e-9
    assert maxabs(left - fd) < 1e-9


def test_dexp_commuting_case():
    # when [X, dX] = 0 both variants collapse to dX
    X = lg.SU2.basis[0]
    assert maxabs(dexp_left(2.0 * X, X) - X) < 1e-14
    assert maxabs(lg.eig_alg(2.0 * X, X).dexp() - X) < 1e-14


def _scaled(group, c, norm):
    """Algebra element with coefficient vector of the given norm."""
    return group.from_coeffs(norm * c / np.linalg.norm(c))


def _frechet_oracle(X, dX):
    """(right, left) dexp of single matrices from scipy's Frechet derivative."""
    E, L = scipy.linalg.expm_frechet(X, dX)
    Ei = scipy.linalg.expm(-X)
    return L @ Ei, Ei @ L


def _assert_dexp_matches_oracle(Xs, dXs, bound=1e-12):
    right, left = lg.eig_alg(Xs, dXs).dexp(), dexp_left(Xs, dXs)
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
        assert maxabs(lg.eig_alg(zero, dX).dexp() - dX) < 1e-15
        assert maxabs(dexp_left(zero, dX) - dX) < 1e-15
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
        assert maxabs(D[idx] - lg.eig_alg(t[idx] * Xs, t[idx] * dXs).dexp()) < 1e-13
    # dX may carry leading axes of its own
    E1, D1 = lg.exp_dexp_right(Xs[0], dXs)
    assert maxabs(E1 - lg.exp_alg(Xs[0])) == 0.0
    for i in range(6):
        assert maxabs(D1[i] - lg.eig_alg(Xs[0], dXs[i]).dexp()) < 1e-14


def test_stacked_scales_round_as_each_scale_alone():
    # bit for bit: a stack of scales takes the same floating-point steps
    # as each scale alone, also where numpy multiplies a large temporary
    # in place (su3 here: 33 x 64 3x3 complex matrices exceed 256 KiB)
    grid = ThetaGrid(64)
    rs = np.linspace(0.0, 1.0, 33)
    for seed in range(20):
        rng = sampling.make_rng(seed)
        for group in (lg.SU2, lg.SU3):
            X = sampling.random_loop_tangent(rng, grid, group)
            E, D = lg.exp_dexp_right(X.vals, X.dvals, rs)
            for i, r in enumerate(rs):
                e, d = lg.exp_dexp_right(X.vals, X.dvals, r)
                assert np.array_equal(E[i], e)
                assert np.array_equal(D[i], d)


def test_dexp_is_the_second_output_of_exp_dexp():
    # one formula: exp_dexp is (exp, dexp), and exp_dexp_right is
    # exp_dexp of the one decomposition, bit for bit
    rng = sampling.make_rng(29)
    for group in (lg.SU2, lg.SU3):
        X = sampling.random_algebra(rng, group, scale=3.0)
        dX = np.stack([sampling.random_algebra(rng, group) for _ in range(5)])
        eig = lg.eig_alg(X, dX)
        for t in (1.0, 0.3, np.array([[0.0, -2.0], [0.5, 7.0]])):
            e, d = eig.exp_dexp(t)
            assert np.array_equal(d, eig.dexp(t))
            assert np.array_equal(e, eig.exp(t))
        assert np.array_equal(eig.dexp(), lg.exp_dexp_right(X, dX)[1])


@st.composite
def _mm_operands(draw):
    n = draw(st.sampled_from((2, 3)))
    lead = draw(st.sampled_from(((), (1,), (4,), (2, 3), (3, 5))))
    side = draw(st.sampled_from(("both", "a single", "b single")))
    entries = hnp.arrays(float, (2,) + lead + (n, n),
                         elements=st.floats(-40.0, 40.0))

    def operand(single):
        parts = draw(entries)
        z = parts[0] + 1j * parts[1]
        return z[(0,) * len(lead)] if single else z

    return operand(side == "a single"), operand(side == "b single"), lead


@settings(max_examples=200, deadline=None)
@given(_mm_operands())
def test_mm_is_matmul_and_rounds_a_stack_as_its_slices(ops):
    a, b, lead = ops
    got = lg.mm(a, b)
    want = np.matmul(a, b)
    assert got.shape == want.shape
    n = a.shape[-1]
    # relative to n |a| |b| in the max norm, with an absolute floor
    # for products in the subnormal range
    scale = (n * np.max(np.abs(a), axis=(-2, -1), keepdims=True)
             * np.max(np.abs(b), axis=(-2, -1), keepdims=True))
    assert np.all(np.abs(got - want) <= 1e-14 * scale + 1e-300)
    A = np.broadcast_to(a, lead + (n, n))
    B = np.broadcast_to(b, lead + (n, n))
    for idx in np.ndindex(lead):
        assert np.array_equal(got[idx], lg.mm(A[idx], B[idx]))


@settings(max_examples=200, deadline=None)
@given(_mm_operands())
def test_trace_mm_is_the_trace_of_mm_bit_for_bit(ops):
    a, b, _ = ops
    want = np.trace(lg.mm(a, b), axis1=-2, axis2=-1)
    assert np.array_equal(lg.trace_mm(a, b), want)


def test_trace_mm_on_a_large_stack_bit_for_bit():
    # the (64, 16, 16) node stack of omega3_su2_integral
    rng = sampling.make_rng(23)
    for n in (2, 3):
        a, b = (rng.normal(size=(64, 16, 16, n, n))
                + 1j * rng.normal(size=(64, 16, 16, n, n)) for _ in range(2))
        want = np.trace(lg.mm(a, b), axis1=-2, axis2=-1)
        assert np.array_equal(lg.trace_mm(a, b), want)


def test_mm_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        lg.mm(np.eye(2), np.eye(3))


def test_eigen_kernels_reject_non_anti_hermitian_input():
    rng = sampling.make_rng(22)
    X = sampling.random_algebra(rng, lg.SU3)
    H = 1e-6 * (X @ X)  # Hermitian, so X + H is not anti-Hermitian
    for bad in (X + H, np.stack([X, X + H]), 1j * np.eye(3) + 1.0):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.exp_alg(bad)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.eig_alg(bad, X).dexp()
        with pytest.raises(ValueError, match="anti-Hermitian"):
            dexp_left(bad, X)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            lg.exp_dexp_right(bad, X, 0.5)
    # the tolerance is relative to the size of X
    big = 1e4 * X + 1e-9 * (X @ X)
    g = lg.exp_alg(big)
    assert maxabs(g.conj().T @ g - np.eye(3)) < 1e-10
    assert abs(np.linalg.det(g) - 1.0) < 1e-10
