from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import linalg
from weaklab.errors import InvalidMatrix, InvalidState, NotCommuting, NotPositive


def random_hermitian(rng, d):
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (M + M.conj().T) / 2


def random_unitary(rng, d):
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(M)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def penrose_violation(M, P):
    """Largest deviation among the four defining identities."""
    return max(
        np.abs(M @ P @ M - M).max(),
        np.abs(P @ M @ P - P).max(),
        np.abs((M @ P).conj().T - M @ P).max(),
        np.abs((P @ M).conj().T - P @ M).max(),
    )


def test_pinv_penrose_identities():
    rng = np.random.default_rng(17)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        P, rank = linalg.pinv_and_rank(M)
        assert penrose_violation(M, P) < 1e-10
        assert rank == min(m, n)  # generic matrices have full rank


def test_pinv_rank_deficient():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(m, n)))
        M = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        P, rank = linalg.pinv_and_rank(M)
        assert rank == r
        assert penrose_violation(M, P) < 1e-9
        npt.assert_allclose(P, np.linalg.pinv(M), atol=1e-9)


def test_pinv_rectangular_shapes():
    # regression: wide/tall inputs must use the thin SVD factors
    rng = np.random.default_rng(2)
    M = rng.standard_normal((2, 5))
    P, rank = linalg.pinv_and_rank(M)
    assert P.shape == (5, 2)
    assert rank == 2
    npt.assert_allclose(M @ P, np.eye(2), atol=1e-12)


def test_pinv_zero_matrix():
    P, rank = linalg.pinv_and_rank(np.zeros((3, 2)))
    assert rank == 0
    npt.assert_array_equal(P, np.zeros((2, 3)))


def test_pinv_rank_cutoff_is_relative():
    # 1e-14 is dropped next to sigma_max = 1 but kept next to sigma_max = 1e-3
    P, rank = linalg.pinv_and_rank(np.diag([1.0, 1e-14]))
    assert rank == 1
    npt.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-12)
    P2, rank2 = linalg.pinv_and_rank(np.diag([1e-3, 1e-14]))
    assert rank2 == 2
    npt.assert_allclose(P2, np.diag([1e3, 1e14]), rtol=1e-12)


def test_stacked_pinv_equals_each_single_call():
    # full-rank, rank-deficient and all-zero items, real-valued and complex,
    # solved in one stacked call: every item is exactly the 2-D call's result
    rng = np.random.default_rng(29)
    m, n = 3, 4
    full = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    low = np.outer(rng.standard_normal(m), rng.standard_normal(n))  # rank 1, real
    items = [full, low, np.zeros((m, n)), rng.standard_normal((m, n)), 1j * low]
    stack = np.stack([np.asarray(M, dtype=complex) for M in items])
    P, ranks = linalg.pinv_and_rank(stack)
    assert P.shape == (len(items), n, m) and ranks.shape == (len(items),)
    for k, M in enumerate(items):
        P1, rank1 = linalg.pinv_and_rank(M)
        assert np.array_equal(P[k], P1)
        assert ranks[k] == rank1
    npt.assert_array_equal(ranks, [3, 1, 0, 3, 1])
    npt.assert_array_equal(P[2], np.zeros((n, m)))
    # a stack of stacks keeps its leading shape
    P2, ranks2 = linalg.pinv_and_rank(stack.reshape(5, 1, m, n))
    assert np.array_equal(P2[:, 0], P) and np.array_equal(ranks2[:, 0], ranks)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        E = B @ B.conj().T
        R = linalg.psd_sqrt(E)
        npt.assert_allclose(R @ R, E, atol=1e-9 * max(1.0, np.abs(E).max()))
        npt.assert_allclose(R, R.conj().T, atol=1e-12)


def test_psd_sqrt_clamps_tiny_negatives():
    E = np.diag([1.0, -1e-13])
    R = linalg.psd_sqrt(E)
    npt.assert_allclose(R, np.diag([1.0, 0.0]), atol=1e-6)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_projector():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    P = linalg.projector(v)
    npt.assert_allclose(P @ P, P, atol=1e-14)
    npt.assert_allclose(np.trace(P), 1.0, atol=1e-14)
    npt.assert_allclose(P @ v, v, atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(31)
    s = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s /= np.linalg.norm(s)
    f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f /= np.linalg.norm(f)
    T = np.kron(s, f)  # system-major layout
    rho = linalg.partial_trace_meter(np.outer(T, T.conj()), 3, 2)
    npt.assert_allclose(rho, np.outer(s, s.conj()), atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = linalg.partial_trace_meter(np.outer(bell, bell.conj()), 2, 2)
    npt.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)


def test_common_eigenbasis_recovers_diagonal_family():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        U = random_unitary(rng, d)
        diags = [rng.standard_normal(d) for _ in range(3)]
        ops = [U @ np.diag(w) @ U.conj().T for w in diags]
        V = linalg.common_eigenbasis(ops)
        for op in ops:
            D = V.conj().T @ op @ V
            off = D - np.diag(np.diag(D))
            assert np.abs(off).max() < 1e-8 * max(1.0, np.abs(D).max())


def test_common_eigenbasis_resolves_degeneracy_with_later_ops():
    # first operator alone cannot split the subspace; the second one must
    A = np.diag([1.0, 1.0, 0.0]).astype(complex)
    B = np.diag([2.0, -1.0, 5.0]).astype(complex)
    U = random_unitary(np.random.default_rng(41), 3)
    V = linalg.common_eigenbasis([U @ A @ U.conj().T, U @ B @ U.conj().T])
    for op in (A, B):
        D = V.conj().T @ (U @ op @ U.conj().T) @ V
        assert np.abs(D - np.diag(np.diag(D))).max() < 1e-8


def test_common_eigenbasis_rejects_noncommuting():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    with pytest.raises(NotCommuting) as err:
        linalg.common_eigenbasis([Z, X])
    assert err.value.pair == (0, 1)
    assert err.value.commutator_norm > 1.0
    # Z and I commute, I and X commute: (0, 2) is the first failing pair in
    # (i, j) order, reported with commutator_norm's own value
    with pytest.raises(NotCommuting) as err:
        linalg.common_eigenbasis([Z, np.eye(2), X])
    assert err.value.pair == (0, 2)
    assert err.value.commutator_norm == linalg.commutator_norm(
        linalg.check_hermitian(Z), linalg.check_hermitian(X)
    )


def test_commutator_norm():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    # [Z, X] = 2 i Y, Frobenius norm 2*sqrt(2)
    npt.assert_allclose(linalg.commutator_norm(Z, X), 2 * np.sqrt(2), atol=1e-12)
    assert linalg.commutator_norm(Z, Z) == 0.0


def test_trace_distance():
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    npt.assert_allclose(linalg.trace_distance(P0, P1), 1.0, atol=1e-14)
    npt.assert_allclose(linalg.trace_distance(P0, P0), 0.0, atol=1e-14)
    npt.assert_allclose(
        linalg.trace_distance(P0, np.eye(2) / 2), 0.5, atol=1e-14
    )


def test_check_state():
    v = linalg.check_state(np.array([1.0, 1.0]) / np.sqrt(2))
    npt.assert_allclose(np.linalg.norm(v), 1.0)
    with pytest.raises(InvalidState):
        linalg.check_state(np.array([1.0, 1.0]))
    with pytest.raises(InvalidState):
        linalg.check_state(np.zeros(2))


def test_check_hermitian():
    with pytest.raises(InvalidMatrix):
        linalg.check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = linalg.check_hermitian(np.eye(2))
    npt.assert_array_equal(H, np.eye(2))
