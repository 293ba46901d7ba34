from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import contextual, linalg, meter, registry, weak
from weaklab.errors import DimensionError, InvalidMatrix, InvalidState, NotCommuting, NotPositive
from weaklab.povm import ParamPovm, PolyMatrix

from oracles import partial_trace_meter, projector, trace_distance


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
    P = projector(v)
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
    rho = partial_trace_meter(np.outer(T, T.conj()), 3, 2)
    npt.assert_allclose(rho, np.outer(s, s.conj()), atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = partial_trace_meter(np.outer(bell, bell.conj()), 2, 2)
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
    # at 1e100 the pair is still refused, with the unscaled pair's norm and no overflow
    with pytest.raises(NotCommuting) as err:
        linalg.common_eigenbasis([1e100 * Z, 1e100 * X])
    assert err.value.pair == (0, 1)
    npt.assert_allclose(err.value.commutator_norm, 2 * np.sqrt(2) * 1e200, rtol=1e-15)


@pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
def test_common_eigenbasis_of_a_huge_commuting_family(scale):
    # the commutator test runs on scaled copies, so nothing overflows
    U = random_unitary(np.random.default_rng(5), 3)
    ops = [scale * U @ np.diag(w) @ U.conj().T for w in ([1.0, 2.0, -3.0], [0.5, -1.0, 2.0])]
    ops = [(op + op.conj().T) / 2 for op in ops]
    V = linalg.common_eigenbasis(ops)
    for op in ops:
        D = V.conj().T @ op @ V
        assert np.abs(D - np.diag(np.diag(D))).max() < 1e-12 * np.abs(D).max()


def test_commutator_norm_scaling_is_exact():
    # power-of-two scaling: the plain norm's bits wherever that one neither overflows nor underflows
    rng = np.random.default_rng(11)
    for scale in (1e-60, 1e-3, 1.0, 7.0, 1e60):
        X, Y = (scale * random_hermitian(rng, 4) for _ in range(2))
        assert linalg.commutator_norm(X, Y) == float(np.linalg.norm(X @ Y - Y @ X))
    assert linalg.commutator_norm(np.zeros((2, 2)), np.eye(2)) == 0.0


# ---------------------------------------------- diagonal path vs. eigh oracle


def _oracle_canonical_phase(v):
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (pivot.conjugate() / abs(pivot))


def _oracle_lex_key(v):
    r = np.round(v.real, 9) + 0.0
    i = np.round(v.imag, 9) + 0.0
    return tuple(np.stack([r, i], axis=1).ravel())


def oracle_common_eigenbasis(ops):
    """common_eigenbasis as it was before the diagonal path: eigh refinement always."""
    if not ops:
        raise InvalidMatrix("need at least one operator")
    mats = [linalg.check_hermitian(op) for op in ops]
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape != (d, d):
            raise DimensionError("operators must share a dimension")
    stack = np.stack(mats)
    left, right = np.triu_indices(len(mats), 1)
    if left.size:
        X, Y = stack[left], stack[right]
        norms = np.linalg.norm(X @ Y - Y @ X, axis=(-2, -1))
        sizes = np.linalg.norm(stack, axis=(-2, -1))
        bad = np.flatnonzero(
            norms > linalg.COMMUTATOR_REL_TOL * np.maximum(sizes[left] * sizes[right], 1e-300)
        )
        if bad.size:
            i, j = int(left[bad[0]]), int(right[bad[0]])
            raise NotCommuting(i, j, linalg.commutator_norm(mats[i], mats[j]))
    blocks = [np.eye(d, dtype=complex)]
    for m in mats:
        refined = []
        for B in blocks:
            if B.shape[1] == 1:
                refined.append(B)
                continue
            S = linalg.dagger(B) @ m @ B
            S = 0.5 * (S + linalg.dagger(S))
            w, V = np.linalg.eigh(S)
            w, V = w[::-1], V[:, ::-1]
            scale = max(1.0, float(np.abs(w).max()))
            start = 0
            while start < len(w):
                stop = start + 1
                while stop < len(w) and abs(w[stop] - w[start]) <= linalg.DEGENERACY_TOL * scale:
                    stop += 1
                refined.append(B @ V[:, start:stop])
                start = stop
        blocks = refined
    columns = []
    for B in blocks:
        cols = [_oracle_canonical_phase(B[:, k]) for k in range(B.shape[1])]
        if len(cols) > 1:
            cols.sort(key=_oracle_lex_key)
        columns.extend(cols)
    basis = np.stack(columns, axis=1)
    off = np.abs(linalg.dagger(basis) @ stack @ basis)
    off[:, range(d), range(d)] = 0.0
    worst = off.max(axis=(-2, -1))
    bad = np.flatnonzero(worst > 1e-9 * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1))))
    if bad.size:
        idx = int(bad[0])
        raise NotCommuting(idx, idx, float(worst[idx]))
    return basis


def assert_matches_oracle(ops, diagonal=True):
    assert (linalg._diagonal_basis(ops) is not None) == diagonal
    assert linalg.common_eigenbasis(ops).tobytes() == oracle_common_eigenbasis(ops).tobytes()


def recorded_families(monkeypatch, run):
    """Every op list that run() hands to common_eigenbasis through contextual."""
    seen = []
    solve = contextual.common_eigenbasis
    monkeypatch.setattr(contextual, "common_eigenbasis", lambda ops: seen.append(list(ops)) or solve(ops))
    run()
    monkeypatch.undo()
    return seen


def test_diagonal_path_matches_oracle_on_registry_families(monkeypatch):
    def run():
        for name in registry.REGISTRY:
            spec = registry.get_instance(name)
            if spec.povm is not None:
                contextual.build_F(spec.povm, spec.observable)
                meter.positive_family(spec.povm)

    families = recorded_families(monkeypatch, run)
    assert len(families) == 6  # eq70 is a raw matrix family
    for ops in families:
        assert_matches_oracle(ops)


def test_diagonal_path_matches_oracle_on_sweep_families(monkeypatch):
    families = recorded_families(
        monkeypatch, lambda: [weak.conjecture_trial(7, t) for t in range(100)]
    )
    assert len(families) >= 100
    for ops in families:
        assert_matches_oracle(ops)


def test_diagonal_path_matches_oracle_on_degenerate_families(monkeypatch):
    t = linalg.DEGENERACY_TOL
    h = linalg.HERMITIAN_TOL
    diag = np.diag
    neg_off = diag([1.0, 2.0]) * np.array([[1.0, -0.0], [-0.0, 1.0]])
    families = [
        [diag([1.0, 1.0, 0.0, 0.0]), diag([2.0, 2.0, 2.0, 5.0])],  # exact ties
        [diag([1.0, 1.0 + 0.5 * t, 1.0 - 0.5 * t, 0.5]), diag([0.0, 1.0, 2.0, 3.0])],
        # grouped against each group's first value: 1 and 1 - 0.8t tie,
        # 1 - 1.6t starts a new group, though it is within t of 1 - 0.8t
        [diag([1.0 - 1.6 * t, 1.0, 1.0 - 0.8 * t]), diag([3.0, 1.0, 2.0])],
        [diag([1e6 * (1 + 0.9 * t), 1e6, 7.0])],  # tolerance scales with |w|max
        [np.eye(3), 2.0 * np.eye(3)],  # ties that survive every operator
        [diag([5.0, 5.0, 5.0, 1.0]), diag([0.0, 0.0, 0.0, 0.0])],
        [diag([1.0 + 0.4j * h, 0.5 - 0.4j * h, 0.5]), diag([0.0, 0.25j * h, 1.0])],
        [diag([-0.0, 0.0, 1.0]), diag([0.0, -0.0, -0.0])],  # signed zeros
        [neg_off, np.eye(2)],  # -0.0 off the diagonal is still diagonal
        [diag([3.0, -1.0, 2.0]).real],  # real dtype, simple spectrum
        [np.array([[2.0]])],
        [diag([1e70, -1e70, 1e70 * (1 + 0.5 * t)]), diag([1.0, 2.0, 3.0])],
        [diag([1e-200, 0.0, -1e-200])],
    ]
    for ops in families:
        assert_matches_oracle(ops)

    # degree-0 outcomes: an outcome with no coupling dependence at all
    povm = ParamPovm(
        elements=(
            PolyMatrix([np.eye(2) / 3]),
            PolyMatrix([np.eye(2) / 3, diag([1.0, -1.0]) / 3]),
            PolyMatrix([np.eye(2) / 3, diag([-1.0, 1.0]) / 3]),
        ),
        g_max=0.5,
    )
    recorded = recorded_families(
        monkeypatch,
        lambda: (contextual.build_F(povm, diag([1.0, 1.0])), meter.positive_family(povm)),
    )
    assert len(recorded) == 2
    for ops in recorded:
        assert_matches_oracle(ops)


def test_general_path_still_serves_every_other_family():
    U = random_unitary(np.random.default_rng(17), 3)
    rotated = [U @ np.diag(w) @ U.conj().T for w in ([1.0, 1.0, 0.0], [2.0, -1.0, 5.0])]
    assert_matches_oracle(rotated, diagonal=False)
    # beyond 2**256 the diagonal path steps aside, so overflow stays the general path's
    assert_matches_oracle([np.diag([2.0**256, 1.0])], diagonal=False)


@pytest.mark.parametrize(
    "ops",
    [
        [np.diag([np.nan, 1.0])],
        [np.diag([1.0, 2.0]), np.diag([np.inf, 0.0])],
        [np.diag([1.0, 2.0]), np.ones((2, 3))],
        [np.eye(2), np.eye(3)],
        [np.diag([1.0, 1j])],  # not Hermitian
        [np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],  # not commuting
        [np.zeros((0, 0))],
        [],
    ],
    ids=[
        "nan", "inf-second", "non-square", "mixed-dims", "non-hermitian", "non-commuting",
        "zero-dim", "empty",
    ],
)
def test_diagonal_path_keeps_every_error(ops):
    with pytest.raises(Exception) as want:
        oracle_common_eigenbasis(ops)
    with pytest.raises(Exception) as got:
        linalg.common_eigenbasis(ops)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=4
        )
    ),
    st.floats(min_value=1e-300, max_value=1e70),
)
def test_diagonal_path_equals_oracle_bit_for_bit(rows, scale):
    # small integers make exact ties common; the scale moves them across
    # the degeneracy tolerance's max(1, |w|max) floor
    assert_matches_oracle([np.diag(np.array(r, dtype=complex) * scale) for r in rows])


def test_commutator_norm():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.diag([1.0, -1.0])
    # [Z, X] = 2 i Y, Frobenius norm 2*sqrt(2)
    npt.assert_allclose(linalg.commutator_norm(Z, X), 2 * np.sqrt(2), atol=1e-12)
    assert linalg.commutator_norm(Z, Z) == 0.0


def test_trace_distance():
    P0 = np.diag([1.0, 0.0])
    P1 = np.diag([0.0, 1.0])
    npt.assert_allclose(trace_distance(P0, P1), 1.0, atol=1e-14)
    npt.assert_allclose(trace_distance(P0, P0), 0.0, atol=1e-14)
    npt.assert_allclose(
        trace_distance(P0, np.eye(2) / 2), 0.5, atol=1e-14
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
