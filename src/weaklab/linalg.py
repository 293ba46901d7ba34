"""Dense linear algebra with deterministic conventions.

Wraps numpy's Hermitian eigensolver and SVD behind fixed conventions (one
column order and phase for the common eigenbasis, one rank cutoff for the
pseudoinverse) so that every downstream result is reproducible bit-for-bit
across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InvalidMatrix, InvalidState, NotCommuting, NotPositive

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-12
#: eigenvalues closer than this (times the matrix scale) count as degenerate
DEGENERACY_TOL = 1e-8
#: magnitude below which a clamped negative eigenvalue is forgiven in psd_sqrt
PSD_CLAMP_REL = 1e-10
COMMUTATOR_REL_TOL = 1e-10


def frob(M: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def check_hermitian(M: np.ndarray) -> np.ndarray:
    """Return M as a complex array, raising InvalidMatrix if it is not Hermitian."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - dagger(M)).max() > HERMITIAN_TOL * scale:
        raise InvalidMatrix("matrix is not Hermitian within tolerance")
    return M


def check_state(v: np.ndarray) -> np.ndarray:
    """Return v as a complex vector, raising InvalidState if zero or unnormalized."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = float(np.linalg.norm(v))
    if n <= STATE_NORM_TOL:
        raise InvalidState("state vector is (numerically) zero")
    if abs(n - 1.0) > 1e-10:
        raise InvalidState(f"state vector norm {n!r} is not 1")
    return v


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (pivot.conjugate() / abs(pivot))


def _lex_key(v: np.ndarray) -> tuple:
    r = np.round(v.real, 9) + 0.0  # +0.0 normalizes -0.0
    i = np.round(v.imag, 9) + 0.0
    return tuple(np.stack([r, i], axis=1).ravel())


def pinv_and_rank(M: np.ndarray) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse together with the rank actually used.

    Singular values at or below 1e-12 * max(M.shape) * sigma_max are treated
    as exact zeros.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise InvalidMatrix(f"expected a matrix, got shape {M.shape}")
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=complex), 0
    keep = s > 1e-12 * max(M.shape) * s[0]
    rank = int(np.count_nonzero(keep))
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    P = dagger(vh) @ (inv[:, None] * dagger(u))
    return P, rank


def pinv(M: np.ndarray) -> np.ndarray:
    return pinv_and_rank(M)[0]


def psd_sqrt(E: np.ndarray) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10 * ||E||, 0) are clamped to zero; anything more
    negative raises NotPositive.
    """
    E = check_hermitian(E)
    w, V = np.linalg.eigh(E)
    scale = float(np.abs(w).max()) if w.size else 0.0
    if w.size and w[0] < -PSD_CLAMP_REL * max(scale, 1e-300):
        raise NotPositive(
            f"matrix has negative eigenvalue {w[0]:.3e} (scale {scale:.3e})"
        )
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)) @ dagger(V)
    return 0.5 * (R + dagger(R))


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| onto a normalized state."""
    v = check_state(v)
    return np.outer(v, v.conj())


def partial_trace_meter(T: np.ndarray, system_dim: int, meter_dim: int) -> np.ndarray:
    """Trace out the second (meter) factor of an operator on system (x) meter.

    The composite index convention is system-major: basis state (i, j) of the
    product space sits at flat index i * meter_dim + j.
    """
    T = np.asarray(T, dtype=complex)
    d = system_dim * meter_dim
    if system_dim < 1 or meter_dim < 1:
        raise DimensionError("dimensions must be positive")
    if T.shape != (d, d):
        raise DimensionError(
            f"operator shape {T.shape} does not match "
            f"system_dim * meter_dim = {d}"
        )
    R = T.reshape(system_dim, meter_dim, system_dim, meter_dim)
    return np.einsum("imjm->ij", R)


def commutator_norm(X: np.ndarray, Y: np.ndarray) -> float:
    return frob(X @ Y - Y @ X)


def common_eigenbasis(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Orthonormal basis (columns) simultaneously diagonalizing commuting Hermitian ops.

    Ordering: columns sorted by descending eigenvalue of the first operator,
    ties broken by the second, and so on; any degeneracy that survives the
    whole family is resolved lexicographically on the phase-fixed entries.
    Raises NotCommuting (with the offending pair and its commutator norm)
    when the family fails the pairwise test.
    """
    if not ops:
        raise InvalidMatrix("need at least one operator")
    mats = [check_hermitian(op) for op in ops]
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape != (d, d):
            raise DimensionError("operators must share a dimension")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cn = commutator_norm(mats[i], mats[j])
            if cn > COMMUTATOR_REL_TOL * max(frob(mats[i]) * frob(mats[j]), 1e-300):
                raise NotCommuting(i, j, cn)

    # iterative refinement: split the current invariant subspaces by each
    # operator's spectrum in turn, keeping blocks in descending-eigenvalue order
    blocks: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for m in mats:
        refined: list[np.ndarray] = []
        for B in blocks:
            S = dagger(B) @ m @ B
            S = 0.5 * (S + dagger(S))
            w, V = np.linalg.eigh(S)
            w, V = w[::-1], V[:, ::-1]
            scale = max(1.0, float(np.abs(w).max()))
            start = 0
            while start < len(w):
                stop = start + 1
                while stop < len(w) and abs(w[stop] - w[start]) <= DEGENERACY_TOL * scale:
                    stop += 1
                refined.append(B @ V[:, start:stop])
                start = stop
        blocks = refined

    columns = []
    for B in blocks:
        cols = [_canonical_phase(B[:, k]) for k in range(B.shape[1])]
        if len(cols) > 1:
            cols.sort(key=_lex_key)
        columns.extend(cols)
    basis = np.stack(columns, axis=1)

    for idx, m in enumerate(mats):
        D = dagger(basis) @ m @ basis
        off = D - np.diag(np.diag(D))
        if np.abs(off).max() > 1e-9 * max(1.0, float(np.abs(m).max())):
            raise NotCommuting(idx, idx, float(np.abs(off).max()))
    return basis


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Half the trace norm of A - B (both Hermitian)."""
    diff = check_hermitian(A) - check_hermitian(B)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())
