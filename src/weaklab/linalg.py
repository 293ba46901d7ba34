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
#: a state vector's norm may differ from 1 by this much
UNIT_NORM_TOL = 1e-10
#: eigenvalues closer than this (times the matrix scale) count as degenerate
DEGENERACY_TOL = 1e-8
#: magnitude below which a clamped negative eigenvalue is forgiven in psd_sqrt
PSD_CLAMP_REL = 1e-10
COMMUTATOR_REL_TOL = 1e-10


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


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
    if abs(n - 1.0) > UNIT_NORM_TOL:
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


def pinv_and_rank(M: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """Moore-Penrose pseudoinverse together with the rank actually used.

    Singular values at or below 1e-12 * max(m, n) * sigma_max are treated
    as exact zeros, so an all-zero matrix gets rank 0 and a zero inverse.
    M may be a stack (..., m, n): each matrix is solved on its own, bit for
    bit as a single call would solve it, and the ranks come back as an
    integer array of shape M.shape[:-2] (a plain int for one matrix).
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2:
        raise InvalidMatrix(f"expected a matrix, got shape {M.shape}")
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    keep = s > 1e-12 * max(M.shape[-2:]) * s[..., :1]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    P = dagger(vh) @ (inv[..., None] * dagger(u))
    rank = keep.sum(axis=-1)
    return (P, int(rank)) if M.ndim == 2 else (P, rank)


def pinv(M: np.ndarray) -> np.ndarray:
    return pinv_and_rank(M)[0]


def psd_sqrt(E: np.ndarray) -> np.ndarray:
    """Positive square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10 * ||E||, 0) are clamped to zero; anything more
    negative raises NotPositive.
    """
    E = check_hermitian(E)
    w, V = np.linalg.eigh(E)
    R = (V * np.sqrt(clamp_psd(w))) @ dagger(V)
    return 0.5 * (R + dagger(R))


def clamp_psd(w: np.ndarray) -> np.ndarray:
    """Spectra along the last axis of w with small negative eigenvalues set to zero.

    The one positivity rule of psd_sqrt, the weak-limit ladder and the meter:
    an eigenvalue below -PSD_CLAMP_REL times its spectrum's largest magnitude
    (or NaN) raises NotPositive for the first such spectrum in C order.
    """
    low = w.min(axis=-1)
    scale = np.abs(w).max(axis=-1)
    ok = low >= -PSD_CLAMP_REL * np.maximum(scale, 1e-300)
    if not ok.all():
        k = tuple(np.argwhere(~ok)[0])  # () for a single spectrum
        raise NotPositive(
            f"matrix has negative eigenvalue {low[k]:.3e} (scale {scale[k]:.3e})"
        )
    return np.maximum(w, 0.0)  # what np.clip(w, 0.0, None) computes


def _pow2_scale(M: np.ndarray) -> np.ndarray:
    """2**e per matrix with M / 2**e below 1 entrywise: dividing by it loses no bits."""
    return np.ldexp(1.0, np.frexp(np.abs(M).max(axis=(-2, -1)))[1])


def commutator_norm(X: np.ndarray, Y: np.ndarray) -> float:
    """Frobenius norm of XY - YX, taken on exactly scaled copies so only the result can overflow."""
    sx, sy = float(_pow2_scale(X)), float(_pow2_scale(Y))
    X, Y = X / sx, Y / sy
    return sx * sy * float(np.linalg.norm(X @ Y - Y @ X))


def _diagonal_basis(ops) -> np.ndarray | None:
    """common_eigenbasis of exactly diagonal operators, or None for any other input.

    Accepts a family of one square shape whose entries are finite, whose
    off-diagonal entries are exactly zero and whose diagonals pass
    check_hermitian's test; everything else is left to the general path,
    which raises what it always raised.  On such a family the off-diagonal
    entries of B^H op B are exactly zero, and so are the commutators of real
    diagonals (complex ones leave rounding noise far inside
    COMMUTATOR_REL_TOL): both commutation tests are identities, so they are
    skipped here, and for no other input.

    The refinement runs on the real diagonals, which are what eigh returns
    for them, with the same grouping; a degeneracy that survives every
    operator comes out in descending index, as _lex_key sorts unit vectors.
    Entries of 2**256 or more are left to the general path too: below that
    no product or norm it forms overflows and eigh does not rescale (above
    2**485 it does), so both paths agree on every family this one takes.
    """
    try:
        stack = np.array(ops, dtype=complex)
    except (TypeError, ValueError):
        return None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
        return None
    D = np.diagonal(stack, axis1=1, axis2=2)
    scale = np.maximum(1.0, np.abs(D).max(axis=1))
    if not (
        np.isfinite(D).all()
        and scale.max() < 2.0**256
        and np.count_nonzero(stack) == np.count_nonzero(D)
        and (np.abs(D - D.conj()) <= HERMITIAN_TOL * scale[:, None]).all()
    ):
        return None
    d = stack.shape[1]
    blocks = [list(range(d))]
    for w in D.real.tolist():
        if len(blocks) == d:
            break  # every column is already an eigenvector of every operator
        refined = []
        for b in blocks:
            b = sorted(b, key=lambda k: -w[k])
            tol = DEGENERACY_TOL * max(1.0, max(abs(w[k]) for k in b))
            start = 0
            for stop in range(1, len(b) + 1):
                if stop == len(b) or abs(w[b[stop]] - w[b[start]]) > tol:
                    refined.append(b[start:stop])
                    start = stop
        blocks = refined
    basis = np.zeros((d, d), dtype=complex)
    basis[[k for b in blocks for k in sorted(b, reverse=True)], range(d)] = 1.0
    return basis


def common_eigenbasis(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Orthonormal basis (columns) simultaneously diagonalizing commuting Hermitian ops.

    Ordering: columns sorted by descending eigenvalue of the first operator,
    ties broken by the second, and so on; any degeneracy that survives the
    whole family is resolved lexicographically on the phase-fixed entries.
    Raises NotCommuting (with the first offending pair in (i, j) order and
    its commutator norm) when the family fails the pairwise test, or with
    (idx, idx) when the finished basis leaves op idx off-diagonal.

    Each operator only refines the blocks that are still degenerate: a
    one-column block is already an eigenvector of every operator, and
    LAPACK would return its single eigenvalue with eigenvector 1, so it is
    kept without an eigh call.  Once an operator with a simple spectrum has
    been seen, the remaining operators cost no eigendecomposition at all.

    No eigendecomposition runs at all when every operator is exactly
    diagonal (see _diagonal_basis): the basis is then the permutation
    matrix that the refinement above gives, bit for bit.
    """
    if not ops:
        raise InvalidMatrix("need at least one operator")
    basis = _diagonal_basis(ops)
    if basis is not None:
        return basis
    mats = [check_hermitian(op) for op in ops]
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape != (d, d):
            raise DimensionError("operators must share a dimension")
    stack = np.stack(mats)
    left, right = np.triu_indices(len(mats), 1)
    if left.size:
        # a relative test, so each operator may be scaled down first: no overflow at any size
        unit = stack / _pow2_scale(stack)[:, None, None]
        X, Y = unit[left], unit[right]
        norms = np.linalg.norm(X @ Y - Y @ X, axis=(-2, -1))
        sizes = np.linalg.norm(unit, axis=(-2, -1))
        bad = np.flatnonzero(
            norms > COMMUTATOR_REL_TOL * np.maximum(sizes[left] * sizes[right], 1e-300)
        )
        if bad.size:
            i, j = int(left[bad[0]]), int(right[bad[0]])
            raise NotCommuting(i, j, commutator_norm(mats[i], mats[j]))

    # iterative refinement: split the current invariant subspaces by each
    # operator's spectrum in turn, keeping blocks in descending-eigenvalue order
    blocks: list[np.ndarray] = [np.eye(d, dtype=complex)]
    for m in mats:
        refined: list[np.ndarray] = []
        for B in blocks:
            if B.shape[1] == 1:
                refined.append(B)
                continue
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

    off = np.abs(dagger(basis) @ stack @ basis)
    off[:, range(d), range(d)] = 0.0
    worst = off.max(axis=(-2, -1))
    bad = np.flatnonzero(worst > 1e-9 * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1))))
    if bad.size:
        idx = int(bad[0])
        raise NotCommuting(idx, idx, float(worst[idx]))
    return basis
