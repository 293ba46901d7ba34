"""Dense linear algebra with deterministic conventions.

Wraps numpy's Hermitian eigensolver and SVD behind fixed conventions (one
column order and phase for the common eigenbasis, one rank cutoff for the
pseudoinverse) so that every downstream result is reproducible bit-for-bit
across runs.  Every SVD of `pinv_and_rank` and every least-squares solve of
`_lstsq_rows` is one call of what `_bind_lapack` bound at import: numpy's
private LAPACK gufunc where it passes a known-answer check, else the public one.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DimensionError, InvalidMatrix, InvalidState, NotCommuting, NotPositive

HERMITIAN_TOL = 1e-12
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
    if not np.isfinite(M).all():
        raise InvalidMatrix("matrix contains non-finite entries")
    if np.abs(M - dagger(M)).max() > hermitian_bound(M):
        raise InvalidMatrix("matrix is not Hermitian within tolerance")
    return M


def hermitian_bound(M: np.ndarray) -> float:
    """The largest |M - M^H| entry a Hermitian M may have: HERMITIAN_TOL times max(1, max |M|)."""
    return HERMITIAN_TOL * max(1.0, float(np.abs(M).max()))


def check_state(v: np.ndarray) -> np.ndarray:
    """Return v as a complex vector, raising InvalidState unless its norm is 1 +- UNIT_NORM_TOL."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and is refused
        n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= UNIT_NORM_TOL:
        raise InvalidState(f"state vector norm {n!r} is not 1")
    return v


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase of a unit vector so its largest-magnitude entry is real positive."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot.conjugate() / abs(pivot))


def _lex_key(v: np.ndarray) -> tuple:
    r = np.round(v.real, 9) + 0.0  # +0.0 normalizes -0.0
    i = np.round(v.imag, 9) + 0.0
    return tuple(np.stack([r, i], axis=1).ravel())


def pinv_and_rank(M: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """Moore-Penrose pseudoinverse together with the rank actually used.

    Singular values at or below 1e-12 * max(m, n) * sigma_max are treated
    as exact zeros, so an all-zero matrix gets rank 0 and a zero inverse.
    M is a matrix or a stack (..., m, n), one code path for both: each is
    solved on its own, bit for bit as alone, and the ranks come back as an
    intp array of shape M.shape[:-2] (a plain int for one matrix).

    The SVD is one call of _svd, with svd's error state: each matrix is
    factored bit for bit as np.linalg.svd(M, full_matrices=False) factors
    it, and LAPACK's failure to converge raises LinAlgError as svd does.
    The kept singular values are inverted in place of a zero array
    (np.divide with where=), so a dropped one is never divided, and the rank
    is their count.  1/sigma may overflow for a kept subnormal sigma: callers
    that accept that hold an errstate over the call.
    """
    M = np.asarray(M)
    if M.ndim < 2:
        raise InvalidMatrix(f"expected a matrix, got shape {M.shape}")
    with _lapack_errstate("SVD did not converge"):
        u, s, vh = _svd(M)
    keep = s > 1e-12 * max(M.shape[-2:]) * s[..., :1]  # 0 x n and m x 0 keep none
    inv = np.divide(1.0, s, out=np.zeros(s.shape), where=keep)
    ranks = np.count_nonzero(keep, axis=-1)
    return dagger(vh) @ (inv[..., None] * dagger(u)), ranks if M.ndim > 2 else int(ranks)


def _lstsq_rows(a: np.ndarray, b: np.ndarray, rcond: float) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.lstsq(a[m], b[m], rcond)'s solution and rank, bit for bit, for each row m of real stacks
    a (..., p, q) and b (..., p), which broadcast, as arrays (..., q) and (...), in one call of _lstsq."""
    with _lapack_errstate("SVD did not converge in Linear Least Squares"):
        x, ranks = _lstsq(a, b[..., None], rcond)
    return x[..., 0], ranks


def _lapack_errstate(message: str) -> np.errstate:
    """np.linalg's error state over a LAPACK gufunc, whose one callback raises LinAlgError(message)."""
    def failed(err, flag):
        raise LinAlgError(message)
    return np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore")


def _bind_lapack(umath) -> tuple:
    """(_svd, _lstsq): the gufuncs of umath (numpy's _umath_linalg, or None) that np.linalg.svd(M,
    full_matrices=False) and np.linalg.lstsq(a, b) call, b (..., p, 1) giving x (..., q, 1) and
    ranks, each where it answers a fixed 2 x 2 bit for bit as that function does; else the function."""
    def svd(M):
        return umath.svd_s(M, signature="D->DdD")
    def lstsq(a, b, rcond):
        return umath.lstsq(a, b, rcond, signature="ddd->ddid")[::2]  # (x, rank)
    def public_svd(M):
        return np.linalg.svd(np.asarray(M, dtype=complex), full_matrices=False)
    def public_lstsq(a, b, rcond):  # row by row
        return np.vectorize(lambda a, b: np.linalg.lstsq(a, b, rcond)[::2], otypes="di",
                            signature="(p,q),(p,k)->(q,k),()")(a, b)
    def checked(private, public, *known):
        with contextlib.suppress(Exception):  # a private gufunc that is gone or changed may fail in any way
            if all(v.dtype == w.dtype and v.shape == w.shape and v.tobytes() == w.tobytes()
                   for v, w in zip(private(*known), public(*known), strict=True)):
                return private
        return public
    K = np.array([[1.0, 2.0], [3.0, 4.0]])
    return checked(svd, public_svd, K), checked(lstsq, public_lstsq, K, K[:, :1], 1e-15)


_svd, _lstsq = _bind_lapack(getattr(np.linalg, "_umath_linalg", None))


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

    The one positivity rule of psd_sqrt, weak._postselection and povm.root_family:
    an eigenvalue below -PSD_CLAMP_REL times its spectrum's largest magnitude
    (or NaN) raises NotPositive for the first such spectrum in C order.  A
    spectrum whose minimum is at least 0 passes whatever its scale, so the
    scale is formed only when some minimum is negative or NaN, as
    max(max w, -min w): that is max |w|, with no |w| array formed.
    """
    low = w.min(axis=-1)
    if not (low >= 0).all():
        scale = np.maximum(w.max(axis=-1), -low)
        ok = low >= -PSD_CLAMP_REL * np.maximum(scale, 1e-300)
        if not ok.all():
            k = tuple(np.argwhere(~ok)[0])  # () for a single spectrum
            raise NotPositive(
                f"matrix has negative eigenvalue {low[k]:.3e} (scale {scale[k]:.3e})"
            )
    return np.maximum(w, 0.0)  # what np.clip(w, 0.0, None) computes


def pow2_scale(M: np.ndarray, axis=(-2, -1)) -> np.ndarray:
    """2**(e - 1) per matrix (per row with axis=-1): the largest entry over it is in [1, 2).

    Dividing by it loses no bits, no square overflows, and it is finite for every float."""
    return np.ldexp(1.0, np.frexp(np.abs(M).max(axis=axis))[1] - 1)


def commutator_norm(X: np.ndarray, Y: np.ndarray) -> float:
    """Frobenius norm of XY - YX, taken on exactly scaled copies so only the result can overflow."""
    sx, sy = float(pow2_scale(X)), float(pow2_scale(Y))
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
    D = stack.diagonal(axis1=1, axis2=2)
    scale = np.maximum(1.0, np.abs(D).max(axis=1))  # NaN or inf where a diagonal entry is not finite
    # below 2**256, |D - D^H| = |2i Im D| exactly: the Hermitian test on |Im D| takes half the bound
    if not (
        scale.max() < 2.0**256
        and np.count_nonzero(stack) == np.count_nonzero(D)
        and (np.abs(D.imag) <= 0.5 * HERMITIAN_TOL * scale[:, None]).all()
    ):
        return None
    d = stack.shape[1]
    blocks = [list(range(d))]
    for w in D.real.tolist():
        if len(blocks) == d:
            break  # every column is already an eigenvector of every operator
        refined = []
        for b in blocks:
            if len(b) == 1:
                refined.append(b)
                continue
            b = sorted(b, key=w.__getitem__, reverse=True)  # stable: ties keep their order
            tol = DEGENERACY_TOL * max(1.0, abs(w[b[0]]), abs(w[b[-1]]))
            start = 0
            for stop in range(1, len(b) + 1):
                if stop == len(b) or abs(w[b[stop]] - w[b[start]]) > tol:
                    refined.append(b[start:stop])
                    start = stop
        blocks = refined
    basis = np.zeros((d, d), dtype=complex)
    basis[[k for b in blocks for k in sorted(b, reverse=True)], np.arange(d)] = 1.0
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
        unit = stack / pow2_scale(stack)[:, None, None]
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
