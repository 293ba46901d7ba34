"""Contextual values: outcome weights that reproduce an observable's statistics.

For a commuting measurement family and observable, everything reduces to a
spectral matrix F(g) whose entry (i, j) is the i-th common-basis eigenvalue
of outcome j.  Weights alpha solving F(g) alpha = a (the observable's
eigenvalues) make the weighted outcome statistics reproduce the observable's
moments; the pseudoinverse picks the minimum-norm solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoExactCv, ValidationError
from .linalg import check_hermitian, common_eigenbasis, dagger, pinv_and_rank
from .povm import COEFF_ZERO_TOL, ParamPovm, PolyMatrix

ROW_SUM_TOL = 1e-11
EXACT_CV_TOL = 1e-9
ALPHA_MATCH_RTOL = 1e-8


@dataclass(frozen=True)
class FMatrix:
    """Spectral matrix of a commuting measurement, plus the observable's eigenvalues.

    poly evaluates to the d x n_out matrix of outcome eigenvalues; a_vec holds
    the observable eigenvalues in the same (descending) basis order.
    """

    poly: PolyMatrix
    a_vec: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_vec, dtype=float)
        object.__setattr__(self, "a_vec", a)
        if self.poly.shape[0] != len(a):
            raise ValidationError(
                "BadShape",
                f"a_vec length {len(a)} does not match {self.poly.shape[0]} rows",
            )

    @property
    def dim(self) -> int:
        return self.poly.shape[0]

    @property
    def n_out(self) -> int:
        return self.poly.shape[1]

    def at(self, g: float) -> np.ndarray:
        return np.real(self.poly(g))

    def row_sum_residual(self) -> float:
        """Deviation of the row sums from 1: the spectral shadow of completeness."""
        worst = 0.0
        for k, c in enumerate(self.poly.coefficients):
            target = 1.0 if k == 0 else 0.0
            worst = max(worst, float(np.abs(c.real.sum(axis=1) - target).max()))
        return worst


def build_F(povm: ParamPovm, A: np.ndarray) -> FMatrix:
    """Diagonalize the observable and every coefficient together and read off F.

    Basis order: descending eigenvalues of A, ties broken by the coefficient
    matrices in (outcome, order) sequence.  Raises NotCommuting if the family
    does not commute, and ValidationError("RowSum") if the row-sum identity
    fails (i.e. the measurement was not complete).
    """
    A = check_hermitian(A)
    ops = [A]
    for e in povm.elements:
        for c in e.coefficients:
            if np.abs(c).max() > COEFF_ZERO_TOL:
                ops.append(np.asarray(c))
    basis = common_eigenbasis(ops)

    a_vec = np.real(np.diag(dagger(basis) @ A @ basis))
    degree = povm.max_degree
    coeffs = []
    for k in range(degree + 1):
        C = np.empty((povm.dim, povm.n_out))
        for j, e in enumerate(povm.elements):
            C[:, j] = np.real(np.diag(dagger(basis) @ e.coefficient(k) @ basis))
        coeffs.append(C)
    F = FMatrix(poly=PolyMatrix(coeffs), a_vec=a_vec)

    resid = F.row_sum_residual()
    if resid > ROW_SUM_TOL:
        raise ValidationError(
            "RowSum",
            f"spectral rows do not sum to one (residual {resid:.3e}); "
            "the measurement is not complete",
        )
    return F


@dataclass(frozen=True)
class CvSolution:
    """Pseudoinverse contextual values at one coupling."""

    g: float
    alpha: np.ndarray
    residual: float  # ||F(g) alpha - a||_2, equal to the Frobenius operator residual
    rank_used: int


def pseudoinverse_cv(F: FMatrix, g: float) -> CvSolution:
    """Minimum-norm least-squares weights alpha = pinv(F(g)) a.

    The reported residual is the euclidean norm of F(g) alpha - a, which for
    a spectral matrix equals the Frobenius distance between the weighted
    outcome sum and the observable.
    """
    Fg = F.at(g)
    P, rank = pinv_and_rank(Fg)
    alpha = np.real(P @ F.a_vec)
    residual = float(np.linalg.norm(Fg @ alpha - F.a_vec))
    return CvSolution(g=float(g), alpha=alpha, residual=residual, rank_used=rank)


def exact_cv_exists(F: FMatrix, g_grid: np.ndarray) -> bool:
    """True when the pseudoinverse residual stays below EXACT_CV_TOL at every coupling."""
    return all(pseudoinverse_cv(F, g).residual <= EXACT_CV_TOL for g in np.asarray(g_grid, float))


@dataclass
class TruncationReport:
    """Full versus truncated pseudoinverse solutions along a grid."""

    n: int
    mode: str
    g_grid: np.ndarray
    alpha_full: np.ndarray  # (n_grid, n_out)
    alpha_truncated: np.ndarray
    full_residuals: np.ndarray
    truncated_residuals: np.ndarray
    full_solvable: bool
    truncated_solvable: bool
    alphas_match: bool


def truncated_cv_check(
    povm: ParamPovm,
    A: np.ndarray,
    n: int,
    g_grid: np.ndarray,
    mode: str = "eq13",
) -> TruncationReport:
    """Do the truncated outcome family's contextual values survive truncation?

    Builds the spectral matrix once and truncates it directly (the truncated
    family is diagonal in the same basis), then compares pseudoinverse
    solutions point by point.  A family is solvable when its residual stays
    within EXACT_CV_TOL; alphas_match requires agreement within
    ALPHA_MATCH_RTOL relative at every grid point.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    F = build_F(povm, A)
    Ft = FMatrix(poly=F.poly.truncate(n, mode), a_vec=F.a_vec)

    n_g = len(g_grid)
    af = np.empty((n_g, povm.n_out))
    at = np.empty((n_g, povm.n_out))
    rf = np.empty(n_g)
    rt = np.empty(n_g)
    match = True
    for i, g in enumerate(g_grid):
        sf = pseudoinverse_cv(F, g)
        st = pseudoinverse_cv(Ft, g)
        af[i], rf[i] = sf.alpha, sf.residual
        at[i], rt[i] = st.alpha, st.residual
        scale = np.linalg.norm(sf.alpha)
        if scale <= 1e-300:
            match = match and np.linalg.norm(st.alpha) <= 1e-300
        else:
            match = match and np.linalg.norm(sf.alpha - st.alpha) <= ALPHA_MATCH_RTOL * scale

    return TruncationReport(
        n=n,
        mode=mode,
        g_grid=g_grid,
        alpha_full=af,
        alpha_truncated=at,
        full_residuals=rf,
        truncated_residuals=rt,
        full_solvable=bool(np.all(rf <= EXACT_CV_TOL)),
        truncated_solvable=bool(np.all(rt <= EXACT_CV_TOL)),
        alphas_match=bool(match),
    )


def variance_min_cv(F: FMatrix, g: float, probs: np.ndarray) -> CvSolution:
    """Exact contextual values minimizing the detector variance sum_j p_j alpha_j^2.

    Solved as a weighted minimum-norm problem: substitute beta = sqrt(p) alpha
    and take the pseudoinverse solution of (F(g) / sqrt(p)) beta = a.  Raises
    NoExactCv when no exact solution exists at all.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (F.n_out,):
        raise ValueError(f"probs must have shape ({F.n_out},), got {probs.shape}")
    if np.any(probs <= 0):
        raise ValueError("outcome probabilities must be strictly positive")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {probs.sum()!r}, not 1")

    root = np.sqrt(probs)
    Fg = F.at(g)
    G = Fg / root[None, :]
    P, rank = pinv_and_rank(G)
    alpha = np.real(P @ F.a_vec) / root
    residual = float(np.linalg.norm(Fg @ alpha - F.a_vec))
    if residual > EXACT_CV_TOL:
        raise NoExactCv(
            f"no exact contextual values at g={g}: best residual {residual:.3e}"
        )
    return CvSolution(g=float(g), alpha=alpha, residual=residual, rank_used=rank)

