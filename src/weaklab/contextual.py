"""Contextual values: outcome weights that reproduce an observable's statistics.

For a commuting measurement family and observable, everything reduces to a
spectral matrix F(g) whose entry (i, j) is the i-th common-basis eigenvalue
of outcome j: E_j(g) = B diag(F(g)[:, j]) B^H for the common eigenbasis B.
Weights alpha solving F(g) alpha = a (the observable's eigenvalues) make the
weighted outcome statistics reproduce the observable's moments; the
pseudoinverse picks the minimum-norm solution.

A coupling grid is solved in one go: `solve_grid` evaluates F on the whole
grid as a (n_g, dim, n_out) stack and takes every pseudoinverse in one
stacked call.  Each grid point comes out bit for bit as the single-coupling
`pseudoinverse_cv` would give it.  `exact_cv_exists`, `truncated_cv_check`,
`asymptotics.pinv_pole_order`, `weak.weak_limit` and the conjecture
generator all go through `solve_grid`; the last two hand their solution on
to the weak-limit ladder, so a grid is solved once per limit.

A solution is exact when its residual ||F(g) alpha - a|| is within
EXACT_CV_TOL; `is_exact` is the one place that comparison is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import check_hermitian, common_eigenbasis, dagger, pinv_and_rank
from .povm import COEFF_ZERO_TOL, ParamPovm, PolyMatrix

ROW_SUM_TOL = 1e-11
EXACT_CV_TOL = 1e-9
ALPHA_MATCH_RTOL = 1e-8


@dataclass(frozen=True)
class FMatrix:
    """Spectral matrix of a commuting measurement, plus the observable's eigenvalues.

    poly evaluates to the d x n_out matrix of outcome eigenvalues; a_vec holds
    the observable eigenvalues in the same (descending) basis order.  basis
    is the unitary whose columns are the common eigenvectors that build_F
    found, in row order, so E_j(g) = basis diag(F(g)[:, j]) basis^H; it is
    None for a raw matrix family, which has no operators behind it.  a_vec
    is a read-only copy, so nothing solved from F can go stale.
    """

    poly: PolyMatrix
    a_vec: np.ndarray
    basis: np.ndarray | None = None
    #: pseudoinverse_cv's last solution, handed back for a repeated coupling
    _last_cv: CvSolution | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a_vec, dtype=float)
        a.setflags(write=False)
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
        sums = np.real(self.poly.coefficients).sum(axis=-1)  # (degree + 1, d)
        sums[0] -= 1.0
        return float(np.abs(sums).max())


def spectral_family(povm: ParamPovm, *lead: np.ndarray) -> tuple[np.ndarray, PolyMatrix]:
    """(basis, poly): the common eigenbasis of lead and every nonzero coefficient,
    and E_j(g) = basis diag(poly(g)[:, j]) basis^H read off in it.

    Basis order: descending eigenvalues of the lead operators, ties broken
    by the coefficients in (outcome, order) sequence.  Raises NotCommuting.
    """
    C = povm.coefficients  # (n_out, degree + 1, d, d)
    nonzero = np.abs(C).max(axis=(-2, -1)) > COEFF_ZERO_TOL
    basis = common_eigenbasis([*lead, *C[nonzero]])
    spectra = np.real(np.diagonal(dagger(basis) @ C @ basis, axis1=-2, axis2=-1))
    return basis, PolyMatrix(spectra.transpose(1, 2, 0))  # (degree + 1, d, n_out)


def build_F(povm: ParamPovm, A: np.ndarray) -> FMatrix:
    """Diagonalize the observable and every coefficient together and read off F.

    The basis is spectral_family's with A leading.  Raises NotCommuting if
    the family does not commute, and ValidationError("RowSum") if the
    row-sum identity fails (i.e. the measurement was not complete).
    """
    A = check_hermitian(A)
    basis, poly = spectral_family(povm, A)
    a_vec = np.real(np.diag(dagger(basis) @ A @ basis))
    F = FMatrix(poly=poly, a_vec=a_vec, basis=basis)

    resid = F.row_sum_residual()
    if resid > ROW_SUM_TOL:
        raise ValidationError(
            "RowSum",
            f"spectral rows do not sum to one (residual {resid:.3e}); "
            "the measurement is not complete",
        )
    return F


def is_exact(residuals) -> bool:
    """True when every residual ||F(g) alpha - a|| is within EXACT_CV_TOL."""
    return bool(np.all(np.asarray(residuals) <= EXACT_CV_TOL))


@dataclass(frozen=True)
class CvSolution:
    """Pseudoinverse contextual values at one coupling."""

    g: float
    alpha: np.ndarray
    residual: float  # ||F(g) alpha - a||_2, equal to the Frobenius operator residual
    rank_used: int


@dataclass(frozen=True)
class GridSolution:
    """Pseudoinverse contextual values at every coupling of a grid."""

    g_grid: np.ndarray
    F_g: np.ndarray  # (n_g, dim, n_out): F at each coupling
    alpha: np.ndarray  # (n_g, n_out)
    residuals: np.ndarray  # (n_g,): ||F(g) alpha - a||_2
    ranks: np.ndarray  # (n_g,)

    @property
    def exact(self) -> bool:
        """True when every grid point is exact (see is_exact)."""
        return is_exact(self.residuals)


def solve_grid(F: FMatrix, g_grid: np.ndarray) -> GridSolution:
    """Minimum-norm weights alpha = pinv(F(g)) a at every coupling, in one stacked solve.

    Each step is the per-matrix operation applied to the stack: the real
    part of one Horner evaluation, one stacked pseudoinverse, and the
    residual norm as sqrt(r . r), which is how numpy's norm takes it.  So
    every grid point equals a separate solve at that coupling bit for bit.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    Fg = np.real(F.poly(g_grid[:, None, None]))
    P, ranks = pinv_and_rank(Fg)
    alpha = np.real(P @ F.a_vec)
    r = (Fg @ alpha[..., None])[..., 0] - F.a_vec
    residuals = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    return GridSolution(g_grid=g_grid, F_g=Fg, alpha=alpha, residuals=residuals, ranks=ranks)


def pseudoinverse_cv(F: FMatrix, g: float) -> CvSolution:
    """Minimum-norm least-squares weights alpha = pinv(F(g)) a.

    The reported residual is the euclidean norm of F(g) alpha - a, which for
    a spectral matrix equals the Frobenius distance between the weighted
    outcome sum and the observable.

    F keeps the last solution (a one-entry memo), so a repeated call at the
    same g returns the same, read-only CvSolution without a new solve: the
    meter's per-outcome eigenvalue functions solve each coupling once.
    """
    last = F._last_cv
    if last is not None and last.g == g:
        return last
    Fg = F.at(g)
    P, rank = pinv_and_rank(Fg)
    alpha = np.real(P @ F.a_vec)
    alpha.setflags(write=False)
    residual = float(np.linalg.norm(Fg @ alpha - F.a_vec))
    sol = CvSolution(g=float(g), alpha=alpha, residual=residual, rank_used=rank)
    object.__setattr__(F, "_last_cv", sol)
    return sol


def exact_cv_exists(F: FMatrix, g_grid: np.ndarray) -> bool:
    """True when the pseudoinverse residual stays below EXACT_CV_TOL at every coupling."""
    return solve_grid(F, g_grid).exact


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
    family is diagonal in the same basis), then solves both over the grid
    and compares the solutions point by point.  A family is solvable when
    its residual stays within EXACT_CV_TOL; alphas_match requires agreement
    within ALPHA_MATCH_RTOL relative at every grid point.
    """
    F = build_F(povm, A)
    full = solve_grid(F, g_grid)
    trunc = solve_grid(FMatrix(poly=F.poly.truncate(n, mode), a_vec=F.a_vec), g_grid)

    scale = np.linalg.norm(full.alpha, axis=1)
    match = np.where(
        scale <= 1e-300,
        np.linalg.norm(trunc.alpha, axis=1) <= 1e-300,
        np.linalg.norm(full.alpha - trunc.alpha, axis=1) <= ALPHA_MATCH_RTOL * scale,
    )
    return TruncationReport(
        n=n,
        mode=mode,
        g_grid=full.g_grid,
        alpha_full=full.alpha,
        alpha_truncated=trunc.alpha,
        full_residuals=full.residuals,
        truncated_residuals=trunc.residuals,
        full_solvable=full.exact,
        truncated_solvable=trunc.exact,
        alphas_match=bool(match.all()),
    )

