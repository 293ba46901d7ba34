"""Contextual values: outcome weights that reproduce an observable's statistics.

For a commuting measurement family and observable, everything reduces to a
spectral matrix F(g) whose entry (i, j) is the i-th common-basis eigenvalue
of outcome j: E_j(g) = B diag(F(g)[:, j]) B^H for the common eigenbasis B.
Weights alpha solving F(g) alpha = a (the observable's eigenvalues) make the
weighted outcome statistics reproduce the observable's moments; the
pseudoinverse picks the minimum-norm solution.  `build_F` reads F off
povm.spectral_family; weak._postselection takes amplitudes in F's basis.

A coupling grid is solved in one go: `solve_grid` evaluates F on the whole
grid as a (n_g, dim, n_out) stack and takes every pseudoinverse in one
stacked call, each bit for bit as the single-coupling `pseudoinverse_cv`
would.  It is the one-F case of `solve_stack`, which solves many F's grids
at once (the conjecture generator's and sweep's draws, and
`asymptotics.svd_asymptotics`'s two probes).  `exact_cv_exists`,
`truncated_cv_check`, `solve_coupling`, `asymptotics.pinv_pole_order`,
`weak.weak_limit` and `pseudoinverse_cv` (on default_grid(F.g_max)) go
through `solve_grid`, so a meter dilation makes two solves, its grid's and
its readout's; the weak limit and the sweep hand their solution on to the
weak-limit ladder (the sweep a solve's whole stack, or its exact members
through `GridSolution.__getitem__`), so a grid is solved once per limit.

Every pseudoinverse, stacked or single, is linalg.pinv_and_rank's: one call
of the SVD gufunc that np.linalg.svd itself calls (`svd_s`), made without
svd's wrapper, on the real F(g) that the gufunc casts to complex itself.

`pseudoinverse_cv` keeps its last (F, g) and `_grid_alphas` its last F's grid
in an lru_cache (an FMatrix hashes by identity).  Each rule of a solve has
one owner: `_pinv_weights`, under both solvers, raises NoExactCv at the first
coupling whose F(g) or alpha is not finite; `solve_stack` alone forms the
residual ||F(g) alpha - a||, on a copy scaled by a power of two so that it
is finite wherever the true norm is; `GridSolution.exact` alone compares
residuals with EXACT_CV_TOL; and `check_row_sums` alone tests completeness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NoExactCv, ValidationError
from .linalg import check_hermitian, dagger, pinv_and_rank, pow2_scale
from .povm import ParamPovm, PolyMatrix, check_coupling, default_grid, spectral_family

ROW_SUM_TOL = 1e-11
EXACT_CV_TOL = 1e-9
ALPHA_MATCH_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class FMatrix:
    """Spectral matrix of a commuting measurement, plus the observable's eigenvalues.

    poly evaluates to the d x n_out matrix of outcome eigenvalues; a_vec holds
    the observable eigenvalues in the same (descending) basis order.  basis
    is the unitary whose columns are the common eigenvectors that build_F
    found, in row order, so E_j(g) = basis diag(F(g)[:, j]) basis^H (None for
    a raw matrix family); g_max is the family's coupling bound, or None.  a_vec
    is a read-only copy, so nothing solved from F can go stale.  F compares
    and hashes by identity, the key of pseudoinverse_cv's memos.
    """

    poly: PolyMatrix
    a_vec: np.ndarray
    basis: np.ndarray | None = None
    g_max: float | None = None

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


def _row_sum_residual(C: np.ndarray) -> float:
    """Worst deviation from 1 of the row sums of spectral coefficients C (..., degree + 1, d, n_out)."""
    sums = np.real(C).sum(axis=-1)  # (..., degree + 1, d)
    sums[..., 0, :] -= 1.0
    return float(np.abs(sums).max())


def check_row_sums(C: np.ndarray) -> None:
    """Raise ValidationError("RowSum") unless the spectral coefficients C, or every
    stack of them (..., degree + 1, d, n_out), have rows summing to one, i.e.
    the measurement is complete."""
    resid = _row_sum_residual(C)
    if resid > ROW_SUM_TOL:
        raise ValidationError(
            "RowSum",
            f"spectral rows do not sum to one (residual {resid:.3e}); "
            "the measurement is not complete",
        )


def build_F(povm: ParamPovm, A: np.ndarray) -> FMatrix:
    """Diagonalize the observable and every coefficient together and read off F.

    The basis is spectral_family's with A leading.  Raises NotCommuting if
    the family does not commute, and ValidationError("RowSum") if the
    row-sum identity fails (i.e. the measurement was not complete).
    """
    A = check_hermitian(A)
    basis, poly = spectral_family(povm, A)
    a_vec = (dagger(basis) @ A @ basis).diagonal().real
    check_row_sums(poly.coefficients)
    return FMatrix(poly=poly, a_vec=a_vec, basis=basis, g_max=povm.g_max)


@dataclass(frozen=True)
class CvSolution:
    """Pseudoinverse contextual values at one coupling."""

    g: float
    alpha: np.ndarray
    F: FMatrix


@dataclass(frozen=True)
class GridSolution:
    """Pseudoinverse contextual values at every coupling of a grid.

    A stacked solve (see solve_stack) puts leading axes on every field;
    indexing the stack gives one member's solution.
    """

    g_grid: np.ndarray
    F_g: np.ndarray  # (n_g, dim, n_out): F at each coupling
    alpha: np.ndarray  # (n_g, n_out)
    residuals: np.ndarray  # (n_g,): ||F(g) alpha - a||_2
    ranks: np.ndarray  # (n_g,)

    @property
    def exact(self) -> bool | np.ndarray:
        """True when every residual ||F(g) alpha - a|| is within EXACT_CV_TOL; one per member of a stack."""
        ok = np.all(self.residuals <= EXACT_CV_TOL, axis=-1)
        return bool(ok) if ok.ndim == 0 else ok

    def __getitem__(self, i) -> GridSolution:
        """Member i of a stack, or the stack of the members an index array or mask picks.

        alpha keeps solve_stack's layout, the real part of a complex array:
        a product with the part then takes the BLAS path one with the whole
        takes, and rounds as it does (BLAS dot rounds differently on
        contiguous and strided operands).
        """
        alpha = np.array(self.alpha[i], dtype=complex).real
        return GridSolution(self.g_grid[i], self.F_g[i], alpha, self.residuals[i], self.ranks[i])


def _pinv_weights(Fg: np.ndarray, a_vec: np.ndarray, g) -> tuple[np.ndarray, np.ndarray | int]:
    """alpha = pinv(F(g)) a and the ranks used, for one F(g) or a stack over the couplings g.

    a_vec is one target (d,) or one per member of a stack (..., 1, d); the
    two products round alike, and the first is the cheaper.  An F(g) that is
    not finite, as where a coupling far past g_max overflows it, leaves
    LAPACK's SVD unconverged: that raises NoExactCv at the first such coupling.
    Both solvers call it under errstate(over="ignore", invalid="ignore"), which
    pseudoinverse_cv's evaluation of F(g) shares: what is not finite is
    refused here, not warned about.
    """
    try:
        P, ranks = pinv_and_rank(Fg)
    except LinAlgError:
        finite = np.isfinite(Fg).all(axis=(-2, -1)).ravel()
        if finite.all():
            raise
        raise NoExactCv(f"F(g) is not finite at g = {np.ravel(g)[finite.argmin()]:.9g}") from None
    alpha = (P @ a_vec if a_vec.ndim == 1 else (P @ a_vec[..., None])[..., 0]).real
    if not np.isfinite(alpha).all():
        first = np.isfinite(alpha).reshape(-1, alpha.shape[-1]).all(axis=1).argmin()
        raise NoExactCv(f"contextual values overflow at g = {np.ravel(g)[first]:.9g}")
    return alpha, ranks


def solve_grid(F: FMatrix, g_grid: np.ndarray) -> GridSolution:
    """Minimum-norm weights alpha = pinv(F(g)) a at every coupling, in one stacked solve.

    The one-F case of solve_stack, on the real part of one Horner
    evaluation over the grid, so every alpha equals pseudoinverse_cv's at
    that coupling bit for bit.  Raises NoExactCv where F(g) or alpha is not
    finite.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # _pinv_weights refuses a non-finite F(g)
        Fg = np.real(F.poly(g_grid[:, None, None]))
    return solve_stack(Fg, F.a_vec, g_grid)


def solve_stack(Fg: np.ndarray, a_vec: np.ndarray, g: np.ndarray) -> GridSolution:
    """solve_grid's solution of evaluated F(g) stacks (..., n_g, d, n_out), each with its own a.

    Every matrix is solved on its own, in one stacked pseudoinverse: a
    member of the stack comes out bit for bit as solve_grid gives it alone,
    provided its F(g) has solve_grid's layout (the real part of a complex
    evaluation; matmul takes BLAS for one layout and its own loop for
    another, and the two round differently).  a_vec is (d,) or (..., 1, d)
    and g is (..., n_g).  The residual norm is sqrt(u . u) * s for u = r / s,
    s = pow2_scale(r, axis=-1).  Raises NoExactCv where alpha is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _pinv_weights refuses what is not finite
        alpha, ranks = _pinv_weights(Fg, a_vec, g)
    r = (Fg @ alpha[..., None])[..., 0] - a_vec
    s = pow2_scale(r, axis=-1)
    u = r / s[..., None]
    residuals = np.sqrt((u[..., None, :] @ u[..., :, None])[..., 0, 0]) * s
    return GridSolution(g_grid=g, F_g=Fg, alpha=alpha, residuals=residuals, ranks=ranks)


def solve_coupling(F: FMatrix, g: float) -> GridSolution:
    """solve_grid at one coupling g after check_coupling(g, F.g_max), for an F with a g_max: cv-solve's."""
    check_coupling(g, F.g_max)
    return solve_grid(F, [g])


@functools.lru_cache(maxsize=1)
def _grid_alphas(F: FMatrix) -> dict[float, np.ndarray | None]:
    """default_grid(F.g_max)'s couplings (none without g_max) -> alpha, filled by pseudoinverse_cv."""
    return {} if F.g_max is None else dict.fromkeys(default_grid(F.g_max).tolist())


@functools.lru_cache(maxsize=1)
def pseudoinverse_cv(F: FMatrix, g: float) -> CvSolution:
    """Minimum-norm least-squares weights alpha = pinv(F(g)) a.

    Raises NoExactCv where F(g) or alpha is not finite, as g's single solve
    would.  A coupling of default_grid(F.g_max) reads alpha from one stacked
    solve of that grid (_grid_alphas); any other solves alone.  The last
    (F, g) is memoized (lru_cache, maxsize 1) as a read-only CvSolution.
    """
    grid = _grid_alphas(F)
    if g in grid and grid[g] is None:  # solve the whole grid; if that fails, each coupling alone
        try:  # each alpha in the single solve's layout: the real part of its own complex array
            with np.errstate(over="ignore", invalid="ignore"):  # only alpha is read
                rows = solve_grid(F, list(grid)).alpha
            grid.update(zip(grid, (np.array(row, dtype=complex).real for row in rows)))
        except (NoExactCv, LinAlgError):
            grid.clear()
    if (alpha := grid.get(g)) is None:
        with np.errstate(over="ignore", invalid="ignore"):  # _pinv_weights refuses what is not finite
            alpha, _ = _pinv_weights(F.poly(g).real, F.a_vec, g)
    alpha.setflags(write=False)
    return CvSolution(g=float(g), alpha=alpha, F=F)


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


def truncation_grid(g_max: float) -> np.ndarray:
    """The truncation check's grid: 12 couplings geometric from g_max / 50 up to g_max.

    It starts at 0.01 for a g_max of 0.5, so quad-cx's full-family solve
    stays well-conditioned enough for a 1e-10 residual.
    """
    return np.geomspace(g_max / 50.0, g_max, 12)


def truncated_cv_check(
    povm: ParamPovm,
    A: np.ndarray,
    n: int,
    g_grid: np.ndarray | None = None,
    mode: str = "eq13",
) -> TruncationReport:
    """Do the truncated outcome family's contextual values survive truncation?

    Builds the spectral matrix once and truncates it directly (the truncated
    family is diagonal in the same basis), then solves both over the grid,
    truncation_grid(povm.g_max) by default, and compares the solutions point
    by point.  A family is solvable when its residual stays within
    EXACT_CV_TOL; alphas_match requires agreement within ALPHA_MATCH_RTOL
    relative at every grid point.
    """
    if g_grid is None:
        g_grid = truncation_grid(povm.g_max)
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

