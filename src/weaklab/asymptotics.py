"""Small-coupling asymptotics of singular values and pseudoinverse solutions.

The central question probed here: for a matrix family F(g), does truncating
F commute with taking singular values?  A disputed proof step claims that a
linear family with no identically-zero singular value has all singular
values of exact first order in g; these tools measure leading orders by
log-log regression and check the claim instance by instance.  Each curve
is evaluated on its whole coupling grid at once: `svd_curve` is one stacked
SVD returning the (n_g, k) array and `pinv_pole_order` one
`contextual.solve_grid`.  Every fit is an `OrderEstimate`; a pole order is
one that also carries its solve.  Every fit runs on weak's fit engine, bit
for bit with numpy (the commutator fits a family's trajectories in one
stack; the log-log fit repeats np.polyfit), so no command imports
numpy.polynomial.  "Identically zero" is relative to scale:
a trajectory against the largest singular value on the grid, a solution
times the largest |F(g)| against max|a|, so a rescaled family or target
keeps its verdict.  Every g -> 0 ladder is `weak.limit_grid(g_max)`,
topped at min(0.1, g_max): the analyses take the family's g_max as data,
so no coupling they read leaves (0, g_max].  `svd_asymptotics` runs every
analysis of the `svd-asymptotics` command on that ladder once: the
commutator's SVD of F serves the table and the claim audit, and one
evaluation of F the determinant and both probes, solved in one
`contextual.solve_stack`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .contextual import FMatrix, solve_grid, solve_stack
from .errors import NoExactCv, NotLinear, NotPositiveSamples
from .linalg import _lstsq_rows
from .povm import PolyMatrix
from .weak import LIMIT_GRID_POINTS, LIMIT_GRID_TOP, _polyfit_rows, _polyval, _power_series
from .weak import limit_grid

#: a trajectory never exceeding this times its scale is identically zero
ZERO_TRAJECTORY_TOL = 1e-12
#: fitted order at or below this is consistent with "first order"
FIRST_ORDER_TOL = 1.05
FIT_POINTS = 6
R2_RELIABLE = 0.999


@dataclass(frozen=True)
class OrderEstimate:
    """Leading-order fit v(g) ~ coefficient * g**exponent."""

    exponent: float
    coefficient: float
    fit_r2: float

    @property
    def reliable(self) -> bool:
        return self.fit_r2 >= R2_RELIABLE


def leading_order_fit(g: np.ndarray, v: np.ndarray) -> OrderEstimate:
    """Least-squares slope of log v against log g over the six smallest couplings.

    g and v: equal-length 1-D arrays of couplings and strictly positive values.
    """
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if g.ndim != 1 or g.shape != v.shape or len(g) < FIT_POINTS:
        raise ValueError(f"need at least {FIT_POINTS} (g, value) samples")
    order = np.argsort(g)[:FIT_POINTS]
    g, v = g[order], v[order]
    if np.any(g <= 0):
        raise ValueError("couplings must be positive")
    if np.any(v <= 0):
        raise NotPositiveSamples(
            f"sample values must be positive for a log-log fit, min={v.min():.3e}"
        )
    x, y = np.log(g), np.log(v)
    # np.polyfit(x, y, 1)'s steps: Vandermonde columns (x, 1) scaled to unit norm
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    coef, rank = _lstsq_rows(lhs, y, len(x) * np.finfo(float).eps)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning)
    slope, intercept = coef / scale
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return OrderEstimate(exponent=float(slope), coefficient=float(np.exp(intercept)), fit_r2=r2)


def svd_curve(F: PolyMatrix, g_grid: np.ndarray) -> np.ndarray:
    """Singular values of F(g) at every grid coupling, from one stacked SVD.

    The (n_g, min(shape)) array's rows are sorted descending.  By Weyl's
    inequality sorted singular values move by at most ||F(g_a) - F(g_b)||_2
    between two couplings, so the sorted trajectories are continuous in g;
    where analytic branches cross they follow the sorted order, not the
    branches.  Raises NoExactCv, before any SVD, at the first coupling
    where F(g) is not finite.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite F(g) is refused below
        Fg = F(g_grid[:, None, None])
    finite = np.isfinite(Fg).all(axis=(-2, -1))
    if not finite.all():
        raise NoExactCv(f"F(g) is not finite at g = {g_grid[finite.argmin()]:.9g}")
    return np.linalg.svd(Fg, compute_uv=False)


@dataclass
class TruncationSvdReport:
    """Both orderings of truncate-then-SVD versus SVD-then-truncate."""

    n: int
    g_grid: np.ndarray
    left: np.ndarray  # singular values of the truncated family, (n_grid, k)
    full: np.ndarray  # singular values of the family itself, (n_grid, k)
    right: np.ndarray  # truncated fitted series of the singular values
    right_series: list[np.ndarray]  # fitted, truncated coefficients per trajectory
    commute: bool
    reliable: bool  # the series fits had full rank; otherwise they, and the verdict, are not pinned down


def truncation_svd_commutator(
    F: PolyMatrix, n: int, g_max: float = LIMIT_GRID_TOP
) -> TruncationSvdReport:
    """Compare singular values of the order-n expansion of F against the
    order-n expansion of the singular values of F along limit_grid(g_max),
    agreeing when they match within 1e-6 relative or both are zero next to
    F's largest singular value on the grid.  Each expansion is a degree
    n + 3 power series fitted to the whole grid, then truncated; an n with
    n + 3 > LIMIT_GRID_POINTS - 1 raises ValueError, since its fit would
    interpolate the grid and truncate nothing.  Every trajectory is fitted
    on the one grid, so the fits share one rank: the report is reliable
    when it is full, and a fit that falls short also warns RankWarning, as
    numpy's does.

    The two agree for families whose truncation is exact but differ in
    general; the flagship linear example with determinant g**2 has
    sigma_min ~ g**2/2 on the left and identically zero on the right.
    """
    deg = n + 3
    if deg > LIMIT_GRID_POINTS - 1:
        raise ValueError(f"truncation order must be at most {LIMIT_GRID_POINTS - 4}, got {n}")
    g_grid = limit_grid(g_max)
    left = svd_curve(F.truncate(n), g_grid)
    full = svd_curve(F, g_grid)

    coef, domain, ranks = _polyfit_rows(g_grid, full.T, deg)
    series = [_power_series(c, domain)[: n + 1] for c in coef]
    right = np.stack([_polyval(g_grid, c) for c in series], axis=-1)

    diff = np.abs(left - right)
    ref = np.maximum(np.abs(left), np.abs(right))
    agree = (diff <= 1e-6 * ref) | (ref <= ZERO_TRAJECTORY_TOL * full.max())
    return TruncationSvdReport(
        n=n,
        g_grid=g_grid,
        left=left,
        full=full,
        right=right,
        right_series=series,
        commute=bool(np.all(agree)),
        reliable=bool(np.all(ranks == deg + 1)),
    )


@dataclass
class ClaimReport:
    """Verdict on the first-order singular value claim for one linear family.

    The claim under audit: if no singular value of the linear family F(g)
    vanishes identically near g = 0, then every singular value is O(g) exactly
    (so that all 1/sigma_k blow up like 1/g).  All singular values are treated
    as relevant; see caveat.
    """

    caveat: ClassVar[str] = (
        "every singular-value trajectory is treated as relevant to the claim; "
        "the disputed argument never defines which ones matter"
    )

    zero_trajectories: list[int]
    orders: list[OrderEstimate | None]
    claim_holds: bool

    @property
    def counterexample_found(self) -> bool:
        return not self.claim_holds


def proof_claim_check(F: PolyMatrix, g_max: float = LIMIT_GRID_TOP) -> ClaimReport:
    """Audit the first-order claim on a linear family by fitting each trajectory
    along limit_grid(g_max).

    A trajectory never exceeding 1e-12 times the largest singular value on
    the grid counts as identically zero, making the claim vacuous for this
    instance.  Otherwise the claim holds only if every fitted order is at
    most 1.05, and any trajectory fitted above that is a counterexample.
    """
    if F.max_degree > 1:
        raise NotLinear(f"family has degree {F.max_degree}, claim concerns linear families")
    g_grid = limit_grid(g_max)
    return _claim_report(g_grid, svd_curve(F, g_grid))


def _claim_report(g_grid: np.ndarray, sig: np.ndarray) -> ClaimReport:
    """proof_claim_check's audit of the singular values sig (n_g, k) on g_grid."""
    zero_tol = ZERO_TRAJECTORY_TOL * sig.max()

    zero_traj: list[int] = []
    orders: list[OrderEstimate | None] = []
    for t in range(sig.shape[1]):
        traj = sig[:, t]
        if traj.max() <= zero_tol:
            zero_traj.append(t)
            orders.append(None)
            continue
        positive = traj > 0
        if np.count_nonzero(positive) < FIT_POINTS:
            orders.append(None)
            continue
        orders.append(leading_order_fit(g_grid[positive], traj[positive]))

    if zero_traj:
        claim_holds = True  # vacuous: the claim's hypothesis fails
    else:
        fitted = [o for o in orders if o is not None]
        claim_holds = all(o.exponent <= FIRST_ORDER_TOL for o in fitted)
    return ClaimReport(zero_trajectories=zero_traj, orders=orders, claim_holds=claim_holds)


@dataclass(frozen=True)
class PoleEstimate(OrderEstimate):
    """Blow-up order of a pseudoinverse solution as the coupling shrinks.

    exponent is the pole order, ||alpha(g)||_inf ~ coefficient * g**(-exponent).
    g_grid, alpha_sup and ranks come from the fitted solve: each coupling,
    ||alpha(g)||_inf there and the rank of F(g) used.
    """

    g_grid: np.ndarray
    alpha_sup: np.ndarray
    ranks: np.ndarray
    alpha_zero: bool = False

    @property
    def rank_changes(self) -> bool:
        return bool(np.any(self.ranks != self.ranks[0]))

    @property
    def reliable(self) -> bool:
        # where the rank drops, pinv drops the blowing-up direction of alpha(g)
        return self.alpha_zero or (super().reliable and not self.rank_changes)


def pinv_pole_order(F: PolyMatrix, a: np.ndarray, g_grid: np.ndarray) -> PoleEstimate:
    """Fit the growth of ||pinv(F(g)) a||_inf over g_grid; the negated slope is the pole order.

    A solution whose largest ||alpha(g)||_inf times the largest |F(g)| on
    the grid never exceeds 1e-12 max|a| is alpha_zero, with no fit.  Weights
    that overflow at some coupling raise solve_grid's NoExactCv.
    """
    sol = solve_grid(FMatrix(poly=F, a_vec=a), g_grid)
    return _pole_fit(sol.g_grid, np.abs(sol.alpha).max(axis=1), sol.ranks, a, np.abs(sol.F_g).max())


def _pole_fit(
    g_grid: np.ndarray, norms: np.ndarray, ranks: np.ndarray, a: np.ndarray, f_scale: float
) -> PoleEstimate:
    """pinv_pole_order's estimate from a solve's couplings, ||alpha(g)||_inf, ranks and max|F(g)|."""
    solve = dict(g_grid=g_grid, alpha_sup=norms, ranks=ranks)
    with np.errstate(over="ignore"):  # an overflowing product is no zero solution
        zero = norms.max() * f_scale <= ZERO_TRAJECTORY_TOL * np.abs(a).max()
    if zero:
        return PoleEstimate(exponent=0.0, coefficient=0.0, fit_r2=1.0, alpha_zero=True, **solve)
    est = leading_order_fit(g_grid, norms)
    return PoleEstimate(
        exponent=-est.exponent, coefficient=est.coefficient, fit_r2=est.fit_r2, **solve
    )


@dataclass
class SvdAsymptoticsReport:
    """The singular-value asymptotics of one family along its ascending g -> 0 ladder."""

    g_grid: np.ndarray  # limit_grid(g_max), ascending
    singular_values: np.ndarray  # (n_g, k), each row descending
    abs_det: np.ndarray | None  # |det F(g)| on the grid; None for a non-square family
    det_deviation: float | None  # max relative deviation of abs_det from prod(sigma)
    det_nonfinite_g: float | None  # the first coupling where abs_det or prod(sigma) is not finite
    probes: list[np.ndarray]  # the two pole-order targets a
    poles: list[PoleEstimate]  # one per probe
    truncation: TruncationSvdReport
    claim: ClaimReport | None  # None for a family that is not linear


def svd_asymptotics(F: PolyMatrix, g_max: float, n: int) -> SvdAsymptoticsReport:
    """Singular values, the pole orders of the probes a = (1, ..., 1) and
    a = (1, -1, 1, ...), the order-n truncation commutator and the
    first-order claim audit of F along the ascending limit_grid(g_max).

    The commutator's RankWarning is not shown: its reliable flag keeps it as
    data.  A family of degree above 1 gets no claim audit (claim None).
    Each field is its separate analysis's bit for bit, and a NoExactCv
    names the coupling that pinv_pole_order's would.  Where |det F| or
    prod(sigma) overflows, the deviation is not finite and det_nonfinite_g
    names the first such coupling, with no warning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        truncation = truncation_svd_commutator(F, n, g_max)
    g_grid = np.sort(limit_grid(g_max))
    singular_values = truncation.full[::-1]
    Fg = F(g_grid[:, None, None])  # finite: svd_curve refused the ladder otherwise
    rows, cols = F.shape
    abs_det = det_deviation = det_nonfinite_g = None
    if rows == cols:
        with np.errstate(over="ignore", invalid="ignore"):  # where it is not finite is reported
            abs_det = np.abs(np.linalg.det(Fg))
            prods = np.prod(singular_values, axis=1)
            deviations = np.abs(abs_det - prods) / np.maximum(prods, 1e-300)
        det_deviation = float(np.max(deviations))
        finite = np.isfinite(deviations)
        if not finite.all():
            det_nonfinite_g = float(g_grid[finite.argmin()])
    probes = [np.ones(rows), (-1.0) ** np.arange(rows)]
    sol = solve_stack(np.real(Fg), np.stack(probes)[:, None], np.stack([g_grid, g_grid]))
    norms = np.abs(sol.alpha).max(axis=-1)
    f_scale = np.abs(sol.F_g).max()
    poles = [_pole_fit(g_grid, sup, sol.ranks, a, f_scale) for sup, a in zip(norms, probes)]
    claim = None if F.max_degree > 1 else _claim_report(truncation.g_grid, truncation.full)
    return SvdAsymptoticsReport(
        g_grid, singular_values, abs_det, det_deviation, det_nonfinite_g, probes, poles, truncation,
        claim,
    )
