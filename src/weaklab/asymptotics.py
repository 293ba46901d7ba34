"""Small-coupling asymptotics of singular values and pseudoinverse solutions.

The central question probed here: for a matrix family F(g), does truncating
F commute with taking singular values?  A disputed proof step claims that a
linear family with no identically-zero singular value has all singular
values of exact first order in g; these tools measure leading orders by
log-log regression and check the claim instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotLinear, NotPositiveSamples
from .linalg import pinv
from .povm import PolyMatrix

#: a singular-value trajectory never exceeding this is identically zero
ZERO_TRAJECTORY_TOL = 1e-12
#: fitted order at or below this is consistent with "first order"
FIRST_ORDER_TOL = 1.05
#: fitted order above this re-verifies a counterexample
COUNTEREXAMPLE_ORDER = 1.5
FIT_POINTS = 6
R2_RELIABLE = 0.999


def default_pole_grid() -> np.ndarray:
    """Descending coupling ladder 0.1 * 2**-k, k = 0..12."""
    return 0.1 * 2.0 ** -np.arange(13, dtype=float)


@dataclass(frozen=True)
class OrderEstimate:
    """Leading-order fit v(g) ~ coefficient * g**exponent."""

    exponent: float
    coefficient: float
    fit_r2: float

    @property
    def reliable(self) -> bool:
        return self.fit_r2 >= R2_RELIABLE


def leading_order_fit(samples) -> OrderEstimate:
    """Least-squares slope of log v against log g over the six smallest couplings.

    samples: iterable of (g, value) pairs, values strictly positive.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < FIT_POINTS:
        raise ValueError(f"need at least {FIT_POINTS} (g, value) samples")
    order = np.argsort(arr[:, 0])
    g = arr[order[:FIT_POINTS], 0]
    v = arr[order[:FIT_POINTS], 1]
    if np.any(g <= 0):
        raise ValueError("couplings must be positive")
    if np.any(v <= 0):
        raise NotPositiveSamples(
            f"sample values must be positive for a log-log fit, min={v.min():.3e}"
        )
    x, y = np.log(g), np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return OrderEstimate(exponent=float(slope), coefficient=float(np.exp(intercept)), fit_r2=r2)


@dataclass
class SvdCurve:
    """Singular values of F(g) along a coupling grid, sorted descending per point."""

    g_grid: np.ndarray
    singulars: np.ndarray  # (n_grid, min(shape))


def svd_curve(F: PolyMatrix, g_grid: np.ndarray) -> SvdCurve:
    """Singular values of F(g) at every grid coupling.

    Each point's values are sorted descending.  By Weyl's inequality sorted
    singular values move by at most ||F(g_a) - F(g_b)||_2 between two
    couplings, so the sorted trajectories are continuous in g; where analytic
    branches cross they follow the sorted order, not the branches.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    sig = np.stack([np.linalg.svd(F(g), compute_uv=False) for g in g_grid])
    return SvdCurve(g_grid=g_grid, singulars=sig)


def _fit_series(g: np.ndarray, values: np.ndarray, degree: int) -> np.ndarray:
    """Power-series coefficients (ascending) fitted over the grid."""
    deg = min(degree, len(g) - 1)
    poly = np.polynomial.Polynomial.fit(g, values, deg)
    return poly.convert().coef


@dataclass
class TruncationSvdReport:
    """Both orderings of truncate-then-SVD versus SVD-then-truncate."""

    n: int
    g_grid: np.ndarray
    left: np.ndarray  # singular values of the truncated family, (n_grid, k)
    right: np.ndarray  # truncated fitted series of the singular values
    right_series: list[np.ndarray]  # fitted, truncated coefficients per trajectory
    commute: bool
    fit_reliable: list[bool]


def truncation_svd_commutator(F: PolyMatrix, n: int) -> TruncationSvdReport:
    """Compare singular values of the order-n expansion of F against the
    order-n expansion of the singular values of F along default_pole_grid,
    agreeing when they match within 1e-6 relative.

    The two agree for families whose truncation is exact but differ in
    general; the flagship linear example with determinant g**2 has
    sigma_min ~ g**2/2 on the left and identically zero on the right.
    """
    g_grid = default_pole_grid()
    left = svd_curve(F.truncate(n), g_grid).singulars
    full = svd_curve(F, g_grid).singulars

    k = full.shape[1]
    right = np.empty_like(full)
    series: list[np.ndarray] = []
    reliable: list[bool] = []
    for t in range(k):
        coef = _fit_series(g_grid, full[:, t], degree=n + 3)
        fitted = np.polynomial.polynomial.polyval(g_grid, coef)
        scale = max(1.0, float(np.abs(full[:, t]).max()))
        reliable.append(float(np.abs(fitted - full[:, t]).max()) <= 1e-6 * scale)
        coef = coef[: n + 1]
        series.append(coef)
        right[:, t] = np.polynomial.polynomial.polyval(g_grid, coef)

    diff = np.abs(left - right)
    ref = np.maximum(np.abs(left), np.abs(right))
    agree = (diff <= 1e-6 * ref) | (ref <= ZERO_TRAJECTORY_TOL)
    return TruncationSvdReport(
        n=n,
        g_grid=g_grid,
        left=left,
        right=right,
        right_series=series,
        commute=bool(np.all(agree)),
        fit_reliable=reliable,
    )


@dataclass
class ClaimReport:
    """Verdict on the first-order singular value claim for one linear family.

    The claim under audit: if no singular value of the linear family F(g)
    vanishes identically near g = 0, then every singular value is O(g) exactly
    (so that all 1/sigma_k blow up like 1/g).  All singular values are treated
    as relevant; see the caveat field.
    """

    zero_trajectories: list[int]
    orders: list[OrderEstimate | None]
    claim_holds: bool
    counterexample_found: bool
    caveat: str = (
        "every singular-value trajectory is treated as relevant to the claim; "
        "the disputed argument never defines which ones matter"
    )


def proof_claim_check(F: PolyMatrix) -> ClaimReport:
    """Audit the first-order claim on a linear family by fitting each trajectory
    along default_pole_grid.

    A trajectory never exceeding 1e-12 on the grid counts as identically
    zero, making the claim vacuous for this instance.  Otherwise the claim
    holds only if every fitted order is at most 1.05; any trajectory fitted
    above 1.5 is a re-verified counterexample.
    """
    if F.max_degree > 1:
        raise NotLinear(f"family has degree {F.max_degree}, claim concerns linear families")
    curve = svd_curve(F, default_pole_grid())

    zero_traj: list[int] = []
    orders: list[OrderEstimate | None] = []
    for t in range(curve.singulars.shape[1]):
        traj = curve.singulars[:, t]
        if traj.max() <= ZERO_TRAJECTORY_TOL:
            zero_traj.append(t)
            orders.append(None)
            continue
        positive = traj > 0
        if np.count_nonzero(positive) < FIT_POINTS:
            orders.append(None)
            continue
        samples = np.stack([curve.g_grid[positive], traj[positive]], axis=1)
        orders.append(leading_order_fit(samples))

    if zero_traj:
        claim_holds = True  # vacuous: the claim's hypothesis fails
    else:
        fitted = [o for o in orders if o is not None]
        claim_holds = all(o.exponent <= FIRST_ORDER_TOL for o in fitted)
    return ClaimReport(
        zero_trajectories=zero_traj,
        orders=orders,
        claim_holds=claim_holds,
        counterexample_found=not claim_holds,
    )


@dataclass(frozen=True)
class PoleEstimate:
    """Blow-up order of a pseudoinverse solution as the coupling shrinks."""

    exponent: float  # pole order: ||alpha(g)|| ~ g**(-exponent)
    coefficient: float
    fit_r2: float
    alpha_zero: bool = False

    @property
    def reliable(self) -> bool:
        return self.alpha_zero or self.fit_r2 >= R2_RELIABLE


def pinv_pole_order(
    F: PolyMatrix,
    a: np.ndarray,
    g_grid: np.ndarray | None = None,
) -> PoleEstimate:
    """Fit the growth of ||pinv(F(g)) a||_inf; the negated slope is the pole order."""
    if g_grid is None:
        g_grid = default_pole_grid()
    g_grid = np.asarray(g_grid, dtype=float)
    a = np.asarray(a, dtype=float)
    norms = np.array([float(np.abs(pinv(F(g)) @ a).max()) for g in g_grid])
    if norms.max() <= ZERO_TRAJECTORY_TOL:
        return PoleEstimate(exponent=0.0, coefficient=0.0, fit_r2=1.0, alpha_zero=True)
    est = leading_order_fit(np.stack([g_grid, norms], axis=1))
    return PoleEstimate(
        exponent=-est.exponent,
        coefficient=est.coefficient,
        fit_r2=est.fit_r2,
    )
