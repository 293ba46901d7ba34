"""Weak values, postselected conditioned averages, and their small-coupling limits.

The conditioned average weights each outcome's contextual value by the joint
probability of that outcome followed by a successful postselection.  The
open question this module instruments: for measurement families linear in
the coupling (commuting, minimally disturbing, with exact contextual
values), does the conditioned average always converge to the traditional
weak value as the coupling vanishes?  ``conjecture_trial`` samples random
instances and measures the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contextual import FMatrix, build_F, exact_cv_exists, pseudoinverse_cv
from .errors import (
    GenerationFailed,
    NoExactCv,
    NotPositive,
    OrthogonalPostselection,
)
from .linalg import check_hermitian, check_state, projector
from .povm import ParamPovm, PolyMatrix, measurement_operators

OVERLAP_TOL = 1e-12
#: grid for limit extraction: LIMIT_GRID_TOP * 2**-k, k = 0..LIMIT_GRID_POINTS-1
LIMIT_GRID_TOP = 0.1
LIMIT_GRID_POINTS = 13
LIMIT_FIT_POINTS = 5
CONJECTURE_TOL = 1e-3
#: upper ends of the ranges unfixed trial shapes are drawn from (2 <= dim <= n_out)
TRIAL_DIM_MAX = 4
TRIAL_N_OUT_MAX = 5


def traditional_weak_value(
    A: np.ndarray, psi_i: np.ndarray, psi_f: np.ndarray
) -> tuple[complex, float]:
    """<psi_f|A psi_i> / <psi_f|psi_i> and its real part."""
    A = check_hermitian(A)
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    denom = np.vdot(psi_f, psi_i)
    if abs(denom) <= OVERLAP_TOL:
        raise OrthogonalPostselection(
            f"postselection overlap {abs(denom):.3e} vanishes"
        )
    wv = complex(np.vdot(psi_f, A @ psi_i) / denom)
    return wv, wv.real


def check_effect(E: np.ndarray) -> np.ndarray:
    """Validate a postselection effect: Hermitian with spectrum inside [0, 1]."""
    E = check_hermitian(E)
    w = np.linalg.eigvalsh(E)
    if w[0] < -1e-10 or w[-1] > 1 + 1e-10:
        raise NotPositive(
            f"effect spectrum [{w[0]:.3e}, {w[-1]:.3e}] leaves [0, 1]"
        )
    return E


def mixed_weak_value(A: np.ndarray, rho: np.ndarray, effect: np.ndarray) -> float:
    """Symmetrized weak value tr(E (A rho + rho A)) / (2 tr(E rho)).

    For pure rho and a rank-one effect this is the real part of the
    traditional weak value.
    """
    A = check_hermitian(A)
    rho = check_hermitian(rho)
    effect = check_effect(effect)
    denom = float(np.trace(effect @ rho).real)
    if denom <= OVERLAP_TOL:
        raise OrthogonalPostselection(f"postselection probability {denom:.3e} vanishes")
    num = float(np.trace(effect @ (A @ rho + rho @ A)).real)
    return num / (2.0 * denom)


def conditioned_average(
    povm: ParamPovm,
    alpha: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    g: float,
) -> tuple[float, float]:
    """Postselected average of the outcome weights, plus the success probability.

    Outcome j contributes weight |<psi_f| M_j(g) psi_i>|^2 with
    M_j = E_j(g)^(1/2); the value is the weight-normalized sum of alpha_j.
    """
    alpha = np.asarray(alpha, dtype=float)
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    if alpha.shape != (povm.n_out,):
        raise ValueError(f"alpha must have shape ({povm.n_out},), got {alpha.shape}")
    weights = np.array(
        [
            abs(np.vdot(psi_f, M @ psi_i)) ** 2
            for M in measurement_operators(povm, g)
        ]
    )
    success = float(weights.sum())
    if success <= OVERLAP_TOL:
        raise OrthogonalPostselection(
            f"success probability {success:.3e} vanishes at g={g}"
        )
    return float(alpha @ weights) / success, success


def limit_grid(g_top: float = LIMIT_GRID_TOP) -> np.ndarray:
    """Descending coupling ladder g_top * 2**-k used for limit extraction."""
    return g_top * 2.0 ** -np.arange(LIMIT_GRID_POINTS, dtype=float)


@dataclass
class WeakLimitReport:
    """Extrapolated small-coupling limit of the conditioned average."""

    g_grid: np.ndarray
    conditioned_averages: np.ndarray
    success_probabilities: np.ndarray
    fit_coefficients: np.ndarray  # ascending: value(g) ~ c0 + c1 g + c2 g^2
    extrapolated_limit: float
    traditional_value: float
    discrepancy: float


def weak_limit(
    povm: ParamPovm,
    A: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    g_grid: np.ndarray | None = None,
) -> WeakLimitReport:
    """Conditioned averages along a coupling ladder, extrapolated to zero coupling.

    Exact contextual values must exist on the whole grid (otherwise
    NoExactCv); the limit is the constant term of a quadratic fitted to the
    five smallest couplings, compared against the state-pair weak value.
    """
    if g_grid is None:
        g_grid = limit_grid(min(LIMIT_GRID_TOP, povm.g_max))
    g_grid = np.asarray(g_grid, dtype=float)

    F = build_F(povm, A)
    if not exact_cv_exists(F, g_grid):
        worst = max(pseudoinverse_cv(F, g).residual for g in g_grid)
        raise NoExactCv(
            f"no exact contextual values on the grid (worst residual {worst:.3e})"
        )

    values = np.empty(len(g_grid))
    probs = np.empty(len(g_grid))
    for i, g in enumerate(g_grid):
        sol = pseudoinverse_cv(F, g)
        values[i], probs[i] = conditioned_average(povm, sol.alpha, psi_i, psi_f, g)

    order = np.argsort(g_grid)[:LIMIT_FIT_POINTS]
    fit = np.polynomial.Polynomial.fit(g_grid[order], values[order], 2)
    coef = fit.convert().coef
    extrapolated = float(fit(0.0))

    traditional = mixed_weak_value(A, projector(psi_i), projector(psi_f))
    return WeakLimitReport(
        g_grid=g_grid,
        conditioned_averages=values,
        success_probabilities=probs,
        fit_coefficients=coef,
        extrapolated_limit=extrapolated,
        traditional_value=traditional,
        discrepancy=abs(extrapolated - traditional),
    )


# --------------------------------------------------------------------------
# randomized conjecture harness


@dataclass
class ConjectureInstance:
    """One randomly drawn linear commuting measurement with states."""

    povm: ParamPovm
    observable: np.ndarray
    psi_i: np.ndarray
    psi_f: np.ndarray


@dataclass
class TrialRecord:
    """Result of one conjecture trial, CSV-friendly."""

    seed: tuple[int, ...]
    trial: int
    dim: int
    n_out: int
    g_min: float
    extrapolated: float
    traditional: float
    discrepancy: float
    passed: bool
    instance: ConjectureInstance | None = field(default=None, repr=False)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate_linear_commuting_instance(
    rng: np.random.Generator,
    dim: int,
    n_out: int,
) -> ConjectureInstance:
    """Draw a diagonal measurement family linear in g satisfying every hypothesis.

    Zeroth order: outcome weights w_j times the identity, w drawn from a
    symmetric Dirichlet (so zero coupling extracts no information and the
    dilation is a product state).  First order: diagonal matrices whose
    entries sum to zero across outcomes at every basis index.  The validity
    range is 90% of the exact positivity radius; draws whose radius falls
    below 1e-3, whose first order degenerates, whose states overlap by less
    than 0.1, or whose contextual values are not exact are rejected and
    redrawn, up to 100 times.
    """
    if dim < 2 or n_out < 2:
        raise ValueError("need dim >= 2 and n_out >= 2")
    for _ in range(100):
        a = np.sort(rng.uniform(-1.0, 1.0, size=dim))[::-1]
        w = rng.dirichlet(np.ones(n_out))
        if w.min() <= 1e-3:
            continue
        Q = rng.uniform(-1.0, 1.0, size=(dim, n_out))
        Q -= Q.mean(axis=1, keepdims=True)  # rows sum to zero across outcomes
        if np.abs(Q).max(axis=0).min() <= 1e-9:
            continue  # some outcome has no first-order term

        with np.errstate(divide="ignore"):
            ratios = np.where(Q < 0, w[None, :] / -Q, np.inf)
        radius = float(ratios.min())
        g_max = min(0.9 * radius, 0.5)
        if g_max < 1e-3:
            continue

        elements = tuple(
            PolyMatrix([np.diag(np.full(dim, w[j])), np.diag(Q[:, j])])
            for j in range(n_out)
        )
        povm = ParamPovm(elements=elements, g_max=g_max)
        A = np.diag(a)

        s_i = _random_state(rng, dim)
        s_f = _random_state(rng, dim)
        for _ in range(50):
            if abs(np.vdot(s_f, s_i)) >= 0.1:
                break
            s_f = _random_state(rng, dim)
        else:
            continue

        grid = limit_grid(min(LIMIT_GRID_TOP, g_max))
        if not exact_cv_exists(build_F(povm, A), grid):
            continue  # ill-conditioned draw; hypothesis of exactness fails numerically
        return ConjectureInstance(povm=povm, observable=A, psi_i=s_i, psi_f=s_f)
    raise GenerationFailed(
        f"no admissible instance in 100 attempts (dim={dim}, n_out={n_out})"
    )


def conjecture_trial(
    seed,
    trial: int = 0,
    dim: int | None = None,
    n_out: int | None = None,
    tol: float = CONJECTURE_TOL,
) -> TrialRecord:
    """Run one random trial of the linear-family convergence conjecture.

    The per-trial stream is derived from (seed, trial) so sweeps are
    reproducible and order-independent.  Unspecified dimensions are drawn
    uniformly with n_out >= dim (so exact contextual values can exist).
    A failing trial keeps its instance attached for serialization.
    """
    key = (int(seed), int(trial))
    rng = np.random.default_rng(key)
    if dim is None:
        dim = int(rng.integers(2, TRIAL_DIM_MAX + 1))
    if n_out is None:
        n_out = int(rng.integers(dim, TRIAL_N_OUT_MAX + 1))

    inst = generate_linear_commuting_instance(rng, dim, n_out)
    grid = limit_grid(min(LIMIT_GRID_TOP, inst.povm.g_max))
    report = weak_limit(inst.povm, inst.observable, inst.psi_i, inst.psi_f, grid)
    passed = report.discrepancy <= tol
    return TrialRecord(
        seed=key,
        trial=trial,
        dim=dim,
        n_out=n_out,
        g_min=float(grid.min()),
        extrapolated=report.extrapolated_limit,
        traditional=report.traditional_value,
        discrepancy=report.discrepancy,
        passed=passed,
        instance=None if passed else inst,
    )


def conjecture_sweep(
    seed: int,
    trials: int,
    dim: int | None = None,
    n_out: int | None = None,
    tol: float = CONJECTURE_TOL,
) -> list[TrialRecord]:
    """Independent conjecture trials with streams derived from (seed, index)."""
    return [
        conjecture_trial(seed, trial=t, dim=dim, n_out=n_out, tol=tol)
        for t in range(trials)
    ]
