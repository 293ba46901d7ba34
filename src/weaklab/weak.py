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
from functools import cached_property

import numpy as np

from .contextual import FMatrix, GridSolution, build_F, solve_grid
from .errors import GenerationFailed, NoExactCv, OrthogonalPostselection
from .linalg import check_state, clamp_psd, dagger
from .povm import ParamPovm, PolyMatrix, check_coupling, measurement_operators

OVERLAP_TOL = 1e-12
#: the g -> 0 ladder's top coupling; limit_grid lowers it to a smaller g_max
LIMIT_GRID_TOP = 0.1
LIMIT_GRID_POINTS = 13
LIMIT_FIT_POINTS = 5
CONJECTURE_TOL = 1e-3
#: upper ends of the ranges unfixed trial shapes are drawn from (2 <= dim <= n_out)
TRIAL_DIM_MAX = 4
TRIAL_N_OUT_MAX = 5


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


def limit_grid(g_max: float = LIMIT_GRID_TOP) -> np.ndarray:
    """The g -> 0 ladder min(LIMIT_GRID_TOP, g_max) * 2**-k, k < LIMIT_GRID_POINTS, descending."""
    return min(LIMIT_GRID_TOP, g_max) * 2.0 ** -np.arange(LIMIT_GRID_POINTS, dtype=float)


@dataclass
class WeakLimitReport:
    """Extrapolated small-coupling limit of the conditioned average."""

    g_grid: np.ndarray
    conditioned_averages: np.ndarray
    success_probabilities: np.ndarray
    fit: np.polynomial.Polynomial  # quadratic in the fit window's scaled coupling
    extrapolated_limit: float
    traditional_value: float
    discrepancy: float

    @cached_property
    def fit_coefficients(self) -> np.ndarray:
        """Ascending, in g itself: value(g) ~ c0 + c1 g + c2 g^2; computed on first read."""
        return self.fit.convert().coef


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
    The default grid is limit_grid(povm.g_max).  This builds F, solves
    it on the grid and hands both to _spectral_weak_limit, which does the
    rest.
    """
    if g_grid is None:
        g_grid = limit_grid(povm.g_max)
    F = build_F(povm, A)
    return _spectral_weak_limit(F, solve_grid(F, g_grid), povm, A, psi_i, psi_f)


def _spectral_weak_limit(
    F: FMatrix,
    sol: GridSolution,
    povm: ParamPovm,
    A: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
) -> WeakLimitReport:
    """weak_limit on a spectral matrix F = build_F(povm, A) and its solve_grid solution.

    The caller has built F, which checked A, and solved it on the grid.  The
    conditioned averages come from sqrt F(g) in the common eigenbasis
    B, with no matrix square root: M_j(g) = B diag(sqrt F(g)[:, j]) B^H, so
    <psi_f|M_j psi_i> = sum_i conj(y_i) sqrt F_ij(g) x_i with x = B^H psi_i
    and y = B^H psi_f.  Each state is checked once here.  Errors come in
    this order: NoExactCv, InvalidState, then OutOfValidityRange for a
    coupling outside (0, g_max], NotPositive from linalg.clamp_psd
    (psd_sqrt's rule, per outcome and coupling), and
    OrthogonalPostselection.

    Each floating-point step repeats the one conditioned_average takes (a
    matmul dot for vdot, abs(z) ** 2 per weight), so when B is a permutation
    of the standard basis, as for every generated and registry family, the
    averages equal the per-point ones bit for bit.
    """
    if not sol.exact:
        raise NoExactCv(
            f"no exact contextual values on the grid (worst residual {sol.residuals.max():.3e})"
        )
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    values, probs = _ladder(F, sol, povm.g_max, psi_i, psi_f)
    g_grid = sol.g_grid

    order = np.argsort(g_grid)[:LIMIT_FIT_POINTS]
    fit = np.polynomial.Polynomial.fit(g_grid[order], values[order], 2)
    extrapolated = float(fit(0.0))

    traditional = _weak_value(
        np.asarray(A, dtype=complex),
        np.outer(psi_i, psi_i.conj()),
        np.outer(psi_f, psi_f.conj()),
    )
    return WeakLimitReport(
        g_grid=g_grid,
        conditioned_averages=values,
        success_probabilities=probs,
        fit=fit,
        extrapolated_limit=extrapolated,
        traditional_value=traditional,
        discrepancy=abs(extrapolated - traditional),
    )


def _weak_value(A: np.ndarray, rho: np.ndarray, effect: np.ndarray) -> float:
    """Symmetrized weak value tr(E (A rho + rho A)) / (2 tr(E rho)) of checked inputs.

    For pure rho and a rank-one effect this is the real part of the
    traditional weak value.
    """
    denom = float(np.trace(effect @ rho).real)
    if denom <= OVERLAP_TOL:
        raise OrthogonalPostselection(f"postselection probability {denom:.3e} vanishes")
    num = float(np.trace(effect @ (A @ rho + rho @ A)).real)
    return num / (2.0 * denom)


def _ladder(
    F: FMatrix, sol: GridSolution, g_max: float, psi_i: np.ndarray, psi_f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditioned averages and success probabilities at every coupling of sol.

    psi_i and psi_f are check_state's output.
    """
    check_coupling(sol.g_grid, g_max)
    root = np.sqrt(clamp_psd(sol.F_g.swapaxes(1, 2)))  # (n_g, n_out, d)
    x = dagger(F.basis) @ psi_i
    y = dagger(F.basis) @ psi_f
    amplitudes = (y.conj() @ (root * x)[..., None])[..., 0]
    # scalar abs(z) ** 2 as in conditioned_average: np.abs and squaring on
    # arrays round differently in the last bit, which the fit amplifies
    weights = np.array([abs(z) ** 2 for z in amplitudes.ravel()]).reshape(amplitudes.shape)
    success = weights.sum(axis=1)
    vanishing = np.flatnonzero(success <= OVERLAP_TOL)
    if vanishing.size:
        k = vanishing[0]
        raise OrthogonalPostselection(
            f"success probability {success[k]:.3e} vanishes at g={sol.g_grid[k]}"
        )
    values = (sol.alpha[:, None, :] @ weights[:, :, None])[:, 0, 0] / success
    return values, success


# --------------------------------------------------------------------------
# randomized conjecture harness


@dataclass
class ConjectureInstance:
    """One randomly drawn linear commuting measurement with states.

    F and sol are the generator's exactness check, kept so that a trial
    builds F and solves its grid once.
    """

    povm: ParamPovm
    observable: np.ndarray
    psi_i: np.ndarray
    psi_f: np.ndarray
    #: build_F(povm, observable)
    F: FMatrix = field(repr=False)
    #: solve_grid(F, limit_grid(povm.g_max)), exact at every coupling
    sol: GridSolution = field(repr=False)


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
    than 0.1, or whose contextual values are not exact on limit_grid(g_max)
    are rejected and redrawn, up to 100 times.  The instance keeps F and
    that grid's solution.
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

        F = build_F(povm, A)
        sol = solve_grid(F, limit_grid(g_max))
        if not sol.exact:
            continue  # ill-conditioned draw; hypothesis of exactness fails numerically
        return ConjectureInstance(povm=povm, observable=A, psi_i=s_i, psi_f=s_f, F=F, sol=sol)
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
    reproducible and order-independent.  The limit is taken by
    _spectral_weak_limit on the F and grid solution the generator made for
    its exactness check, so a trial builds F and solves its grid once.
    Unspecified dimensions are drawn uniformly with n_out >= dim (so exact
    contextual values can exist).
    A failing trial keeps its instance attached for serialization.
    """
    key = (int(seed), int(trial))
    rng = np.random.default_rng(key)
    if dim is None:
        dim = int(rng.integers(2, TRIAL_DIM_MAX + 1))
    if n_out is None:
        n_out = int(rng.integers(dim, TRIAL_N_OUT_MAX + 1))

    inst = generate_linear_commuting_instance(rng, dim, n_out)
    report = _spectral_weak_limit(
        inst.F, inst.sol, inst.povm, inst.observable, inst.psi_i, inst.psi_f
    )
    passed = report.discrepancy <= tol
    return TrialRecord(
        seed=key,
        trial=trial,
        dim=dim,
        n_out=n_out,
        g_min=float(inst.sol.g_grid.min()),
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
