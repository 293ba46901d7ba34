"""Independent references the tests check the library against.

No command reaches these, so they live with the tests: the partial trace
over the meter, the trace distance, the dilation's reduced state and
weak-coupling check (both built on the public `meter.isometry_at`), the
traditional weak value of a pure pre- and postselection, and the
symmetrized weak value of a mixed state and effect, which checks every
input itself, with the rank-one projector that makes a state its operand,
the conjecture trial as a lone loop: its own state draws, build_F and
solve_grid on each draw, then the weak-limit ladder with numpy's own
Polynomial.fit, the path conjecture_sweep batches and stacks, and the
Polynomial a weak-limit report's fit stands for.  The minimum nonzero order of a family,
with the two errors it raises, lives here too: the acceptance suite reads it
and no analysis path does.  So does the residual of a single-coupling
pseudoinverse_cv solution, which no command reads either, and the Monte
Carlo sampler as first written: whole-array draws, searchsorted and
numpy's own mean and std over the materialized accepted weights.  The
conditioned average and the Monte Carlo probabilities are here outcome by
outcome, on povm.measurement_operators, as they were before the library
read them off F's basis.  linalg's two shared kernels, pinv_and_rank and
clamp_psd, are here as first written (boolean-mask inversion and rank sum;
the scale as max |w| of every spectrum), for the leaner forms to match bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from weaklab import montecarlo as mc
from weaklab import weak
from weaklab.contextual import CvSolution, GridSolution, build_F, solve_grid
from weaklab.errors import (
    DimensionError,
    GenerationFailed,
    InvalidMatrix,
    NoExactCv,
    NoSuccesses,
    NotPositive,
    OrthogonalPostselection,
    WeakLabError,
)
from weaklab.files import InstanceSpec
from weaklab.linalg import check_hermitian, check_state, clamp_psd, dagger
from weaklab.meter import MeterModel, isometry_at
from weaklab.povm import ParamPovm, PolyMatrix, check_coupling, measurement_operators
from weaklab.weak import TrialRecord, WeakLimitReport

#: literal copies of linalg.PSD_CLAMP_REL, weak.OVERLAP_TOL and weak.CONJECTURE_TOL (the
#: default --tol), so that a library value moved by mistake does not move the oracles too
PSD_CLAMP_REL = 1e-10
OVERLAP_TOL = 1e-12
CONJECTURE_TOL = 1e-3


def oracle_pinv_and_rank(M: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
    """linalg.pinv_and_rank as first written: the kept singular values inverted through a
    boolean mask, the rank their sum (a plain int for one matrix)."""
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


def oracle_clamp_psd(w: np.ndarray) -> np.ndarray:
    """linalg.clamp_psd as first written: every spectrum's scale is max |w|."""
    low = w.min(axis=-1)
    scale = np.abs(w).max(axis=-1)
    ok = low >= -PSD_CLAMP_REL * np.maximum(scale, 1e-300)
    if not ok.all():
        k = tuple(np.argwhere(~ok)[0])  # () for a single spectrum
        raise NotPositive(
            f"matrix has negative eigenvalue {low[k]:.3e} (scale {scale[k]:.3e})"
        )
    return np.maximum(w, 0.0)


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


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Half the trace norm of A - B (both Hermitian)."""
    diff = check_hermitian(A) - check_hermitian(B)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _meter_components(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """U(g) s as a system_dim x meter_dim matrix: column j is M_j(g) s."""
    s = check_state(s)
    return (isometry_at(model, g) @ s).reshape(model.system_dim, model.meter_dim)


def reduced_state(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """Post-measurement system state sum_j M_j(g) |s><s| M_j(g)^H, the meter traced out."""
    W = _meter_components(model, s, g)
    return W @ dagger(W)


def weak_coupling_check(model: MeterModel, s: np.ndarray) -> tuple[bool, float]:
    """Is U(0) s a product state?  Returns (is_product, second Schmidt coefficient).

    The Schmidt coefficients are the singular values of U(0) s reshaped as a
    system x meter matrix; a product state has only one nonzero coefficient.
    """
    svals = np.linalg.svd(_meter_components(model, s, 0.0), compute_uv=False)
    second = float(svals[1]) if len(svals) > 1 else 0.0
    return second <= 1e-10, second


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


def cv_residual(sol: CvSolution) -> float:
    """||F(g) alpha - a||_2 of a pseudoinverse_cv solution, as solve_grid takes it at that one coupling."""
    return float(solve_grid(sol.F, [sol.g]).residuals[0])


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| onto a normalized state."""
    v = check_state(v)
    return np.outer(v, v.conj())


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


def oracle_random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random unit vector: one standard normal draw of its real and imaginary parts."""
    re, im = rng.standard_normal((2, dim))
    psi = re + 1j * im
    return psi / np.linalg.norm(psi)


def oracle_instance(rng: np.random.Generator, dim: int, n_out: int) -> InstanceSpec:
    """generate_linear_commuting_instance drawn one candidate at a time, each
    with its own ParamPovm, build_F and solve_grid."""
    for _ in range(100):
        a = np.sort(rng.uniform(-1.0, 1.0, size=dim))[::-1]
        w = rng.dirichlet(np.ones(n_out))
        if w.min() <= weak.WEIGHT_FLOOR:
            continue
        Q = rng.uniform(-1.0, 1.0, size=(dim, n_out))
        Q -= Q.mean(axis=1, keepdims=True)
        if np.abs(Q).max(axis=0).min() <= 1e-9:
            continue
        with np.errstate(divide="ignore"):
            ratios = np.where(Q < 0, w[None, :] / -Q, np.inf)
        g_max = min(0.9 * float(ratios.min()), 0.5)
        if g_max < 1e-3:
            continue
        elements = tuple(
            PolyMatrix([np.diag(np.full(dim, w[j])), np.diag(Q[:, j])]) for j in range(n_out)
        )
        povm = ParamPovm(elements=elements, g_max=g_max)
        A = np.diag(a)
        s_i = oracle_random_state(rng, dim)
        s_f = oracle_random_state(rng, dim)
        for _ in range(50):
            if abs(np.vdot(s_f, s_i)) >= 0.1:
                break
            s_f = oracle_random_state(rng, dim)
        else:
            continue
        if solve_grid(build_F(povm, A), weak.limit_grid(g_max)).exact:
            return InstanceSpec("generated", povm=povm, observable=A, psi_i=s_i, psi_f=s_f)
    raise GenerationFailed(f"no admissible instance in 100 attempts (dim={dim}, n_out={n_out})")


def oracle_fit(rep: WeakLimitReport) -> np.polynomial.Polynomial:
    """The Polynomial a weak-limit report's quadratic fit stands for: its scaled coefficients on its domain."""
    return np.polynomial.Polynomial(rep.fit_scaled_coefficients, domain=rep.fit_domain)


def oracle_spectral_weak_limit(
    basis: np.ndarray,
    sol: GridSolution,
    g_max: float,
    A: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
) -> WeakLimitReport:
    """The weak-limit ladder of one member, alone, fitted by numpy's Polynomial.fit.

    The library stacks this ladder over a sweep block and repeats the fit's
    floating-point steps itself; this is the per-trial loop it replaced.
    """
    if not sol.exact:
        raise NoExactCv(
            f"no exact contextual values on the grid (worst residual {sol.residuals.max():.3e})"
        )
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    g_grid = sol.g_grid
    check_coupling(g_grid, g_max)
    root = np.sqrt(clamp_psd(sol.F_g.swapaxes(1, 2)))  # (n_g, n_out, d)
    x = dagger(basis) @ psi_i
    y = dagger(basis) @ psi_f
    amplitudes = (y.conj() @ (root * x)[..., None])[..., 0]
    weights = np.array([abs(z) ** 2 for z in amplitudes.ravel()]).reshape(amplitudes.shape)
    probs = weights.sum(axis=1)
    vanishing = np.flatnonzero(probs <= OVERLAP_TOL)
    if vanishing.size:
        k = vanishing[0]
        raise OrthogonalPostselection(
            f"success probability {probs[k]:.3e} vanishes at g={g_grid[k]}"
        )
    values = (sol.alpha[:, None, :] @ weights[:, :, None])[:, 0, 0] / probs

    order = np.argsort(g_grid)[: weak.LIMIT_FIT_POINTS]
    fit = np.polynomial.Polynomial.fit(g_grid[order], values[order], 2)
    extrapolated = float(fit(0.0))

    rho = np.outer(psi_i, psi_i.conj())
    effect = np.outer(psi_f, psi_f.conj())
    A = np.asarray(A, dtype=complex)
    denom = float(np.trace(effect @ rho).real)
    if denom <= OVERLAP_TOL:
        raise OrthogonalPostselection(f"postselection probability {denom:.3e} vanishes")
    traditional = float(np.trace(effect @ (A @ rho + rho @ A)).real) / (2.0 * denom)
    return WeakLimitReport(
        g_grid=g_grid,
        conditioned_averages=values,
        success_probabilities=probs,
        fit_scaled_coefficients=fit.coef,
        fit_domain=fit.domain,
        extrapolated_limit=extrapolated,
        traditional_value=traditional,
        discrepancy=abs(extrapolated - traditional),
    )


def oracle_conjecture_trial(
    seed, trial: int = 0, dim: int | None = None, n_out: int | None = None, tol: float = CONJECTURE_TOL
) -> TrialRecord:
    """conjecture_trial on its own: its stream, oracle_instance, then oracle_spectral_weak_limit."""
    key = (int(seed), int(trial))
    rng = np.random.default_rng(key)
    if dim is None:
        top = weak.TRIAL_DIM_MAX if n_out is None else max(2, min(weak.TRIAL_DIM_MAX, n_out))
        dim = int(rng.integers(2, top + 1))
    if n_out is None:
        n_out = int(rng.integers(dim, weak.TRIAL_N_OUT_MAX + 1))
    inst = oracle_instance(rng, dim, n_out)
    F = build_F(inst.povm, inst.observable)
    sol = solve_grid(F, weak.limit_grid(inst.povm.g_max))
    report = oracle_spectral_weak_limit(F.basis, sol, inst.povm.g_max, inst.observable, inst.psi_i, inst.psi_f)
    passed = report.discrepancy <= tol
    return TrialRecord(
        seed=key,
        trial=trial,
        dim=dim,
        n_out=n_out,
        g_min=float(sol.g_grid.min()),
        extrapolated=report.extrapolated_limit,
        traditional=report.traditional_value,
        discrepancy=report.discrepancy,
        passed=passed,
        instance=None if passed else inst,
    )


class NonUniformOrder(WeakLabError):
    """Outcomes disagree on the minimum nonzero coefficient order."""

    def __init__(self, per_outcome_orders):
        self.per_outcome_orders = tuple(per_outcome_orders)
        super().__init__(
            f"minimum nonzero orders differ between outcomes: {list(self.per_outcome_orders)}"
        )


class ConstantOutcome(WeakLabError):
    """An outcome has no coupling dependence at all, so no minimum order exists."""


@dataclass(frozen=True)
class MinOrderResult:
    n: int
    per_outcome_orders: tuple[int, ...]


def minimum_nonzero_order(povm: ParamPovm) -> MinOrderResult:
    """Smallest order k >= 1 with a nonzero coefficient, shared by all outcomes.

    Raises ConstantOutcome if some outcome has no coupling dependence, and
    NonUniformOrder (with the per-outcome orders attached) if outcomes
    disagree.
    """
    nonzero = povm.coefficients.any(axis=(-2, -1))
    nonzero[:, 0] = False
    orders = tuple(nonzero.argmax(axis=1).tolist())  # first order >= 1 per outcome, 0 if none
    constant = [j for j, k in enumerate(orders) if k == 0]
    if constant:
        raise ConstantOutcome(
            f"outcomes {constant} have no g-dependence; minimum order undefined"
        )
    if len(set(orders)) != 1:
        raise NonUniformOrder(orders)
    return MinOrderResult(n=orders[0], per_outcome_orders=orders)


def oracle_conditioned_average(
    povm: ParamPovm,
    alpha: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    g: float,
) -> tuple[float, float]:
    """weak.conditioned_average outcome by outcome, on povm.measurement_operators.

    Outcome j contributes weight |<psi_f| M_j(g) psi_i>|^2 with
    M_j = E_j(g)^(1/2); the value is the weight-normalized sum of alpha_j.
    """
    alpha = np.asarray(alpha, dtype=float)
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    if alpha.shape != (povm.n_out,):
        raise ValueError(f"alpha must have shape ({povm.n_out},), got {alpha.shape}")
    weights = np.array([abs(np.vdot(psi_f, M @ psi_i)) ** 2 for M in measurement_operators(povm, g)])
    success = float(weights.sum())
    if success <= OVERLAP_TOL:
        raise OrthogonalPostselection(
            f"success probability {success:.3e} vanishes at g={g}"
        )
    return float(alpha @ weights) / success, success


def oracle_joint_probabilities(
    povm: ParamPovm, psi_i: np.ndarray, psi_f: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """montecarlo.joint_probabilities outcome by outcome: p_j from E_j(g), q_j from M_j(g)."""
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    check_coupling(g, povm.g_max)
    p = np.array([float(np.vdot(psi_i, e(g) @ psi_i).real) for e in povm.elements])
    p = np.clip(p, 0.0, None)
    q = np.zeros_like(p)
    for j, M in enumerate(measurement_operators(povm, g)):
        if p[j] > 0:
            post = M @ psi_i
            q[j] = abs(np.vdot(psi_f, post / np.linalg.norm(post))) ** 2
    return p, q


def oracle_sample_run(F, alpha, psi_i, psi_f, config):
    """The sampler as first written: searchsorted, boolean gathers, two bincounts."""
    alpha = np.asarray(alpha, dtype=float)
    p, q = mc.joint_probabilities(F, psi_i, psi_f, config.g)
    cum = np.cumsum(p)
    cum /= cum[-1]
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u_outcome = rng.random(config.trials)
    u_accept = rng.random(config.trials)
    drawn = np.minimum(np.searchsorted(cum, u_outcome, side="right"), F.n_out - 1)
    accepted = u_accept < q[drawn]
    successes = int(np.count_nonzero(accepted))
    if successes == 0:
        raise NoSuccesses("no trial survived postselection")
    values = alpha[drawn[accepted]]
    spread = float(values.std(ddof=1)) if successes > 1 else 0.0
    analytic, success = weak.conditioned_average(F, alpha, psi_i, psi_f, config.g)
    return mc.McResult(
        empirical_value=float(values.mean()),
        stderr=float(spread / np.sqrt(successes)),
        successes=successes,
        trials=config.trials,
        per_outcome_counts=np.bincount(drawn[accepted], minlength=F.n_out),
        per_outcome_draws=np.bincount(drawn, minlength=F.n_out),
        analytic_value=analytic,
        success_probability=success,
    )
