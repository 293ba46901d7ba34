"""Weak values, postselected conditioned averages, and their small-coupling limits.

The conditioned average weights each outcome's contextual value by the joint
probability of that outcome followed by a successful postselection.  The
open question this module instruments: for measurement families linear in
the coupling (commuting, minimally disturbing, with exact contextual
values), does the conditioned average always converge to the traditional
weak value as the coupling vanishes?  ``conjecture_sweep`` samples random
instances and measures the discrepancy.  It draws only E_j(0) = w_j I
(see ``_povm``), outcomes that carry no information at g = 0: the stratum
on which the 1/g pole of the contextual values is argued to cancel in the
conditioned average (off it, a few draws gave a limit other than the weak
value, or none).  That is a statement about the sampler, not about the
published hypotheses.  ``weak_limit`` and every trial share one core,
``_ladders``: from stacked F bases and solve_grid solutions it forms the
conditioned averages and fits their g -> 0 limits.  Its weights are
``_postselection``'s, which the Monte Carlo shares, and its averages
``_postselected_average``'s: conditioned_average takes both on one coupling.

A sweep batches its linear algebra, not its randomness.  Each trial draws
from its own stream (seeded by (seed, trial)) through the generator
``_draws``, which pauses at each candidate's exactness check.  Trials run in
blocks of ``_SWEEP_BLOCK``, and ``_trial_block`` alone decides which trials
share a stack: it groups a block's trials by drawn (dim, n_out) once and
cuts each group into chunks of at most ``_STACK_ENTRIES`` F(g) entries per
coupling.  In each round every pending trial advances to its next
candidate, and each chunk's candidates are solved together, one stacked
pseudoinverse per chunk.  A refused candidate advances only its own trial,
so every stream is consumed exactly as a lone trial consumes it.  A chunk's
F(g) is the real part of one complex Horner evaluation, the layout
solve_grid uses: numpy's matmul takes BLAS for one layout and its own loop
for another, which round differently.  Each solve's exact candidates run
their ladders at once: the solve's own stack when all are exact, else the
exact members indexed out of it.  They need no guard, as ``_random_state``
and ``limit_grid`` give unit states and couplings in range; ``weak_limit``,
the one-member case and the one caller with outside inputs, checks them.
No arithmetic of a stack runs per member: the averages take one stacked
product, and the quadratic fit is one stacked call of the fit engine
below.  Each stacked step rounds as it does on one member, so every
record equals a lone trial's bit for bit.

One fit engine serves every fit of the package, bit for bit with numpy:
``_polyfit_rows`` repeats Polynomial.fit for a stack of rows with one
least-squares call, ``_power_series`` its convert and ``_polyval`` its
polyval.  asymptotics fits on it too, so no command imports numpy.polynomial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contextual import FMatrix, GridSolution, build_F, check_row_sums, solve_grid, solve_stack
from .errors import GenerationFailed, NoExactCv, OrthogonalPostselection, ValidationError, WeakLabError
from .files import InstanceSpec
from .linalg import DEGENERACY_TOL, _lstsq_rows, check_state, clamp_psd, dagger
from .povm import ParamPovm, PolyMatrix, check_coupling

OVERLAP_TOL = 1e-12
#: the g -> 0 ladder's top coupling; limit_grid lowers it to a smaller g_max
LIMIT_GRID_TOP = 0.1
LIMIT_GRID_POINTS = 13
LIMIT_FIT_POINTS = 5
#: the least relative width, (largest - smallest) / largest, of a custom ladder's fit window,
#: its LIMIT_FIT_POINTS smallest couplings: the quadratic fit's rounding grows about as the
#: inverse square of the window's relative width, and this width keeps it near 1e-9
LIMIT_FIT_WIDTH = 1e-3
CONJECTURE_TOL = 1e-3
#: generated outcome weights at or below this are rejected and redrawn
WEIGHT_FLOOR = 1e-3
#: upper ends of the ranges unfixed trial shapes are drawn from (2 <= dim <= n_out)
TRIAL_DIM_MAX = 4
TRIAL_N_OUT_MAX = 5
#: trials whose draws conjecture_sweep solves together: the README's 100-trial
#: sweep is one block.  A block keeps each accepted trial's draw and solution
#: until its ladders run, about 4 MiB at the largest drawn shape
_SWEEP_BLOCK = 128
#: most F(g) entries per coupling (dim * n_out per trial) in one stacked solve
#: or ladder: a block of any drawn shape fits, and one of a large fixed shape
#: runs in chunks, which bounds the SVD's workspace and the ladders' weights
_STACK_ENTRIES = 4096


def conditioned_average(
    F: FMatrix,
    alpha: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    g: float,
) -> tuple[float, float]:
    """Postselected average of the outcome weights, plus the success probability.

    Outcome j contributes weight |<psi_f| M_j(g) psi_i>|^2 (see _postselection); the value is
    the weight-normalized sum of alpha_j, by the ladders' own _postselected_average.  Errors
    come in the order NoBasis, InvalidState (psi_i, then psi_f), ValueError (alpha's shape),
    NotPositive, OrthogonalPostselection.  As in pseudoinverse_cv, the caller checks g's range.
    """
    basis = _operator_basis(F)
    alpha = np.asarray(alpha, dtype=float)
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    if alpha.shape != (F.n_out,):
        raise ValueError(f"alpha must have shape ({F.n_out},), got {alpha.shape}")
    weights = _postselection(basis, np.real(F.poly(g))[None], psi_i, psi_f)[1]
    [value], [success] = _postselected_average(alpha, weights, np.array([g]))
    return float(value), float(success)


def _operator_basis(F: FMatrix) -> np.ndarray:
    """F's common eigenbasis; a raw family (basis None) has no operators to postselect."""
    if F.basis is None:
        raise ValidationError("NoBasis", "a raw matrix family has no measurement operators")
    return F.basis


def _postselection(bases, Fg, psi_i, psi_f) -> tuple[np.ndarray, np.ndarray]:
    """x = B^H psi_i (..., d) and the weights |<psi_f|M_j(g) psi_i>|^2 (..., n_g, n_out)
    of checked states (..., d), F bases B (..., d, d) and F(g) stacks (..., n_g, d, n_out).

    M_j(g) = B diag(sqrt F(g)[:, j]) B^H, so the amplitude is sum_i conj(y_i) sqrt F_ij x_i
    with y = B^H psi_f, sqrt F through linalg.clamp_psd.  The steps repeat vdot's, so in a
    permutation basis (every generated and registry family) the weights equal
    abs(vdot(psi_f, M_j @ psi_i)) ** 2 bit for bit.
    """
    root = np.sqrt(clamp_psd(Fg.swapaxes(-1, -2)))  # (..., n_g, n_out, d)
    Bh = dagger(bases)
    x = (Bh @ psi_i[..., None])[..., 0]
    y = (Bh @ psi_f[..., None])[..., 0]
    amplitudes = (y.conj()[..., None, None, None, :] @ (root * x[..., None, None, :])[..., None])[..., 0, 0]
    return x, _squared_moduli(amplitudes)


def _postselected_average(alpha, weights, g) -> tuple[np.ndarray, np.ndarray]:
    """Averages alpha . w / sum(w) and success probabilities sum(w) (...) of contextual values
    alpha (..., n_out) and _postselection's weights w (..., n_out) at couplings g (...).

    Raises OrthogonalPostselection at the first coupling, in C order, whose success is at
    most OVERLAP_TOL."""
    probs = weights.sum(axis=-1)
    vanishing = probs <= OVERLAP_TOL
    if vanishing.any():
        at = tuple(np.argwhere(vanishing)[0])
        raise OrthogonalPostselection(f"success probability {probs[at]:.3e} vanishes at g={g[at]}")
    return (alpha[..., None, :] @ weights[..., None])[..., 0, 0] / probs, probs


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """abs(z) ** 2 of each entry of the complex array z, rounded as numpy's scalars round it.

    np.abs and squaring on arrays round differently in the last bit, which
    the fit amplifies.  Python's abs and ** on the listed entries take the
    same libm hypot and pow as numpy's complex and float scalars, without
    making a numpy scalar per entry.
    """
    return np.array([abs(v) ** 2 for v in z.ravel().tolist()]).reshape(z.shape)


def limit_grid(g_max: float | np.ndarray = LIMIT_GRID_TOP) -> np.ndarray:
    """The g -> 0 ladder min(LIMIT_GRID_TOP, g_max) * 2**-k, k < LIMIT_GRID_POINTS, descending.

    An array of tops (...,) gives their ladders (..., LIMIT_GRID_POINTS).
    """
    return np.minimum(LIMIT_GRID_TOP, g_max)[..., None] * 2.0 ** -np.arange(LIMIT_GRID_POINTS, dtype=float)


@dataclass
class WeakLimitReport:
    """Extrapolated small-coupling limit of the conditioned average."""

    g_grid: np.ndarray
    conditioned_averages: np.ndarray
    success_probabilities: np.ndarray
    #: the quadratic fit's coefficients in its window's scaled coupling, and its domain
    fit_scaled_coefficients: np.ndarray = field(repr=False)
    fit_domain: np.ndarray = field(repr=False)
    extrapolated_limit: float
    traditional_value: float
    discrepancy: float

    @cached_property
    def fit_coefficients(self) -> np.ndarray:
        """Ascending, in g itself: value(g) ~ c0 + c1 g + c2 g^2; computed on first read."""
        return _power_series(self.fit_scaled_coefficients, self.fit_domain)


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
    The default grid is limit_grid(povm.g_max).  Errors come in the order
    NoExactCv, InvalidState, OutOfValidityRange, then _ladders' own.
    """
    if g_grid is None:
        g_grid = limit_grid(povm.g_max)
    F = build_F(povm, A)
    sol = solve_grid(F, g_grid)
    if not sol.exact:
        raise NoExactCv(
            f"no exact contextual values on the grid (worst residual {sol.residuals.max():.3e})"
        )
    psi_i, psi_f = check_state(psi_i), check_state(psi_f)
    check_coupling(sol.g_grid, povm.g_max)
    [report] = _ladders(F.basis[None], sol[None], np.asarray(A, dtype=complex)[None], psi_i[None], psi_f[None])
    return report


def _ladders(bases, sol: GridSolution, A, psi_i, psi_f) -> list[WeakLimitReport]:
    """Weak-limit reports of a stack: F bases (k, d, d), their exact solve_grid solutions
    stacked in sol, observables A (k, d, d) and unit states psi_i, psi_f (k, d).

    Raises only the stack's first NotPositive (linalg.clamp_psd) or
    OrthogonalPostselection.  The averages are conditioned_average's own
    step, _postselected_average, taken on the whole stack at once.
    """
    g = sol.g_grid  # (k, n_g)
    weights = _postselection(bases, sol.F_g, psi_i, psi_f)[1]
    values, probs = _postselected_average(sol.alpha, weights, g)  # (k, n_g) each

    lowest = np.arange(len(g))[:, None], np.argsort(g, axis=-1)[:, :LIMIT_FIT_POINTS]
    coef, domain, _ = _polyfit_rows(g[lowest], values[lowest], 2)
    off, scl = _onto_window(domain[:, 0], domain[:, 1])
    at_zero = _polyval(off + scl * 0.0, coef)  # each fit at 0.0, mapped onto its window
    traditional = _weak_values(A, psi_i, psi_f)
    reports = []
    for m in range(len(g)):
        extrapolated, value = float(at_zero[m]), float(traditional[m])
        reports.append(WeakLimitReport(
            g_grid=g[m],
            conditioned_averages=values[m],
            success_probabilities=probs[m],
            fit_scaled_coefficients=coef[m],
            fit_domain=domain[m],
            extrapolated_limit=extrapolated,
            traditional_value=value,
            discrepancy=abs(extrapolated - value),
        ))
    return reports


def _polyfit_rows(x: np.ndarray, y: np.ndarray, deg: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polynomial.fit(x, y[m], deg) of each row m of y (k, n): its coef (k, deg + 1), domain
    and the rank (k,) of its least-squares solve, full at deg + 1.

    x (n,) is shared by every row, with one domain (2,), or x (k, n) gives
    each row its own, with domains (k, 2).  Every floating-point step is
    numpy's own, in its order: the domain (widened by 1 each way when it
    has zero width), the map onto the window [-1, 1], the Vandermonde
    matrix, its column norms (a zero norm taken as 1), the least-squares
    solve with rcond = n eps and the unscaling, so each fit is
    Polynomial.fit's bit for bit.  The rows are solved in one _lstsq_rows
    call, with one RankWarning per row whose rank falls short.
    """
    lo, hi = x.min(axis=-1), x.max(axis=-1)
    flat = lo == hi
    lo, hi = np.where(flat, lo - 1, lo), np.where(flat, hi + 1, hi)
    off, scl = _onto_window(lo, hi)
    t = (off[..., None] + scl[..., None] * x) + 0.0
    V = np.empty((*t.shape[:-1], deg + 1, t.shape[-1]))  # polyvander's layout and steps
    V[..., 0, :] = t * 0 + 1
    if deg > 0:
        V[..., 1, :] = t
    for i in range(2, deg + 1):
        V[..., i, :] = V[..., i - 1, :] * t
    norms = np.sqrt(np.square(V).sum(axis=-1))
    norms[norms == 0] = 1
    lhs = V.swapaxes(-1, -2) / norms[..., None, :]
    coef, ranks = _lstsq_rows(lhs, y + 0.0, x.shape[-1] * np.finfo(float).eps)
    for _ in range(np.count_nonzero(ranks != deg + 1)):
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    coef /= norms
    return coef, np.stack([lo, hi], axis=-1), ranks


def _onto_window(lo, hi):
    """mapparms((lo, hi), (-1, 1)): (off, scl) of the map off + scl x of [lo, hi] onto the window."""
    span = hi - lo
    return (hi * -1.0 - lo * 1.0) / span, 2.0 / span


def _polyval(x, c: np.ndarray):
    """numpy.polynomial.polynomial.polyval(x, c) for coefficients c along the last axis,
    by its Horner steps; c (..., deg + 1) broadcasts against x."""
    value = c[..., -1] + x * 0
    for i in range(2, c.shape[-1] + 1):
        value = c[..., -i] + value * x
    return value


def _power_series(c: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Polynomial(c, domain=domain).convert().coef: a fit's coefficients in x itself.

    convert is Horner's rule in polynomial arithmetic on the map m = off + scl x
    of the domain onto the window.  As numpy does it, each product is
    np.convolve in numpy's argument order, trimmed of its trailing zeros, and
    each sum adds a coefficient to the constant term (which leaves nothing
    to trim).
    """
    off, scl = _onto_window(domain[0], domain[1])
    m = _trimmed(np.array([0.0 * scl + off, scl]))  # off + scl * [0, 1], as numpy forms it
    value = _trimmed(np.convolve(m, [0.0]))  # m * 0
    value[0] += c[-1]
    for ci in c[-2::-1]:
        value = _trimmed(np.convolve(value, m))
        value[0] += ci
    return value


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c without its trailing zeros, keeping at least one entry: numpy's trimseq."""
    end = len(c)
    while end > 1 and c[end - 1] == 0:
        end -= 1
    return c[:end]


def _weak_values(A: np.ndarray, psi_i: np.ndarray, psi_f: np.ndarray) -> np.ndarray:
    """Symmetrized weak value tr(E (A rho + rho A)) / (2 tr(E rho)) of checked inputs, per member.

    rho = |psi_i><psi_i| and E = |psi_f><psi_f|, so this is the real part
    of the traditional weak value.
    """
    rho = psi_i[:, :, None] * psi_i.conj()[:, None, :]  # np.outer, stacked
    effect = psi_f[:, :, None] * psi_f.conj()[:, None, :]
    denom = np.trace(effect @ rho, axis1=-2, axis2=-1).real
    vanishing = denom <= OVERLAP_TOL
    if vanishing.any():
        raise OrthogonalPostselection(
            f"postselection probability {float(denom[vanishing.argmax()]):.3e} vanishes"
        )
    num = np.trace(effect @ (A @ rho + rho @ A), axis1=-2, axis2=-1).real
    return num / (2.0 * denom)


# --------------------------------------------------------------------------
# randomized conjecture harness


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
    instance: InstanceSpec | None = field(default=None, repr=False)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random unit vector: real parts, then imaginary parts, drawn standard normal."""
    v = np.empty(dim, dtype=complex)
    re, im = v.real, v.imag
    re[:], im[:] = rng.standard_normal((2, dim))
    # np.linalg.norm(v)'s own steps: BLAS dot on the strided real and imaginary
    # views (dot on contiguous copies rounds differently)
    return v / np.sqrt(re.dot(re) + im.dot(im))


def _draws(rng: np.random.Generator, dim: int, n_out: int):
    """The candidate draws (a, w, Q, g_max, psi_i, psi_f) of generate_linear_commuting_instance.

    Each draw that passes the cheap rejections is yielded where its
    contextual values are to be checked; advancing again rejects it.  After
    the last of 100 attempts, or before any draw for a shape no draw can
    pass, this raises GenerationFailed.
    """
    if dim < 2 or n_out < 2:
        raise ValueError("need dim >= 2 and n_out >= 2")
    if n_out < dim:
        raise GenerationFailed(
            f"no instance with n_out={n_out} < dim={dim}: F(g) has rank below dim"
        )
    if 1.0 / n_out <= WEIGHT_FLOOR:
        raise GenerationFailed(
            f"no instance with n_out={n_out}: the smallest outcome weight is at most "
            f"1/n_out, at or below the floor {WEIGHT_FLOOR:g}"
        )
    ones = np.ones(n_out)
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, size=dim)
        a.sort()
        a = a[::-1]
        w = rng.dirichlet(ones)
        if min(w.tolist()) <= WEIGHT_FLOOR:
            continue
        Q = rng.uniform(-1.0, 1.0, size=(dim, n_out))
        Q -= Q.sum(axis=1, keepdims=True) / n_out  # np.mean's steps: rows sum to zero across outcomes
        if np.abs(Q).max(axis=0).min() <= 1e-9:
            continue  # some outcome has no first-order term

        ratios = np.divide(w, -Q, out=np.full(Q.shape, np.inf), where=Q < 0)
        radius = float(ratios.min())
        g_max = min(0.9 * radius, 0.5)
        if g_max < 1e-3:
            continue

        s_i = _random_state(rng, dim)
        s_f = _random_state(rng, dim)
        for _ in range(50):
            if abs(np.vdot(s_f, s_i)) >= 0.1:
                break
            s_f = _random_state(rng, dim)
        else:
            continue

        yield a, w, Q, g_max, s_i, s_f
    raise GenerationFailed(
        f"no admissible instance in 100 attempts (dim={dim}, n_out={n_out})"
    )


def _povm(w: np.ndarray, Q: np.ndarray, g_max: float) -> ParamPovm:
    """The drawn family: outcome j is w_j I + g diag(Q[:, j])."""
    dim, n_out = Q.shape
    elements = tuple(
        PolyMatrix([np.diag(np.full(dim, w[j])), np.diag(Q[:, j])]) for j in range(n_out)
    )
    return ParamPovm(elements=elements, g_max=g_max)


def _solve_draws(draws: list[tuple]) -> tuple[np.ndarray, np.ndarray, GridSolution]:
    """(exact, bases, sol) of draws of one shape, solved in one stack: member m of sol is
    solve_grid(F, limit_grid(g_max)) of draw m's F = build_F(povm, A), bases[m] is F.basis
    and exact[m] says whether its contextual values are exact.

    F is read off the draw: identity basis, rows in a's descending order,
    coefficients w and Q.  Where adjacent entries of a are within
    DEGENERACY_TOL, build_F's tie-break could permute rows, so F comes from
    build_F.  F(g) has solve_grid's layout, so each solution is bit for bit
    solve_grid's.  An incomplete draw raises ValidationError("RowSum").
    """
    a, w, Q, g_max = (np.array(field) for field in zip(*(draw[:4] for draw in draws)))
    k, dim, n_out = Q.shape
    C = np.empty((k, 2, dim, n_out), dtype=complex)  # (k, order, d, n_out)
    C[:, 0], C[:, 1] = w[:, None, :], Q
    a_vec = a[:, None, :]  # (k, 1, d)
    bases = np.array([np.eye(dim, dtype=complex)] * k)
    tied = (a[:, :-1] - a[:, 1:]).min(axis=1) <= DEGENERACY_TOL * np.maximum(1.0, np.abs(a).max(axis=1))
    for m in np.flatnonzero(tied).tolist():
        a_m, w_m, Q_m, g_max_m = draws[m][:4]
        F = build_F(_povm(w_m, Q_m, g_max_m), np.diag(a_m))
        C[m], a_vec[m, 0], bases[m] = F.poly.coefficients, F.a_vec, F.basis
    check_row_sums(C)
    g = limit_grid(g_max)  # (k, n_g)
    Fg = np.real(C[:, None, 1] * g[..., None, None] + C[:, None, 0])
    sol = solve_stack(Fg, a_vec, g)
    return sol.exact, bases, sol


def _draw_ladders(draws: list[tuple], bases: np.ndarray, sol: GridSolution) -> list[WeakLimitReport]:
    """_ladders of exact draws (a, w, Q, g_max, psi_i, psi_f) with _solve_draws' bases and sol."""
    psi_i, psi_f = (np.array(states) for states in zip(*(draw[4:] for draw in draws)))
    return _ladders(bases, sol, np.array([np.diag(draw[0]) for draw in draws], dtype=complex), psi_i, psi_f)


def _instance(draw: tuple, name: str, notes: str = "") -> InstanceSpec:
    a, w, Q, g_max, psi_i, psi_f = draw
    return InstanceSpec(name, _povm(w, Q, g_max), observable=np.diag(a), psi_i=psi_i, psi_f=psi_f, notes=notes)


def generate_linear_commuting_instance(
    rng: np.random.Generator,
    dim: int,
    n_out: int,
) -> InstanceSpec:
    """Draw a diagonal measurement family linear in g satisfying every hypothesis, as
    the InstanceSpec "generated" with its observable and both states.

    Zeroth order: outcome weights w_j times the identity, w drawn from a
    symmetric Dirichlet (so zero coupling extracts no information and the
    dilation is a product state).  First order: diagonal matrices whose
    entries sum to zero across outcomes at every basis index.  The validity
    range is 90% of the exact positivity radius; draws with a weight at or
    below WEIGHT_FLOOR, whose radius falls below 1e-3, whose first order
    degenerates, whose states overlap by less than 0.1, or whose contextual
    values are not exact on limit_grid(g_max) are rejected and redrawn, up
    to 100 times.

    A shape no draw can pass raises GenerationFailed before any draw:
    n_out < dim leaves F(g) rank-deficient, and the smallest of n_out
    weights summing to 1 is at most 1/n_out.
    """
    for draw in _draws(rng, dim, n_out):  # raises GenerationFailed after its last draw
        if _solve_draws([draw])[0][0]:
            return _instance(draw, "generated")


def _trial_shape(rng: np.random.Generator, dim: int | None, n_out: int | None) -> tuple[int, int]:
    if dim is None:
        top = TRIAL_DIM_MAX if n_out is None else max(2, min(TRIAL_DIM_MAX, n_out))
        dim = int(rng.integers(2, top + 1))
    if n_out is None:
        n_out = int(rng.integers(dim, TRIAL_N_OUT_MAX + 1))
    return dim, n_out


def _trial_block(seed, trials, dim, n_out, tol) -> list[TrialRecord]:
    """conjecture_trial of each trial index, stacked by chunk (see the module docstring).

    If a ladder stack fails, its trials run again alone once every round has
    run, in trial order, so the first failing trial raises its own error.
    """
    keys, shapes, streams = [], [], []
    for t in trials:
        keys.append((int(seed), int(t)))
        rng = np.random.default_rng(keys[-1])
        shapes.append(_trial_shape(rng, dim, n_out))
        streams.append(_draws(rng, *shapes[-1]))
    chunks = []  # the block's trials by shape, at most _STACK_ENTRIES entries a chunk
    for d, n in dict.fromkeys(shapes):
        same_shape = [i for i, shape in enumerate(shapes) if shape == (d, n)]
        step = max(1, _STACK_ENTRIES // (d * n))
        chunks += [same_shape[start : start + step] for start in range(0, len(same_shape), step)]

    accepted, reports, failed = [None] * len(keys), [None] * len(keys), []
    pending = chunks
    while pending:
        draws = {i: next(streams[i]) for i in sorted(i for chunk in pending for i in chunk)}
        for chunk in pending:
            exact, bases, sol = _solve_draws([draws[i] for i in chunk])
            kept = [i for i, ok in zip(chunk, exact.tolist()) if ok]
            if not kept:
                continue
            if len(kept) < len(chunk):
                bases, sol = bases[exact], sol[exact]
            for i in kept:
                accepted[i] = draws[i]
            try:
                for i, report in zip(kept, _draw_ladders([draws[i] for i in kept], bases, sol)):
                    reports[i] = report
            except WeakLabError as err:
                failed.append((kept, err))
        pending = [left for chunk in pending if (left := [i for i in chunk if accepted[i] is None])]

    if failed:
        for i in sorted(i for chunk, _ in failed for i in chunk):
            _draw_ladders([accepted[i]], *_solve_draws([accepted[i]])[1:])
        raise failed[0][1]
    records = []
    for t, key, (d, n), draw, report in zip(trials, keys, shapes, accepted, reports):
        passed = report.discrepancy <= tol
        records.append(TrialRecord(
            key, t, d, n, float(report.g_grid.min()), report.extrapolated_limit,
            report.traditional_value, report.discrepancy, passed,
            instance=None if passed else _instance(
                draw, f"conjecture-fail-s{key[0]}-t{t}",
                f"failing conjecture trial: seed {key[0]}, trial {t}, "
                f"discrepancy {report.discrepancy:.6e} at tol {tol:g}",
            ),
        ))
    return records


def conjecture_trial(
    seed,
    trial: int = 0,
    dim: int | None = None,
    n_out: int | None = None,
    tol: float = CONJECTURE_TOL,
) -> TrialRecord:
    """Run one random trial of the linear-family convergence conjecture.

    The per-trial stream is derived from (seed, trial) so sweeps are
    reproducible and order-independent; this is conjecture_sweep's path for
    one trial.  The limit is taken by _ladders on the grid solution of the
    generator's exactness check, so a trial solves its grid once.
    Unspecified dimensions are drawn uniformly with n_out >= dim (so exact
    contextual values can exist): dim from [2, min(TRIAL_DIM_MAX, n_out)]
    when n_out is fixed, n_out from [dim, TRIAL_N_OUT_MAX] when it is not.  A failing trial
    carries its InstanceSpec, conjecture-fail-s{seed}-t{trial}, ready to save.
    """
    return _trial_block(seed, [trial], dim, n_out, tol)[0]


def conjecture_sweep(
    seed: int,
    trials: int,
    dim: int | None = None,
    n_out: int | None = None,
    tol: float = CONJECTURE_TOL,
) -> list[TrialRecord]:
    """Independent conjecture trials with streams derived from (seed, index).

    Trials run in blocks of _SWEEP_BLOCK (see _trial_block); every record
    equals conjecture_trial's for its index.
    """
    records = []
    for start in range(0, trials, _SWEEP_BLOCK):
        block = range(start, min(trials, start + _SWEEP_BLOCK))
        records += _trial_block(seed, block, dim, n_out, tol)
    return records
