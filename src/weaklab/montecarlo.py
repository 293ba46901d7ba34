"""Monte Carlo simulation of the postselected measurement protocol.

Each trial draws an outcome j with probability <psi_i|E_j(g) psi_i>, forms
the post-measurement state M_j psi_i / ||M_j psi_i||, and accepts with the
postselection probability |<psi_f|state>|^2.  The empirical conditioned
average is the mean outcome weight over accepted trials.  `mc_run` is the
whole `mc-run` command: it checks the coupling, builds F, takes the exact
contextual values at g and samples; its `McResult` carries
weak.conditioned_average's analytic value beside the estimate.

Sampling uses a counter-based generator (Philox) keyed by the config seed,
so reruns are bit-identical.  The first `trials` values of the stream pick
the outcomes: a trial's outcome is the number of cumulative probability
bounds at or below its uniform.  The next `trials` values decide acceptance.
The sampler reads the stream as raw 64-bit words and never forms the
uniforms: numpy's Philox double is exactly k 2**-53 with k = word >> 11, and
x 2**53 is exact for x in [0, 1], so u >= b holds exactly when
k >= ceil(b 2**53) and u < q exactly when k < ceil(q 2**53).  Each bound and
each acceptance probability becomes such an integer threshold once per run
(`_thresholds`), and every outcome and acceptance is the one the doubles
would give.  The mean and the spread are numpy's own `mean` and
`std(ddof=1)` of the accepted outcome weights in draw order, formed without
that array (see `_mean_and_spread`).

The trials run in blocks small enough to stay in cache: each block draws its
outcome words, searches the bounds, draws its acceptance words, accepts,
tallies and appends its accepted outcome codes before the next block
starts.  The acceptance words come from a second Philox bit generator moved
straight to stream position `trials`, which a counter-based stream allows
without drawing the values before it.  One bincount over the codes
2 j + accepted tallies the draws and the acceptances of every outcome.  Only
the accepted outcome codes are kept at trial length, in the smallest
unsigned type that holds n_out - 1: one byte a trial up to 256 outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contextual import FMatrix, build_F, solve_grid
from .errors import NoExactCv, NoSuccesses
from .linalg import check_state
from .povm import ParamPovm, check_coupling
from .weak import _operator_basis, _postselection, conditioned_average

# Trials per block.  A block's words and search codes (16 bytes a trial,
# 256 KiB at 2**14) stay in a core's L2 cache from the draw to the tally;
# 2**12 to 2**14 ran fastest, and 2**16 and above lost most of the gain over
# whole-array passes.  It is also the most weights the final sums gather at
# once: the leaf size of `_pairwise_sum`.
_BLOCK = 2**14


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int
    g: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass
class McResult:
    empirical_value: float
    stderr: float
    successes: int
    trials: int
    per_outcome_counts: np.ndarray  # accepted trials per outcome
    per_outcome_draws: np.ndarray  # drawn trials per outcome
    analytic_value: float  # weak.conditioned_average's value, which the sample estimates
    success_probability: float  # and its success probability


def joint_probabilities(
    F: FMatrix, psi_i: np.ndarray, psi_f: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p_j = sum_i |x_i|^2 F_ij(g) and acceptance probabilities
    q_j = min(w_j / p_j, 1) (0 where p_j is 0) for weak._postselection's x and w.

    sqrt F(g)^2 may round above F(g), hence the min.  As in pseudoinverse_cv,
    the caller checks the coupling range."""
    basis = _operator_basis(F)
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    Fg = np.real(F.poly(g))
    x, weights = _postselection(basis, Fg[None], psi_i, psi_f)
    p = np.clip(np.square(np.abs(x)) @ Fg, 0.0, None)
    q = np.divide(weights[0], p, out=np.zeros_like(p), where=p > 0)
    return p, np.minimum(q, 1.0)


def _thresholds(x: np.ndarray) -> np.ndarray:
    """ceil(x 2**53) as uint64 words, x clipped to 1: the integer form of a uniform's bound.

    For a Philox uniform u = k 2**-53 and x in [0, 1], u >= x exactly when
    k >= _thresholds(x) and u < x exactly when k < _thresholds(x).  Past 1,
    +inf included, the threshold is 2**53, which no k = word >> 11 reaches.
    """
    return np.ceil(np.minimum(x, 1.0) * 2.0**53).astype(np.uint64)


def _pairwise_sum(weights: np.ndarray, codes: np.ndarray) -> np.float64:
    """np.add.reduce(weights.take(codes)) bit for bit, gathering at most _BLOCK weights at once.

    numpy sums a contiguous float array pairwise: a run of n > 128 values
    splits at n // 2 rounded down to a multiple of 8, whatever the values,
    and the sum starts from the identity 0.0.  This follows the same splits
    down to runs of at most _BLOCK codes and lets np.add.reduce sum each of
    those.  Its 0.0 + (left + right) can differ from numpy's left + right
    only in the sign of a zero, which the 0.0 of the next level up erases.
    """
    n = codes.size
    if n <= _BLOCK:
        return np.add.reduce(weights.take(codes))
    half = n // 2
    half -= half % 8
    return 0.0 + (_pairwise_sum(weights, codes[:half]) + _pairwise_sum(weights, codes[half:]))


def _mean_and_spread(weights: np.ndarray, codes: np.ndarray) -> tuple[float, float]:
    """weights.take(codes).mean() and .std(ddof=1), or 0.0 for one code, bit for bit.

    numpy's steps: the sum over the count, then the root of the summed
    squared deviations over count - 1.  A deviation depends only on its
    outcome, so each outcome's squared deviation is formed once and gathered
    like a weight.
    """
    n = codes.size
    mean = _pairwise_sum(weights, codes) / n
    if n == 1:
        return float(mean), 0.0
    squares = np.square(weights - mean)
    return float(mean), float(np.sqrt(_pairwise_sum(squares, codes) / (n - 1)))


def sample_run(
    F: FMatrix,
    alpha: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    config: McConfig,
) -> McResult:
    """Simulate the protocol and average the outcome weights over accepted trials.

    Raises NoSuccesses when postselection rejects every trial.  After that
    check, weak.conditioned_average gives the analytic value and success
    probability the result carries, and raises its own errors.
    """
    alpha = np.asarray(alpha, dtype=float)
    n_out = F.n_out
    if alpha.shape != (n_out,):
        raise ValueError(f"alpha must have shape ({n_out},), got {alpha.shape}")
    p, q = joint_probabilities(F, psi_i, psi_f, config.g)

    cum = np.cumsum(p)
    cum /= cum[-1]  # non-decreasing, ends at 1, so no uniform reaches the last bound
    # Branch-free binary search over the bounds cum[:-1], padded with +inf to
    # 2**levels - 1 entries: each level doubles a trial's node and adds one
    # comparison, so the cost grows with log2(n_out) passes over a block.
    levels = (n_out - 1).bit_length()
    tree = np.full(2**levels - 1, np.inf)
    tree[: n_out - 1] = cum[:-1]
    tree = _thresholds(tree)
    root = tree[tree.size // 2] if levels else np.uint64(2**53)  # one outcome: every code is 0
    splits = [tree[2**k - 1 :: 2 ** (k + 1)] for k in reversed(range(levels - 1))]
    accept_below = _thresholds(q)

    trials = config.trials
    outcome_bits = np.random.Philox(key=config.seed)
    # A Philox counter step makes four 64-bit words, so the acceptance words,
    # stream values trials ... 2 trials - 1, start trials // 4 steps in and
    # trials % 4 words further.
    accept_bits = np.random.Philox(key=config.seed).advance(trials // 4)
    accept_bits.random_raw(trials % 4)

    block = min(_BLOCK, trials)
    code = np.empty(block, dtype=np.intp)
    tally = np.zeros(2 * n_out, dtype=np.intp)  # [rejected, accepted] per outcome
    kept_codes = np.empty(trials, dtype=np.min_scalar_type(n_out - 1))  # in draw order
    successes = 0
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        code_n = code[:n]
        k = outcome_bits.random_raw(n)
        k >>= 11
        np.greater_equal(k, root, out=code_n)
        for bounds in splits:  # node i splits at bounds[i]
            above = k >= bounds.take(code_n)
            code_n += code_n
            code_n += above
        k = accept_bits.random_raw(n)
        k >>= 11
        accepted = k < accept_below.take(code_n)
        kept = int(np.count_nonzero(accepted))
        code_n.compress(accepted, out=kept_codes[successes : successes + kept])
        successes += kept
        code_n += code_n
        code_n += accepted
        tally += np.bincount(code_n, minlength=2 * n_out)

    if successes == 0:
        raise NoSuccesses(
            f"0 of {trials} trials survived postselection at g={config.g}"
        )
    empirical, spread = _mean_and_spread(alpha, kept_codes[:successes])
    analytic, success = conditioned_average(F, alpha, psi_i, psi_f, config.g)
    return McResult(
        empirical_value=empirical,
        stderr=float(spread / np.sqrt(successes)),
        successes=successes,
        trials=trials,
        per_outcome_counts=tally[1::2].copy(),
        per_outcome_draws=tally[::2] + tally[1::2],
        analytic_value=analytic,
        success_probability=success,
    )


def mc_run(
    povm: ParamPovm, A: np.ndarray, psi_i: np.ndarray, psi_f: np.ndarray, config: McConfig
) -> McResult:
    """sample_run of the family's F with its exact contextual values at config.g.

    Errors come in the order OutOfValidityRange, build_F's, NoExactCv (the
    one-coupling solve is not exact), then sample_run's.
    """
    check_coupling(config.g, povm.g_max)
    F = build_F(povm, A)
    sol = solve_grid(F, [config.g])
    if not sol.exact:
        raise NoExactCv(
            f"no exact contextual values at g = {float(config.g):.9g} (residual {sol.residuals[0]:.3e})"
        )
    return sample_run(F, sol.alpha[0], psi_i, psi_f, config)
