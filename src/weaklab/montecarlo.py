"""Monte Carlo simulation of the postselected measurement protocol.

Each trial draws an outcome j with probability <psi_i|E_j(g) psi_i>, forms
the post-measurement state M_j psi_i / ||M_j psi_i||, and accepts with the
postselection probability |<psi_f|state>|^2.  The empirical conditioned
average is the mean outcome weight over accepted trials.

Sampling uses a counter-based generator (Philox) keyed by the config seed,
so reruns are bit-identical.  The first `trials` uniforms pick the outcomes:
a trial's outcome is the number of cumulative probability bounds at or below
its uniform.  The next `trials` uniforms decide acceptance.  The mean is
numpy's pairwise sum over the accepted outcome weights in draw order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSuccesses
from .linalg import check_state
from .povm import ParamPovm, evaluate, measurement_operators


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


def joint_probabilities(
    povm: ParamPovm, psi_i: np.ndarray, psi_f: np.ndarray, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic outcome probabilities p_j and acceptance probabilities q_j."""
    psi_i = check_state(psi_i)
    psi_f = check_state(psi_f)
    p = np.array([float(np.vdot(psi_i, E @ psi_i).real) for E in evaluate(povm, g)])
    p = np.clip(p, 0.0, None)
    q = np.zeros_like(p)
    for j, M in enumerate(measurement_operators(povm, g)):
        if p[j] > 0:
            post = M @ psi_i
            post = post / np.linalg.norm(post)
            q[j] = abs(np.vdot(psi_f, post)) ** 2
    return p, q


def sample_run(
    povm: ParamPovm,
    alpha: np.ndarray,
    psi_i: np.ndarray,
    psi_f: np.ndarray,
    config: McConfig,
) -> McResult:
    """Simulate the protocol and average the outcome weights over accepted trials.

    Raises NoSuccesses when postselection rejects every trial.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (povm.n_out,):
        raise ValueError(f"alpha must have shape ({povm.n_out},), got {alpha.shape}")
    p, q = joint_probabilities(povm, psi_i, psi_f, config.g)

    cum = np.cumsum(p)
    cum /= cum[-1]  # non-decreasing, ends at 1, so no uniform reaches the last bound
    # Branch-free binary search over the bounds cum[:-1], padded with +inf to
    # 2**levels - 1 entries: each level doubles a trial's node and adds one
    # comparison, so the cost grows with log2(n_out) passes over the trials.
    levels = (povm.n_out - 1).bit_length()
    tree = np.full(2**levels - 1, np.inf)
    tree[: povm.n_out - 1] = cum[:-1]
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.random(config.trials)
    drawn = np.zeros(config.trials, dtype=np.intp)
    for level in range(levels):
        step = 2 ** (levels - 1 - level)
        bounds = tree[step - 1 :: 2 * step]  # node k splits at bounds[k]
        above = u >= (bounds[drawn] if level else bounds[0])
        drawn += drawn
        drawn += above
    del u  # freed before the acceptance uniforms are drawn, which lowers the peak
    kept = np.compress(rng.random(config.trials) < q[drawn], drawn)
    draws = np.bincount(drawn, minlength=povm.n_out)
    del drawn

    successes = kept.size
    if successes == 0:
        raise NoSuccesses(
            f"0 of {config.trials} trials survived postselection at g={config.g}"
        )
    values = alpha[kept]
    empirical = float(values.mean())
    spread = float(values.std(ddof=1)) if successes > 1 else 0.0
    return McResult(
        empirical_value=empirical,
        stderr=spread / np.sqrt(successes),
        successes=successes,
        trials=config.trials,
        per_outcome_counts=np.bincount(kept, minlength=povm.n_out),
        per_outcome_draws=draws,
    )
