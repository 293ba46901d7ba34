"""System-meter dilation of a parameterized measurement.

A measurement with n outcomes embeds into an isometry
U(g) s = sum_j (M_j(g) s) (x) f_j from the system space into
system (x) meter, where {f_j} is the fixed standard meter basis and the
composite index is system-major (flat index i * meter_dim + j).  Reading
out the meter in that basis reproduces the outcome statistics, and
attaching eigenvalues alpha_j(g) to the pointer states gives the meter
expectation sum_j alpha_j(g) P(j).  The operators M_j(g) = E_j(g)^(1/2)
are povm.root_family's (`positive_family`) stacks, which `compose_isometry`
reads and checks on the whole grid at once, one (n, d, d) stack per coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NotIsometry
from .linalg import check_state, dagger
from .povm import check_coupling, default_grid
from .povm import root_family as positive_family  # g -> the (n_out, d, d) root stack

ISOMETRY_TOL = 1e-10
#: meter eigenvalues must stay at least this far apart where sampled
EIGENVALUE_GAP_TOL = 1e-9


@dataclass
class MeterModel:
    """Isometric dilation of a family of measurement operators."""

    system_dim: int
    meter_dim: int
    #: g -> the (meter_dim, system_dim, system_dim) stack of M_j(g), one per coupling of an array g
    roots: Callable[[float | np.ndarray], np.ndarray]
    g_max: float
    meter_eigenvalues: tuple[Callable[[float], float], ...] | None = None


def compose_isometry(
    roots: Callable[[float | np.ndarray], np.ndarray],
    meter_dim: int,
    g_max: float,
    meter_eigenvalues: Sequence[Callable[[float], float]] | None = None,
) -> MeterModel:
    """Assemble the dilation isometry, checking completeness on default_grid.

    roots(grid) is read once, on the whole grid (no probe at g = 0), and must
    be the (20, meter_dim, d, d) stack of the operators M_j(g), one
    (meter_dim, d, d) stack per coupling; DimensionError otherwise.  Raises
    NotIsometry unless sum_j M_j(g)^H M_j(g) = identity within 1e-10 at every
    sampled coupling, and ValueError where two meter eigenvalues come closer
    than EIGENVALUE_GAP_TOL or one is not finite (gap nan); each check runs
    once on the stack of every grid coupling and names the first one that
    fails.
    """
    grid = default_grid(g_max)
    Ms = np.asarray(roots(grid))
    if Ms.ndim != 4 or Ms.shape[:2] != (len(grid), meter_dim) or Ms.shape[2] != Ms.shape[3]:
        raise DimensionError(
            f"the grid's root stack must have shape ({len(grid)}, {meter_dim}, d, d), got shape {Ms.shape}"
        )
    d = Ms.shape[2]
    dev = np.abs((dagger(Ms) @ Ms).sum(axis=1) - np.eye(d)).max(axis=(1, 2))
    bad = np.flatnonzero(~(dev <= ISOMETRY_TOL))  # NaN fails too
    if bad.size:
        k = bad[0]
        raise NotIsometry(
            f"sum_j M_j^H M_j deviates from identity by {dev[k]:.3e} at g={grid[k]:.6g}"
        )

    eigs = tuple(meter_eigenvalues) if meter_eigenvalues is not None else None
    if eigs is not None:
        if len(eigs) != meter_dim:
            raise DimensionError("need one meter eigenvalue function per outcome")
        # coupling by coupling; pseudoinverse_cv's eigenvalues read every coupling from one stacked solve
        vals = np.array([[float(f(g)) for f in eigs] for g in grid.tolist()])
        with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
            gaps = np.abs(vals[:, :, None] - vals[:, None, :])
        gaps[:, range(meter_dim), range(meter_dim)] = np.inf
        low = np.where(np.isfinite(vals).all(axis=1), gaps.min(axis=(1, 2)), np.nan)
        bad = np.flatnonzero(~(low >= EIGENVALUE_GAP_TOL))  # NaN fails too
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"meter eigenvalues collide (gap {low[k]:.3e}) at g={grid[k]:.6g}"
            )

    return MeterModel(
        system_dim=d,
        meter_dim=meter_dim,
        roots=roots,
        g_max=float(g_max),
        meter_eigenvalues=eigs,
    )


def isometry_at(model: MeterModel, g: float) -> np.ndarray:
    """U(g) as a new (system_dim * meter_dim) x system_dim matrix.

    Row i * meter_dim + j is row i of M_j(g): the one root stack read at g,
    its first two axes swapped, copied row by row.
    """
    check_coupling(g, model.g_max)
    d, dm = model.system_dim, model.meter_dim
    Ms = model.roots(g).swapaxes(0, 1)
    return np.array(Ms, dtype=complex, order="C").reshape(d * dm, d)


def outcome_probabilities(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """P(j) = ||M_j(g) s||^2: column j of U(g) s, reshaped system x meter, is M_j(g) s."""
    s = check_state(s)
    if len(s) != model.system_dim:
        raise DimensionError(f"state has dimension {len(s)}, not the system's {model.system_dim}")
    W = (isometry_at(model, g) @ s).reshape(model.system_dim, model.meter_dim)
    return (np.abs(W) ** 2).sum(axis=0)


def meter_expectation(model: MeterModel, s: np.ndarray, g: float) -> float:
    """Expected pointer reading sum_j alpha_j(g) P(j)."""
    if model.meter_eigenvalues is None:
        raise ValueError("model carries no meter eigenvalues")
    p = outcome_probabilities(model, s, g)
    vals = np.array([float(f(g)) for f in model.meter_eigenvalues])
    return float(vals @ p)
