"""System-meter dilation of a parameterized measurement.

A measurement with n outcomes embeds into an isometry
U(g) s = sum_j (M_j(g) s) (x) f_j from the system space into
system (x) meter, where {f_j} is the fixed standard meter basis and the
composite index is system-major (flat index i * meter_dim + j).  Reading
out the meter in that basis reproduces the outcome statistics, and
attaching eigenvalues alpha_j(g) to the pointer states gives the meter
expectation sum_j alpha_j(g) P(j).  The operators M_j(g) = E_j(g)^(1/2)
are povm.root_family's, read one outcome at a time (`positive_family`), and
`compose_isometry` checks them on one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NotIsometry
from .linalg import check_state, dagger
from .povm import ParamPovm, check_coupling, default_grid, root_family

ISOMETRY_TOL = 1e-10
#: meter eigenvalues must stay at least this far apart where sampled
EIGENVALUE_GAP_TOL = 1e-9

MatrixFamily = Callable[[float], np.ndarray]


def positive_family(povm: ParamPovm) -> list[MatrixFamily]:
    """Measurement operators g -> E_j(g)^(1/2) as callables: the square root of a
    matrix polynomial is generally not polynomial in g.  Each reads its outcome
    off povm.root_family's stack, unchecked: compose_isometry and isometry_at
    check the coupling range."""
    roots = root_family(povm)
    return [lambda g, j=j: roots(g)[j] for j in range(povm.n_out)]


@dataclass
class MeterModel:
    """Isometric dilation of a family of measurement operators."""

    system_dim: int
    meter_dim: int
    measurement_ops: tuple[MatrixFamily, ...]
    g_max: float
    meter_eigenvalues: tuple[Callable[[float], float], ...] | None = None


def compose_isometry(
    measurement_ops: Sequence[MatrixFamily],
    meter_dim: int,
    g_max: float,
    meter_eigenvalues: Sequence[Callable[[float], float]] | None = None,
) -> MeterModel:
    """Assemble the dilation isometry, checking completeness on default_grid.

    Raises NotIsometry unless sum_j M_j(g)^H M_j(g) = identity within 1e-10
    at every sampled coupling, and ValueError where two meter eigenvalues
    come closer than EIGENVALUE_GAP_TOL or one is not finite (gap nan); each
    check runs once on the stack of every grid coupling and names the first
    one that fails.  The operators are evaluated only on the grid, which is
    where their shape is read (off the first evaluation): there is no probe
    at g = 0, so positive_family's operators form one root stack per grid
    coupling, 20 in all, and a read-out at one more coupling makes 21.
    """
    ops = tuple(measurement_ops)
    if len(ops) != meter_dim:
        raise DimensionError(
            f"got {len(ops)} operators for meter dimension {meter_dim}"
        )
    grid = default_grid(g_max)
    Ms = [op(g) for g in grid for op in ops]
    first = np.asarray(Ms[0])
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise DimensionError(f"measurement operators must be square, got {first.shape}")
    d = first.shape[0]
    try:
        Ms = np.array(Ms, dtype=complex).reshape(len(grid), meter_dim, d, d)
    except ValueError:  # a ragged list, or one of another shape
        raise DimensionError("measurement operators must share one shape") from None
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
        # coupling by coupling, so a memoized solve serves every outcome at once
        vals = np.array([[float(f(g)) for f in eigs] for g in grid])
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
        measurement_ops=ops,
        g_max=float(g_max),
        meter_eigenvalues=eigs,
    )


def isometry_at(model: MeterModel, g: float) -> np.ndarray:
    """U(g) as a (system_dim * meter_dim) x system_dim matrix.

    Row i * meter_dim + j is row i of M_j(g): the (meter_dim, d, d) stack
    of the operators, its first two axes swapped, read row by row.
    """
    check_coupling(g, model.g_max)
    d, dm = model.system_dim, model.meter_dim
    Ms = np.array([op(g) for op in model.measurement_ops], dtype=complex)
    return Ms.swapaxes(0, 1).reshape(d * dm, d)


def outcome_probabilities(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """P(j) = ||M_j(g) s||^2: column j of U(g) s, reshaped system x meter, is M_j(g) s."""
    s = check_state(s)
    W = (isometry_at(model, g) @ s).reshape(model.system_dim, model.meter_dim)
    return np.sum(np.abs(W) ** 2, axis=0)


def meter_expectation(model: MeterModel, s: np.ndarray, g: float) -> float:
    """Expected pointer reading sum_j alpha_j(g) P(j)."""
    if model.meter_eigenvalues is None:
        raise ValueError("model carries no meter eigenvalues")
    p = outcome_probabilities(model, s, g)
    vals = np.array([float(f(g)) for f in model.meter_eigenvalues])
    return float(vals @ p)
