"""System-meter dilation of a parameterized measurement.

A measurement with n outcomes embeds into an isometry
U(g) s = sum_j (M_j(g) s) (x) f_j from the system space into
system (x) meter, where {f_j} is the fixed standard meter basis and the
composite index is system-major (flat index i * meter_dim + j).  Reading
out the meter in that basis reproduces the outcome statistics, and
attaching eigenvalues alpha_j(g) to the pointer states gives the meter
expectation sum_j alpha_j(g) P(j).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NotIsometry, OutOfValidityRange
from .linalg import check_state, projector, psd_sqrt
from .povm import ParamPovm, PolyMatrix, check_coupling, default_grid

ISOMETRY_TOL = 1e-10
#: meter eigenvalues must stay at least this far apart where sampled
EIGENVALUE_GAP_TOL = 1e-9

MatrixFamily = Callable[[float], np.ndarray]


def _family_at(op: MatrixFamily, g: float) -> np.ndarray:
    return np.asarray(op(g), dtype=complex)


def positive_family(povm: ParamPovm) -> list[Callable[[float], np.ndarray]]:
    """Measurement operators g -> E_j(g)^(1/2) as callables.

    The square root of a matrix polynomial is generally not polynomial in g,
    so the minimally disturbing operators enter the dilation as plain
    functions of the coupling.
    """

    def make(e: PolyMatrix) -> Callable[[float], np.ndarray]:
        return lambda g: psd_sqrt(e(g))

    return [make(e) for e in povm.elements]


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
    at every sampled coupling.
    """
    ops = tuple(measurement_ops)
    if len(ops) != meter_dim:
        raise DimensionError(
            f"got {len(ops)} operators for meter dimension {meter_dim}"
        )
    if not (g_max > 0):
        raise OutOfValidityRange(f"g_max must be positive, got {g_max}")
    first = _family_at(ops[0], 0.0)
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise DimensionError(f"measurement operators must be square, got {first.shape}")
    d = first.shape[0]

    grid = default_grid(g_max)
    eye = np.eye(d)
    for g in grid:
        total = np.zeros((d, d), dtype=complex)
        for op in ops:
            M = _family_at(op, g)
            if M.shape != (d, d):
                raise DimensionError("measurement operators must share one shape")
            total += M.conj().T @ M
        dev = float(np.abs(total - eye).max())
        if dev > ISOMETRY_TOL:
            raise NotIsometry(
                f"sum_j M_j^H M_j deviates from identity by {dev:.3e} at g={g:.6g}"
            )

    eigs = tuple(meter_eigenvalues) if meter_eigenvalues is not None else None
    if eigs is not None:
        if len(eigs) != meter_dim:
            raise DimensionError("need one meter eigenvalue function per outcome")
        for g in grid:
            vals = np.array([float(f(g)) for f in eigs])
            gaps = np.abs(vals[:, None] - vals[None, :])
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() < EIGENVALUE_GAP_TOL:
                raise ValueError(
                    f"meter eigenvalues collide (gap {gaps.min():.3e}) at g={g:.6g}"
                )

    return MeterModel(
        system_dim=d,
        meter_dim=meter_dim,
        measurement_ops=ops,
        g_max=float(g_max),
        meter_eigenvalues=eigs,
    )


def isometry_at(model: MeterModel, g: float) -> np.ndarray:
    """U(g) as a (system_dim * meter_dim) x system_dim matrix."""
    check_coupling(g, model.g_max)
    d, dm = model.system_dim, model.meter_dim
    U = np.zeros((d * dm, d), dtype=complex)
    for j, op in enumerate(model.measurement_ops):
        U[j::dm, :] = _family_at(op, g)
    return U


def outcome_probabilities(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """P(j) = ||M_j(g) s||^2, read off the meter components of U(g) s."""
    s = check_state(s)
    w = isometry_at(model, g) @ s
    comps = w.reshape(model.system_dim, model.meter_dim)
    return np.sum(np.abs(comps) ** 2, axis=0)


def meter_expectation(model: MeterModel, s: np.ndarray, g: float) -> float:
    """Expected pointer reading sum_j alpha_j(g) P(j)."""
    if model.meter_eigenvalues is None:
        raise ValueError("model carries no meter eigenvalues")
    p = outcome_probabilities(model, s, g)
    vals = np.array([float(f(g)) for f in model.meter_eigenvalues])
    return float(vals @ p)


def reduced_state(model: MeterModel, s: np.ndarray, g: float) -> np.ndarray:
    """Post-measurement system state sum_j M_j(g) |s><s| M_j(g)^H."""
    s = check_state(s)
    check_coupling(g, model.g_max)
    P = projector(s)
    rho = np.zeros((model.system_dim, model.system_dim), dtype=complex)
    for op in model.measurement_ops:
        M = _family_at(op, g)
        rho += M @ P @ M.conj().T
    return 0.5 * (rho + rho.conj().T)


def weak_coupling_check(model: MeterModel, s: np.ndarray) -> tuple[bool, float]:
    """Is U(0) s a product state?  Returns (is_product, second Schmidt coefficient).

    The Schmidt coefficients are the singular values of U(0) s reshaped as a
    system x meter matrix; a product state has only one nonzero coefficient.
    """
    s = check_state(s)
    w = isometry_at(model, 0.0) @ s
    A = w.reshape(model.system_dim, model.meter_dim)
    svals = np.linalg.svd(A, compute_uv=False)
    second = float(svals[1]) if len(svals) > 1 else 0.0
    return second <= 1e-10, second
