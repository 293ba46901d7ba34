"""Independent references the tests check the library against.

No command reaches these, so they live with the tests: the partial trace
over the meter, the trace distance, the dilation's reduced state and
weak-coupling check (both built on the public `meter.isometry_at`), and the
traditional weak value of a pure pre- and postselection.
"""

from __future__ import annotations

import numpy as np

from weaklab.errors import DimensionError, OrthogonalPostselection
from weaklab.linalg import check_hermitian, check_state, dagger
from weaklab.meter import MeterModel, isometry_at
from weaklab.weak import OVERLAP_TOL


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
