"""Outcome families that depend polynomially on a coupling strength g.

A measurement here is a finite set of Hermitian matrix polynomials
E_j(g) = sum_k C_jk g^k that is complete coefficient-wise (the C_j0 sum to
the identity and every higher order sums to zero) and positive semidefinite
on a validated range (0, g_max].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstantOutcome, DimensionError, NonUniformOrder, OutOfValidityRange
from .linalg import psd_sqrt

#: coefficient matrices with no entry above this are treated as zero
COEFF_ZERO_TOL = 1e-12
COMPLETENESS_TOL = 1e-12
HERMITIAN_TOL = 1e-12
#: minimum eigenvalue allowed on the positivity grid
PSD_GRID_TOL = -1e-10


def _freeze(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=complex)
    out.setflags(write=False)
    return out


class PolyMatrix:
    """Matrix-valued polynomial, stored by coefficient order.

    coefficients[k] multiplies g**k.  Trailing all-zero coefficients are
    trimmed on construction; evaluation uses Horner's scheme.
    """

    def __init__(self, coefficients):
        coeffs = [np.asarray(c, dtype=complex) for c in coefficients]
        if not coeffs:
            raise DimensionError("need at least one coefficient")
        shape = coeffs[0].shape
        if len(shape) != 2:
            raise DimensionError(f"coefficients must be matrices, got shape {shape}")
        for c in coeffs:
            if c.shape != shape:
                raise DimensionError("all coefficients must share one shape")
            if not np.all(np.isfinite(c)):
                raise DimensionError("coefficient contains non-finite entries")
        while len(coeffs) > 1 and np.abs(coeffs[-1]).max() <= COEFF_ZERO_TOL:
            coeffs.pop()
        self.coefficients: tuple[np.ndarray, ...] = tuple(_freeze(c) for c in coeffs)
        self.shape = shape

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def dim(self) -> int:
        if self.shape[0] != self.shape[1]:
            raise DimensionError(f"matrix family is not square: {self.shape}")
        return self.shape[0]

    def coefficient(self, k: int) -> np.ndarray:
        if 0 <= k <= self.max_degree:
            return self.coefficients[k]
        return np.zeros(self.shape, dtype=complex)

    def __call__(self, g: float) -> np.ndarray:
        acc = np.array(self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            acc = acc * g + c
        return acc

    def nonzero_orders(self) -> list[int]:
        return [
            k for k, c in enumerate(self.coefficients) if np.abs(c).max() > COEFF_ZERO_TOL
        ]

    def truncate(self, n: int, mode: str = "prefix") -> "PolyMatrix":
        """Low-order part of the family, all other coefficients zeroed.

        mode "prefix" keeps every order through n; mode "eq13" keeps exactly
        the orders {0, n}, dropping the intermediate ones.
        """
        if n < 0:
            raise ValueError(f"truncation order must be >= 0, got {n}")
        if mode == "prefix":
            keep = range(n + 1)
        elif mode == "eq13":
            keep = (0, n)
        else:
            raise ValueError(f"unknown truncation mode {mode!r}")
        return PolyMatrix(
            [c if k in keep else np.zeros_like(c) for k, c in enumerate(self.coefficients)]
        )

    def __repr__(self) -> str:
        return f"PolyMatrix(shape={self.shape}, max_degree={self.max_degree})"


@dataclass(frozen=True)
class ParamPovm:
    """Complete outcome family parameterized by coupling strength."""

    elements: tuple[PolyMatrix, ...]
    g_max: float

    def __post_init__(self):
        if not self.elements:
            raise DimensionError("a measurement needs at least one outcome")
        object.__setattr__(self, "elements", tuple(self.elements))
        d = self.elements[0].shape
        if d[0] != d[1]:
            raise DimensionError(f"outcome matrices must be square, got {d}")
        for e in self.elements:
            if e.shape != d:
                raise DimensionError("outcomes must share one dimension")
        if not (self.g_max > 0):
            raise OutOfValidityRange(f"g_max must be positive, got {self.g_max}")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_out(self) -> int:
        return len(self.elements)

    @property
    def max_degree(self) -> int:
        return max(e.max_degree for e in self.elements)


def default_grid(g_max: float) -> np.ndarray:
    """Twenty logarithmically spaced positivity-check couplings in (0, g_max]."""
    if not (g_max > 0):
        raise OutOfValidityRange(f"g_max must be positive, got {g_max}")
    return np.geomspace(g_max * 1e-3, g_max, 20)


@dataclass
class ValidationReport:
    """Outcome of checking one measurement family against its invariants."""

    grid: np.ndarray
    min_eigenvalues: np.ndarray  # (n_out, n_grid)
    completeness_residuals: np.ndarray  # per coefficient order
    hermiticity_residual: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def validate(povm: ParamPovm) -> ValidationReport:
    """Check Hermiticity, coefficient-wise completeness and positivity on default_grid."""
    grid = default_grid(povm.g_max)

    failures: list[str] = []
    herm = 0.0
    for j, e in enumerate(povm.elements):
        for k, c in enumerate(e.coefficients):
            r = float(np.abs(c - c.conj().T).max())
            herm = max(herm, r)
            if r > HERMITIAN_TOL:
                failures.append(
                    f"coefficient {k} of outcome {j} is not Hermitian (residual {r:.3e})"
                )

    degree = povm.max_degree
    comp = np.zeros(degree + 1)
    eye = np.eye(povm.dim)
    for k in range(degree + 1):
        total = sum(e.coefficient(k) for e in povm.elements)
        target = eye if k == 0 else 0.0
        comp[k] = float(np.abs(total - target).max())
        if comp[k] > COMPLETENESS_TOL:
            failures.append(
                f"completeness fails at order {k} (residual {comp[k]:.3e})"
            )

    mins = np.empty((povm.n_out, len(grid)))
    for j, e in enumerate(povm.elements):
        for i, g in enumerate(grid):
            Eg = e(g)
            Eg = 0.5 * (Eg + Eg.conj().T)
            mins[j, i] = float(np.linalg.eigvalsh(Eg)[0])
            if mins[j, i] < PSD_GRID_TOL:
                failures.append(
                    f"outcome {j} has eigenvalue {mins[j, i]:.3e} at g={g:.6g}"
                )

    return ValidationReport(
        grid=grid,
        min_eigenvalues=mins,
        completeness_residuals=comp,
        hermiticity_residual=herm,
        failures=failures,
    )


def check_coupling(g: float, g_max: float) -> None:
    """Raise OutOfValidityRange unless |g| <= g_max; NaN fails too."""
    if not abs(g) <= g_max * (1 + 1e-12):
        raise OutOfValidityRange(f"g={g} outside validated range (0, {g_max}]")


def evaluate(povm: ParamPovm, g: float) -> list[np.ndarray]:
    """Outcome matrices at coupling g, for |g| <= g_max."""
    check_coupling(g, povm.g_max)
    return [e(g) for e in povm.elements]


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
    orders = []
    constant = []
    for j, e in enumerate(povm.elements):
        ks = [k for k in e.nonzero_orders() if k >= 1]
        if not ks:
            constant.append(j)
            orders.append(0)
        else:
            orders.append(min(ks))
    if constant:
        raise ConstantOutcome(
            f"outcomes {constant} have no g-dependence; minimum order undefined"
        )
    if len(set(orders)) != 1:
        raise NonUniformOrder(tuple(orders))
    return MinOrderResult(n=orders[0], per_outcome_orders=tuple(orders))


def measurement_operators(povm: ParamPovm, g: float) -> list[np.ndarray]:
    """Positive square roots M_j = E_j(g)^(1/2) (the minimally disturbing choice)."""
    return [psd_sqrt(E) for E in evaluate(povm, g)]
