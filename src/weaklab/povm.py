"""Outcome families that depend polynomially on a coupling strength g.

A measurement here is a finite set of Hermitian matrix polynomials
E_j(g) = sum_k C_jk g^k that is complete coefficient-wise (the C_j0 sum to
the identity and every higher order sums to zero) and positive semidefinite
on a validated range (0, g_max].

A commuting family is E_j(g) = B diag(lambda_j(g)) B^H (`spectral_family`,
which contextual.build_F reads F off).  `root_family` forms the minimally
disturbing operators M_j(g) = B diag(sqrt lambda_j(g)) B^H for the meter,
with linalg.psd_sqrt per outcome only for a family that does not commute;
every other analysis reads the family through F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, NotCommuting, OutOfValidityRange
from .linalg import HERMITIAN_TOL, clamp_psd, common_eigenbasis, dagger, psd_sqrt

#: coefficient matrices with no entry above this are treated as zero
COEFF_ZERO_TOL = 1e-12
COMPLETENESS_TOL = 1e-12
#: minimum eigenvalue allowed on the positivity grid
PSD_GRID_TOL = -1e-10


class PolyMatrix:
    """Matrix-valued polynomial, stored by coefficient order.

    coefficients is one read-only (degree + 1, rows, cols) complex array:
    coefficients[k] multiplies g**k.  Trailing all-zero coefficients are
    trimmed on construction; evaluation uses Horner's scheme.
    """

    def __init__(self, coefficients):
        try:  # always a copy, so a caller's array stays its own and writable
            C = np.array(coefficients, dtype=complex, order="C")
        except ValueError:
            raise DimensionError("all coefficients must share one shape") from None
        if C.ndim == 0 or len(C) == 0:
            raise DimensionError("need at least one coefficient")
        if C.ndim != 3:
            raise DimensionError(f"coefficients must be matrices, got shape {C.shape[1:]}")
        if not np.isfinite(C).all():
            raise DimensionError("coefficient contains non-finite entries")
        n = len(C)
        while n > 1 and np.abs(C[n - 1]).max() <= COEFF_ZERO_TOL:
            n -= 1
        self.coefficients = C[:n]
        self.coefficients.setflags(write=False)
        self.shape = C.shape[1:]

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, g: float | np.ndarray) -> np.ndarray:
        """Value at coupling g; an array g of shape (n, 1, 1) gives n stacked values (see _horner)."""
        return _horner(self.coefficients, g)

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


def _horner(C: np.ndarray, x: float | np.ndarray) -> np.ndarray:
    """sum_k C[k] x**k by Horner's scheme, for coefficients C (degree + 1, ...) of any dtype
    broadcast against x.

    Every degree broadcasts, degree 0 included: its one coefficient is
    repeated, as a new array, to the shape Horner's scheme would give.
    """
    if len(C) == 1:
        return np.array(np.broadcast_to(C[0], np.broadcast_shapes(np.shape(x), C.shape[1:])))
    acc = C[-1]  # the first step below makes a new array
    for k in range(len(C) - 2, -1, -1):  # indexing: iterating a reversed view is slower
        acc = acc * x + C[k]
    return acc


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
        if not valid_g_max(self.g_max):
            raise OutOfValidityRange(f"g_max must be positive and finite, got {self.g_max}")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_out(self) -> int:
        return len(self.elements)

    @property
    def max_degree(self) -> int:
        return max(e.max_degree for e in self.elements)

    @property
    def coefficients(self) -> np.ndarray:
        """C[j, k] = coefficient k of outcome j, zero-padded: (n_out, max_degree + 1, d, d)."""
        C = np.zeros((self.n_out, self.max_degree + 1, self.dim, self.dim), dtype=complex)
        for j, e in enumerate(self.elements):
            C[j, : e.max_degree + 1] = e.coefficients
        return C


def valid_g_max(g_max: float) -> bool:
    """The g_max rule: finite, with default_grid's lowest coupling g_max * 1e-3 positive."""
    return bool(np.isfinite(g_max) and g_max * 1e-3 > 0)


#: default_grid's step indices 0 ... 19
_GRID_STEPS = np.arange(20.0)
_GRID_STEPS.setflags(write=False)


def default_grid(g_max: float) -> np.ndarray:
    """Twenty logarithmically spaced positivity-check couplings in (0, g_max].

    Equal bit for bit to np.geomspace(g_max * 1e-3, g_max, 20): these are
    its steps for a positive finite range (log10 of both ends, a linspace of
    the logs with step (log hi - log lo) / 19, which is never 0 here, powers
    of 10, both ends set exactly), without its generic array handling.
    """
    if not valid_g_max(g_max):
        raise OutOfValidityRange(f"g_max must be positive and finite, got {g_max}")
    lo = g_max * 1e-3
    log_lo = np.log10(lo)
    log_hi = np.log10(g_max)
    y = _GRID_STEPS * ((log_hi - log_lo) / 19)
    y += log_lo
    grid = 10.0**y
    grid[0] = lo
    grid[-1] = g_max
    return grid


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
    """Check Hermiticity, coefficient-wise completeness and positivity on default_grid.

    Positivity takes every finite outcome matrix on the grid in one stacked
    eigvalsh, which solves each matrix on its own; a non-finite one gets a
    NaN minimum.  Failures, NaN minima included, are listed in (outcome,
    coupling) order.
    """
    grid = default_grid(povm.g_max)

    C = povm.coefficients
    with np.errstate(over="ignore"):  # an overflowing residual is inf, and fails below
        herm = np.abs(C - dagger(C)).max(axis=(-2, -1))  # (n_out, degree + 1)
        total = sum(C)  # outcome by outcome, in order: C.sum(axis=0) may add them pairwise
        total[0] -= np.eye(povm.dim)
        comp = np.abs(total).max(axis=(-2, -1))
    failures = []  # each list is formed only when its check fails
    if (herm > HERMITIAN_TOL).any():
        failures += [f"coefficient {k} of outcome {j} is not Hermitian (residual {herm[j, k]:.3e})"
                     for j, k in np.argwhere(herm > HERMITIAN_TOL)]
    if (comp > COMPLETENESS_TOL).any():
        failures += [f"completeness fails at order {k} (residual {comp[k]:.3e})"
                     for k in np.flatnonzero(comp > COMPLETENESS_TOL)]

    # a coupling range that overflows F(g) gives NaN minima, which fail below
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.stack([e(grid[:, None, None]) for e in povm.elements])  # (n_out, n_g, d, d)
        H = 0.5 * (E + E.conj().swapaxes(-1, -2))
    if np.isfinite(H).all():  # the usual case: no masked copy of the stack
        mins = np.linalg.eigvalsh(H)[..., 0]
    else:
        finite = np.isfinite(H).all(axis=(-2, -1))
        mins = np.full(finite.shape, np.nan)
        mins[finite] = np.linalg.eigvalsh(H[finite])[..., 0]
    if not (mins >= PSD_GRID_TOL).all():
        failures += [f"outcome {j} has eigenvalue {mins[j, i]:.3e} at g={grid[i]:.6g}"
                     for j, i in np.argwhere(~(mins >= PSD_GRID_TOL))]

    return ValidationReport(
        grid=grid,
        min_eigenvalues=mins,
        completeness_residuals=comp,
        hermiticity_residual=float(herm.max()),
        failures=failures,
    )


def check_coupling(g: float | np.ndarray, g_max: float) -> None:
    """Raise OutOfValidityRange unless 0 <= g <= g_max; NaN fails too.

    g may be one coupling or an array of them, all against the one bound
    g_max; the error names the first coupling out of range, in C order.
    g = 0 is allowed: the dilation is evaluated there.
    """
    g = np.asarray(g, dtype=float)
    outside = ~((g >= 0) & (g <= g_max * (1 + 1e-12)))
    if outside.any():
        raise OutOfValidityRange(f"g={g[outside][0]} outside validated range (0, {g_max}]")


def spectral_family(povm: ParamPovm, *lead: np.ndarray) -> tuple[np.ndarray, PolyMatrix]:
    """(basis, poly): the common eigenbasis of lead and every nonzero coefficient,
    and E_j(g) = basis diag(poly(g)[:, j]) basis^H read off in it.

    Basis order: descending eigenvalues of the lead operators, ties broken
    by the coefficients in (outcome, order) sequence.  Raises NotCommuting,
    naming the pair "observable" (a lead operator) or "outcome j, order k".
    """
    C = povm.coefficients  # (n_out, degree + 1, d, d)
    nonzero = np.abs(C).max(axis=(-2, -1)) > COEFF_ZERO_TOL
    try:
        basis = common_eigenbasis([*lead, *C[nonzero]])
    except NotCommuting as err:
        names = ["observable"] * len(lead) + [f"outcome {j}, order {k}" for j, k in np.argwhere(nonzero)]
        raise NotCommuting(*err.pair, err.commutator_norm, tuple(names[i] for i in err.pair)) from None
    spectra = (dagger(basis) @ C @ basis).diagonal(axis1=-2, axis2=-1).real
    return basis, PolyMatrix(spectra.transpose(1, 2, 0))  # (degree + 1, d, n_out)


def root_family(povm: ParamPovm) -> Callable[[float | np.ndarray], np.ndarray]:
    """g -> the read-only stack of M_j(g) = E_j(g)^(1/2): (n_out, d, d) at one
    coupling, (n_g, n_out, d, d) for a 1-D array of n_g, each bit for bit its own read.

    A commuting family takes B diag(sqrt lambda_j(g)) B^H, its spectra through
    linalg.clamp_psd (psd_sqrt's rule and message); one that raises
    NotCommuting takes psd_sqrt(E_j(g)) per coupling and outcome.  A refused
    outcome raises for the whole read, naming the first refused coupling and
    its first refused outcome; no range is checked.

    The spectra are PolyMatrix's Horner pass (_horner), broadcast over the
    couplings, on a real (degree + 1, n_out, d) copy of spectral_family's
    coefficients, whose imaginary parts are zero: for finite values that is
    the real part of the complex evaluation bit for bit, without the complex
    arithmetic or a transpose.
    """
    try:
        basis, spectra = spectral_family(povm)
        basis_h = dagger(basis)
        S = spectra.coefficients.real.transpose(0, 2, 1).copy()  # (degree + 1, n_out, d)
    except NotCommuting:
        basis = None

    def roots(g: float | np.ndarray) -> np.ndarray:
        x = np.asarray(g, dtype=float)[..., None, None]  # the couplings, against (n_out, d)
        if basis is None:
            R = np.array([[psd_sqrt(e(y)) for e in povm.elements] for y in x.reshape(-1)])
            R = R.reshape(*x.shape[:-2], povm.n_out, povm.dim, povm.dim)
        else:
            R = (basis * np.sqrt(clamp_psd(_horner(S, x)))[..., None, :]) @ basis_h
        R.setflags(write=False)
        return R

    return roots


def measurement_operators(povm: ParamPovm, g: float) -> np.ndarray:
    """root_family's stack of M_j = E_j(g)^(1/2) (the minimally disturbing choice), for 0 <= g <= g_max."""
    check_coupling(g, povm.g_max)
    return root_family(povm)(g)
