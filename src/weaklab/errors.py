"""Exception types shared across the package.

Every error raised on a violated contract derives from WeakLabError so
callers (and the CLI) can distinguish analytic failures from bugs.
"""

from __future__ import annotations


class WeakLabError(Exception):
    """Base class for all analytic failures raised by this package."""


class InvalidMatrix(WeakLabError):
    """Input matrix violates a structural requirement (e.g. not Hermitian)."""


class InvalidState(WeakLabError):
    """State vector is zero or not normalized."""


class NotPositive(WeakLabError):
    """Matrix expected to be positive semidefinite has a genuinely negative eigenvalue."""


class DimensionError(WeakLabError):
    """Shapes or dimensions of the inputs are inconsistent."""


class NotCommuting(WeakLabError):
    """A family expected to commute pairwise does not."""

    def __init__(self, i: int, j: int, commutator_norm: float):
        self.pair = (i, j)
        self.commutator_norm = commutator_norm
        super().__init__(
            f"operators {i} and {j} do not commute "
            f"(commutator norm {commutator_norm:.3e})"
        )


class OutOfValidityRange(WeakLabError):
    """Coupling strength outside the validated range of the model."""


class NonUniformOrder(WeakLabError):
    """Outcomes disagree on the minimum nonzero coefficient order."""

    def __init__(self, per_outcome_orders):
        self.per_outcome_orders = tuple(per_outcome_orders)
        super().__init__(
            f"minimum nonzero orders differ between outcomes: {list(self.per_outcome_orders)}"
        )


class ConstantOutcome(WeakLabError):
    """An outcome has no coupling dependence at all, so no minimum order exists."""


class NotIsometry(WeakLabError):
    """Measurement operators do not compose to an isometry."""


class NoExactCv(WeakLabError):
    """No exact contextual values exist for the requested observable."""


class OrthogonalPostselection(WeakLabError):
    """Postselection overlap (or success probability) vanishes."""


class NotPositiveSamples(WeakLabError):
    """Log-log fitting needs strictly positive sample values."""


class NotLinear(WeakLabError):
    """Operation requires a matrix family of degree at most one."""


class NoSuccesses(WeakLabError):
    """Monte Carlo run accepted zero trials."""


class GenerationFailed(WeakLabError):
    """Random instance generator exhausted its retry budget."""


class ParseError(WeakLabError):
    """Instance file is not syntactically valid."""


class ValidationError(WeakLabError):
    """Instance file is syntactically valid but violates a semantic invariant.

    Carries a machine-readable ``code`` (e.g. ``"Completeness"``,
    ``"NotHermitian"``) and a ``context`` locating the offending entry.
    """

    def __init__(self, code: str, message: str, context: str | None = None):
        self.code = code
        self.context = context
        where = f" at {context}" if context else ""
        super().__init__(f"[{code}]{where}: {message}")
