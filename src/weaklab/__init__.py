"""Numerical workbench for contextual-value weak measurement.

Core objects: matrix families polynomial in a coupling strength g
(PolyMatrix), complete positive outcome families built from them
(ParamPovm), their spectral matrices and contextual values (FMatrix),
dilation meter models, conditioned averages and weak limits, and
small-coupling asymptotics of singular values and pseudoinverse solutions.
"""

from .errors import (
    ConstantOutcome,
    DimensionError,
    GenerationFailed,
    InvalidMatrix,
    InvalidState,
    NoExactCv,
    NonUniformOrder,
    NoSuccesses,
    NotCommuting,
    NotIsometry,
    NotLinear,
    NotPositive,
    NotPositiveSamples,
    OrthogonalPostselection,
    OutOfValidityRange,
    ParseError,
    ValidationError,
    WeakLabError,
)
from .linalg import (
    common_eigenbasis,
    partial_trace_meter,
    pinv,
    pinv_and_rank,
    projector,
    psd_sqrt,
    trace_distance,
)
from .povm import (
    MinOrderResult,
    ParamPovm,
    PolyMatrix,
    default_grid,
    evaluate,
    measurement_operators,
    minimum_nonzero_order,
    validate,
)
from .meter import (
    MeterModel,
    compose_isometry,
    isometry_at,
    meter_expectation,
    outcome_probabilities,
    positive_family,
    reduced_state,
    weak_coupling_check,
)
from .contextual import (
    CvSolution,
    FMatrix,
    TruncationReport,
    build_F,
    exact_cv_exists,
    pseudoinverse_cv,
    truncated_cv_check,
    variance_min_cv,
)
from .weak import (
    WeakLimitReport,
    conditioned_average,
    conjecture_sweep,
    conjecture_trial,
    mixed_weak_value,
    traditional_weak_value,
    weak_limit,
)
from .asymptotics import (
    ClaimReport,
    OrderEstimate,
    SvdCurve,
    default_pole_grid,
    leading_order_fit,
    pinv_pole_order,
    proof_claim_check,
    svd_curve,
    truncation_svd_commutator,
)
from .montecarlo import McConfig, McResult, sample_run
from .files import InstanceSpec, load_instance, save_instance
from .registry import REGISTRY, get_instance

__version__ = "0.1.0"
