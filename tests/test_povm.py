from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import povm as pv
from weaklab.errors import (
    ConstantOutcome,
    DimensionError,
    NonUniformOrder,
    OutOfValidityRange,
)
from weaklab.povm import ParamPovm, PolyMatrix

I2 = np.eye(2)
Z = np.diag([1.0, -1.0])


def qubit_linear(g_max=0.9):
    up = PolyMatrix([I2 / 2, Z / 2])
    dn = PolyMatrix([I2 / 2, -Z / 2])
    return ParamPovm(elements=(up, dn), g_max=g_max)


def scalar_povm(coeff_lists, g_max=0.9):
    """1-dimensional outcome family from plain coefficient lists."""
    elements = tuple(
        PolyMatrix([np.array([[c]], dtype=float) for c in coeffs])
        for coeffs in coeff_lists
    )
    return ParamPovm(elements=elements, g_max=g_max)


# ------------------------------------------------------------- PolyMatrix


def test_polymatrix_matches_direct_evaluation():
    rng = np.random.default_rng(19)
    coeffs = [rng.standard_normal((3, 3)) for _ in range(4)]
    P = PolyMatrix(coeffs)
    for g in [-0.5, 0.0, 0.3, 1.7]:
        direct = sum(c * g**k for k, c in enumerate(coeffs))
        npt.assert_allclose(P(g), direct, atol=1e-13)


def test_polymatrix_trims_trailing_zeros():
    P = PolyMatrix([I2, Z, np.zeros((2, 2))])
    assert P.max_degree == 1
    npt.assert_array_equal(P.coefficient(5), np.zeros((2, 2)))


def test_polymatrix_coefficients_are_frozen():
    P = PolyMatrix([I2, Z])
    with pytest.raises(ValueError):
        P.coefficients[0][0, 0] = 99.0


def test_polymatrix_nonzero_orders_and_keep():
    P = PolyMatrix([I2, np.zeros((2, 2)), Z])
    assert P.nonzero_orders() == [0, 2]
    assert P.truncate(1, mode="eq13").max_degree == 0
    npt.assert_array_equal(P.truncate(1)(0.5), I2)
    # above the top order, eq13 keeps only the constant term and prefix keeps everything
    assert P.truncate(3, mode="eq13").max_degree == 0
    npt.assert_array_equal(P.truncate(3, mode="prefix")(0.5), P(0.5))
    with pytest.raises(ValueError):
        P.truncate(-1)


def test_polymatrix_dim_requires_square():
    P = PolyMatrix([np.ones((2, 3))])
    assert P.shape == (2, 3)
    with pytest.raises(DimensionError):
        P.dim


def test_parampovm_counts():
    p = qubit_linear()
    assert p.dim == 2
    assert p.n_out == 2
    assert p.max_degree == 1


# ------------------------------------------------------------- validation


def test_validate_qubit_linear_passes():
    report = pv.validate(qubit_linear())
    assert report.passed
    assert report.hermiticity_residual < 1e-14
    npt.assert_allclose(report.completeness_residuals, 0.0, atol=1e-14)
    assert report.min_eigenvalues.min() > 0.0


def test_validate_flags_broken_completeness():
    up = PolyMatrix([I2 / 2, Z / 2])
    dn = PolyMatrix([I2 / 2.1, -Z / 2])
    report = pv.validate(ParamPovm(elements=(up, dn), g_max=0.5))
    assert not report.passed
    assert any("complete" in msg.lower() for msg in report.failures)


def test_validate_flags_negative_eigenvalue():
    # E_1 dips below zero well inside the validity range
    p = scalar_povm([[0.1, -1.0], [0.9, 1.0]], g_max=0.5)
    report = pv.validate(p)
    assert not report.passed
    assert any("positive" in msg.lower() or "eigen" in msg.lower() for msg in report.failures)


def test_validate_flags_nonhermitian():
    bad = PolyMatrix([I2 / 2, np.array([[0.0, 1.0], [0.0, 0.0]])])
    good = PolyMatrix([I2 / 2, np.array([[0.0, 0.0], [-1.0, 0.0]])])
    report = pv.validate(ParamPovm(elements=(bad, good), g_max=0.5))
    assert not report.passed
    assert report.hermiticity_residual > 0.5


def test_evaluate_and_range():
    p = qubit_linear(g_max=0.9)
    E = pv.evaluate(p, 0.2)
    npt.assert_allclose(E[0], np.diag([0.6, 0.4]), atol=1e-14)
    npt.assert_allclose(E[0] + E[1], I2, atol=1e-14)
    for g in (1.0, -1.0, float("nan")):
        with pytest.raises(OutOfValidityRange):
            pv.evaluate(p, g)


def test_default_grid():
    grid = pv.default_grid(0.5)
    assert len(grid) == 20
    npt.assert_allclose(grid[-1], 0.5)
    npt.assert_allclose(grid[0], 0.5e-3)
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------- minimum order


def test_minimum_order_linear():
    res = pv.minimum_nonzero_order(qubit_linear())
    assert res.n == 1
    assert res.per_outcome_orders == (1, 1)


def test_minimum_order_quadratic():
    p = scalar_povm([[0.5, 0.0, 0.25], [0.5, 0.0, -0.25]], g_max=0.5)
    assert pv.minimum_nonzero_order(p).n == 2


def test_minimum_order_constant_outcome():
    p = scalar_povm([[0.5], [0.5]], g_max=0.9)
    with pytest.raises(ConstantOutcome):
        pv.minimum_nonzero_order(p)


def test_minimum_order_nonuniform_carries_payload():
    p = scalar_povm([[0.3, 0.1], [0.3, -0.1, 0.05], [0.4, 0.0, -0.05]], g_max=0.5)
    with pytest.raises(NonUniformOrder) as err:
        pv.minimum_nonzero_order(p)
    assert err.value.per_outcome_orders == (1, 1, 2)


def test_measurement_operators_square_to_elements():
    p = qubit_linear()
    for g in [0.0, 0.3, 0.85]:
        ops = pv.measurement_operators(p, g)
        for M, E in zip(ops, pv.evaluate(p, g)):
            npt.assert_allclose(M @ M, E, atol=1e-12)
            npt.assert_allclose(M, M.conj().T, atol=1e-13)
