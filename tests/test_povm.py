from __future__ import annotations

import re

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import povm as pv
from weaklab.errors import DimensionError, OutOfValidityRange
from weaklab.povm import ParamPovm, PolyMatrix
from weaklab.registry import REGISTRY, get_instance

from oracles import ConstantOutcome, NonUniformOrder, minimum_nonzero_order

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


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_polymatrix_stacks_every_degree(degree):
    # a coupling array of shape (n, 1, 1) gives an (n, rows, cols) stack,
    # each slice equal to the scalar call; degree 0 included
    rng = np.random.default_rng(23)
    P = PolyMatrix([rng.standard_normal((2, 3)) for _ in range(degree + 1)])
    g = np.array([0.0, 0.25, 0.5, 1.5])
    stack = P(g[:, None, None])
    assert stack.shape == (4, 2, 3)
    for k, gk in enumerate(g):
        assert np.array_equal(stack[k], P(float(gk)))
    assert P(0.5).shape == (2, 3)


def test_polymatrix_trims_trailing_zeros():
    P = PolyMatrix([I2, Z, np.zeros((2, 2))])
    assert P.max_degree == 1
    assert len(P.coefficients) == 2


def test_polymatrix_coefficients_are_frozen():
    P = PolyMatrix([I2, Z])
    with pytest.raises(ValueError):
        P.coefficients[0][0, 0] = 99.0


@pytest.mark.parametrize(
    "coefficients, message",
    [
        ([], "need at least one coefficient"),
        ([I2, np.eye(3)], "all coefficients must share one shape"),
        ([np.ones(2), np.ones(2)], "coefficients must be matrices, got shape (2,)"),
        ([I2, np.array([[0.0, np.nan], [0.0, 0.0]])], "coefficient contains non-finite entries"),
    ],
)
def test_polymatrix_refuses_malformed_coefficients(coefficients, message):
    with pytest.raises(DimensionError, match=re.escape(message)):
        PolyMatrix(coefficients)


def test_polymatrix_copies_an_array_it_is_given():
    # a complex (degree + 1, rows, cols) array is copied, not frozen in the caller's hands
    C = np.array([I2, Z], dtype=complex)
    P = PolyMatrix(C)
    C[1, 0, 0] = 5.0
    assert C.flags.writeable and P(1.0)[0, 0] == 2.0
    # a transposed view gives the same C-ordered coefficients as its slices would
    T = np.arange(12.0).reshape(2, 3, 2).transpose(0, 2, 1)
    Q = PolyMatrix(T)
    assert Q.coefficients.flags.c_contiguous
    assert Q.coefficients.tobytes() == PolyMatrix(list(T)).coefficients.tobytes()


def test_polymatrix_nonzero_orders_and_keep():
    P = PolyMatrix([I2, np.zeros((2, 2)), Z])
    assert P.truncate(1, mode="eq13").max_degree == 0
    npt.assert_array_equal(P.truncate(1)(0.5), I2)
    # above the top order, eq13 keeps only the constant term and prefix keeps everything
    assert P.truncate(3, mode="eq13").max_degree == 0
    npt.assert_array_equal(P.truncate(3, mode="prefix")(0.5), P(0.5))
    with pytest.raises(ValueError):
        P.truncate(-1)


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
    # outcomes 0 and 2 go negative above g = 1/6: failures come outcome by
    # outcome, each in grid order
    report = pv.validate(scalar_povm([[1 / 3, -2.0], [1 / 3, 4.0], [1 / 3, -2.0]], g_max=0.5))
    expected = [
        f"outcome {j} has eigenvalue {report.min_eigenvalues[j, i]:.3e} at g={g:.6g}"
        for j in range(3)
        for i, g in enumerate(report.grid)
        if report.min_eigenvalues[j, i] < pv.PSD_GRID_TOL
    ]
    assert report.failures == expected
    assert expected[0].startswith("outcome 0") and expected[-1].startswith("outcome 2")


def test_validate_flags_nonhermitian():
    bad = PolyMatrix([I2 / 2, np.array([[0.0, 1.0], [0.0, 0.0]])])
    good = PolyMatrix([I2 / 2, np.array([[0.0, 0.0], [-1.0, 0.0]])])
    report = pv.validate(ParamPovm(elements=(bad, good), g_max=0.5))
    assert not report.passed
    assert report.hermiticity_residual > 0.5


def test_outcomes_evaluate_as_polynomials():
    p = qubit_linear(g_max=0.9)
    E = [e(0.2) for e in p.elements]
    npt.assert_allclose(E[0], np.diag([0.6, 0.4]), atol=1e-14)
    npt.assert_allclose(E[0] + E[1], I2, atol=1e-14)
    npt.assert_allclose(p.elements[0](0.0), I2 / 2)


def test_check_coupling_names_the_first_coupling_out_of_range():
    pv.check_coupling(np.array([0.0, 0.45, 0.5]), 0.5)
    pv.check_coupling(0.0, 0.9)  # the dilation is evaluated at 0
    for g in (1.0, -1.0, -0.1, float("nan")):
        with pytest.raises(OutOfValidityRange):
            pv.check_coupling(g, 0.9)
    with pytest.raises(OutOfValidityRange, match=r"^g=0\.7 outside"):
        pv.check_coupling(np.array([0.1, 0.7, -0.2, np.nan]), 0.5)
    with pytest.raises(OutOfValidityRange, match=r"^g=nan outside"):
        pv.check_coupling(np.array([0.1, np.nan, 0.7]), 0.5)


@pytest.mark.parametrize("g_max", [0.0, -1.0, float("nan"), float("inf"), 5e-324])
def test_g_max_must_be_finite_with_a_positive_grid(g_max):
    # default_grid's lowest coupling g_max * 1e-3 is 0 for g_max = 5e-324
    assert not pv.valid_g_max(g_max)
    with pytest.raises(OutOfValidityRange, match="positive and finite"):
        qubit_linear(g_max=g_max)
    with pytest.raises(OutOfValidityRange, match="positive and finite"):
        pv.default_grid(g_max)
    assert pv.valid_g_max(1e308) and pv.valid_g_max(1e-320)


def test_default_grid():
    grid = pv.default_grid(0.5)
    assert len(grid) == 20
    npt.assert_allclose(grid[-1], 0.5)
    npt.assert_allclose(grid[0], 0.5e-3)
    assert np.all(np.diff(grid) > 0)
    # bit for bit np.geomspace's grid, on a seeded sweep of g_max over 600 decades and
    # on every registry g_max: a numpy whose geomspace rounds differently fails here first
    rng = np.random.default_rng(20)
    sweep = 10.0 ** rng.uniform(-300.0, 300.0, 3000)
    registry_g_max = [get_instance(name).g_max for name in REGISTRY]
    for g_max in [1e-300, 1e300, *sweep.tolist(), *registry_g_max]:
        expected = np.geomspace(g_max * 1e-3, g_max, 20)
        assert pv.default_grid(g_max).tobytes() == expected.tobytes(), g_max


# ---------------------------------------------------------- minimum order


def test_minimum_order_linear():
    res = minimum_nonzero_order(qubit_linear())
    assert res.n == 1
    assert res.per_outcome_orders == (1, 1)


def test_minimum_order_quadratic():
    p = scalar_povm([[0.5, 0.0, 0.25], [0.5, 0.0, -0.25]], g_max=0.5)
    assert minimum_nonzero_order(p).n == 2


def test_minimum_order_constant_outcome():
    p = scalar_povm([[0.5], [0.5]], g_max=0.9)
    with pytest.raises(ConstantOutcome):
        minimum_nonzero_order(p)


def test_minimum_order_nonuniform_carries_payload():
    p = scalar_povm([[0.3, 0.1], [0.3, -0.1, 0.05], [0.4, 0.0, -0.05]], g_max=0.5)
    with pytest.raises(NonUniformOrder) as err:
        minimum_nonzero_order(p)
    assert err.value.per_outcome_orders == (1, 1, 2)


def test_measurement_operators_square_to_elements():
    p = qubit_linear()
    for g in [0.0, 0.3, 0.85]:
        ops = pv.measurement_operators(p, g)
        for M, e in zip(ops, p.elements):
            E = e(g)
            npt.assert_allclose(M @ M, E, atol=1e-12)
            npt.assert_allclose(M, M.conj().T, atol=1e-13)
