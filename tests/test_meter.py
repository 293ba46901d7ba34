from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import meter as mt
from weaklab import povm as pv
from weaklab.errors import NotIsometry
from weaklab.linalg import partial_trace_meter, projector, trace_distance
from weaklab.povm import ParamPovm, PolyMatrix

I2 = np.eye(2)
Z = np.diag([1.0, -1.0])


def qubit_linear():
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.9,
    )


def plus_state():
    return np.array([1.0, 1.0]) / np.sqrt(2)


def build_model(povm, eigenvalues=None):
    ops = mt.positive_family(povm)
    return mt.compose_isometry(ops, povm.n_out, povm.g_max, meter_eigenvalues=eigenvalues)


def test_probabilities_match_povm_expectations():
    povm = qubit_linear()
    model = build_model(povm)
    rng = np.random.default_rng(29)
    for _ in range(50):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s /= np.linalg.norm(s)
        g = float(rng.uniform(0, 0.9))
        p = mt.outcome_probabilities(model, s, g)
        direct = [np.vdot(s, E @ s).real for E in pv.evaluate(povm, g)]
        npt.assert_allclose(p, direct, atol=1e-12)
        npt.assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_isometry_columns_are_orthonormal():
    model = build_model(qubit_linear())
    for g in [0.0, 0.3, 0.9]:
        U = mt.isometry_at(model, g)
        assert U.shape == (4, 2)
        npt.assert_allclose(U.conj().T @ U, I2, atol=1e-12)


def test_compose_rejects_incomplete_family():
    povm = qubit_linear()
    ops = mt.positive_family(povm)
    ops[0] = (lambda inner: (lambda g: 1.1 * inner(g)))(ops[0])
    with pytest.raises(NotIsometry):
        mt.compose_isometry(ops, 2, povm.g_max)


def test_meter_eigenvalues_must_be_separated():
    povm = qubit_linear()
    ops = mt.positive_family(povm)
    with pytest.raises(ValueError):
        mt.compose_isometry(ops, 2, povm.g_max, meter_eigenvalues=(lambda g: 1.0, lambda g: 1.0))


def test_reduced_state_known_values():
    # sqrt factors make the coherence sqrt(1-g^2)/2 while populations stay 1/2
    model = build_model(qubit_linear())
    rho = mt.reduced_state(model, plus_state(), 0.1)
    expected = np.array([[0.5, np.sqrt(0.99) / 2], [np.sqrt(0.99) / 2, 0.5]])
    npt.assert_allclose(rho, expected, atol=1e-12)
    npt.assert_allclose(np.trace(rho), 1.0, atol=1e-12)


def test_reduced_state_agrees_with_partial_trace():
    model = build_model(qubit_linear())
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s /= np.linalg.norm(s)
        g = float(rng.uniform(0, 0.9))
        out = mt.isometry_at(model, g) @ s
        rho_pt = partial_trace_meter(np.outer(out, out.conj()), 2, 2)
        npt.assert_allclose(mt.reduced_state(model, s, g), rho_pt, atol=1e-12)


def test_disturbance_shrinks_with_coupling():
    """Trace distance to the undisturbed state follows (1 - sqrt(1-g^2))/2."""
    model = build_model(qubit_linear())
    s = plus_state()
    for g in (0.1, 0.01):
        td = trace_distance(mt.reduced_state(model, s, g), projector(s))
        closed = (1 - np.sqrt(1 - g * g)) / 2
        assert abs(td - closed) < 1e-10


def test_meter_expectation_with_eigenvalues():
    eigs = (lambda g: 1.0 / g, lambda g: -1.0 / g)
    model = build_model(qubit_linear(), eigenvalues=eigs)
    g = 0.2
    # <alpha> = sum_j alpha_j p_j; for psi=+ the outcome probabilities are equal
    npt.assert_allclose(mt.meter_expectation(model, plus_state(), g), 0.0, atol=1e-12)
    e0 = np.array([1.0, 0.0])
    p = mt.outcome_probabilities(model, e0, g)
    expected = p[0] / g - p[1] / g
    npt.assert_allclose(mt.meter_expectation(model, e0, g), expected, atol=1e-12)
    npt.assert_allclose(expected, 1.0, atol=1e-12)  # tr(Z P_0) = 1


def test_weak_coupling_check_product_at_zero():
    model = build_model(qubit_linear())
    ok, gap = mt.weak_coupling_check(model, plus_state())
    assert ok
    assert gap < 1e-12


def test_weak_coupling_check_detects_entanglement():
    # a family whose zeroth order is not proportional to the identity
    # entangles system and meter already at g = 0
    e1 = PolyMatrix([np.diag([0.9, 0.3])])
    e2 = PolyMatrix([np.diag([0.1, 0.7])])
    povm = ParamPovm(elements=(e1, e2), g_max=0.5)
    model = build_model(povm)
    ok, gap = mt.weak_coupling_check(model, plus_state())
    assert not ok
    assert gap > 0.1
