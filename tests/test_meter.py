from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import contextual as cx
from weaklab import linalg
from weaklab import meter as mt
from weaklab import povm as pv
from weaklab import weak as wk
from weaklab.errors import NotIsometry, NotPositive, OutOfValidityRange
from weaklab.povm import ParamPovm, PolyMatrix

from oracles import (
    partial_trace_meter,
    projector,
    reduced_state,
    trace_distance,
    weak_coupling_check,
)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_meter_eigenvalue_is_refused(bad):
    povm = qubit_linear()
    grid = pv.default_grid(povm.g_max)
    with pytest.raises(ValueError, match=rf"collide \(gap nan\) at g={grid[0]:.6g}$"):
        mt.compose_isometry(
            mt.positive_family(povm), 2, povm.g_max, meter_eigenvalues=(lambda g: bad, lambda g: 1.0)
        )
    late = (lambda g: 1.0, lambda g: bad if g >= grid[4] else 2.0)
    with pytest.raises(ValueError, match=rf"gap nan\) at g={grid[4]:.6g}$"):
        mt.compose_isometry(mt.positive_family(povm), 2, povm.g_max, meter_eigenvalues=late)


def test_reduced_state_known_values():
    # sqrt factors make the coherence sqrt(1-g^2)/2 while populations stay 1/2
    model = build_model(qubit_linear())
    rho = reduced_state(model, plus_state(), 0.1)
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
        npt.assert_allclose(reduced_state(model, s, g), rho_pt, atol=1e-12)


def test_disturbance_shrinks_with_coupling():
    """Trace distance to the undisturbed state follows (1 - sqrt(1-g^2))/2."""
    model = build_model(qubit_linear())
    s = plus_state()
    for g in (0.1, 0.01):
        td = trace_distance(reduced_state(model, s, g), projector(s))
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
    ok, gap = weak_coupling_check(model, plus_state())
    assert ok
    assert gap < 1e-12


def test_weak_coupling_check_detects_entanglement():
    # a family whose zeroth order is not proportional to the identity
    # entangles system and meter already at g = 0
    e1 = PolyMatrix([np.diag([0.9, 0.3])])
    e2 = PolyMatrix([np.diag([0.1, 0.7])])
    povm = ParamPovm(elements=(e1, e2), g_max=0.5)
    model = build_model(povm)
    ok, gap = weak_coupling_check(model, plus_state())
    assert not ok
    assert gap > 0.1


# ------------------------------------------------------- eigenbasis dilation


def dilate(povm, F):
    """The acceptance test's dilation: per-outcome pseudoinverse eigenvalues."""
    eigs = [lambda g, j=j: float(cx.pseudoinverse_cv(F, g).alpha[j]) for j in range(povm.n_out)]
    return mt.compose_isometry(mt.positive_family(povm), povm.n_out, povm.g_max, eigs)


def test_dilation_hot_path_shape(count_calls):
    inst = wk.generate_linear_commuting_instance(np.random.default_rng(3), 3, 4)
    povm = inst.povm
    sqrts = count_calls(linalg, "psd_sqrt")
    solves = count_calls(linalg, "pinv_and_rank")
    eighs = count_calls(np.linalg, "eigh")
    model = dilate(povm, cx.build_F(povm, inst.observable))
    g = 0.7 * povm.g_max
    mt.outcome_probabilities(model, inst.psi_i, g)
    mt.meter_expectation(model, inst.psi_i, g)
    assert sqrts[0] == 0
    assert eighs[0] == 0  # both eigenbases of a diagonal family are permutations
    # one solve per grid coupling and one at g, not one per outcome
    assert solves[0] == len(pv.default_grid(povm.g_max)) + 1


def haar(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_povm(povm, U, perm):
    elements = tuple(
        PolyMatrix([U @ c @ U.conj().T for c in povm.elements[j].coefficients]) for j in perm
    )
    return ParamPovm(elements=elements, g_max=povm.g_max)


def test_rotated_family_still_takes_eigh(count_calls):
    # the general common-eigenbasis path stays in use off the diagonal
    rng = np.random.default_rng(3)
    inst = wk.generate_linear_commuting_instance(rng, 3, 4)
    U = haar(rng, 3)
    povm = rotated_povm(inst.povm, U, range(4))
    eighs = count_calls(np.linalg, "eigh")
    dilate(povm, cx.build_F(povm, U @ inst.observable @ U.conj().T))
    assert eighs[0] >= 2  # one eigenbasis for build_F, one for positive_family


def test_eigenbasis_roots_equal_psd_sqrt():
    rng = np.random.default_rng(8)
    families = [qubit_linear()]  # degenerate zeroth order
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(dim, 6))
        povm = wk.generate_linear_commuting_instance(rng, dim, n_out).povm
        families += [povm, rotated_povm(povm, haar(rng, dim), rng.permutation(n_out))]
    for povm in families:
        ops = mt.positive_family(povm)
        for g in np.linspace(0.0, povm.g_max, 7):
            for op, e in zip(ops, povm.elements):
                npt.assert_allclose(op(g), linalg.psd_sqrt(e(g)), rtol=0, atol=1e-12)


def test_eigenbasis_roots_follow_the_clamp_rule():
    # (I -+ g Z)/2 has eigenvalue (1 - g)/2, negative past g = 1
    wide = ParamPovm(elements=qubit_linear().elements, g_max=2.0)
    ops = mt.positive_family(wide)
    edge = 1.0 + 2e-13  # a relative -1e-13 is clamped to zero
    npt.assert_allclose(ops[1](edge), linalg.psd_sqrt(wide.elements[1](edge)), atol=1e-15)
    with pytest.raises(NotPositive) as point:
        linalg.psd_sqrt(wide.elements[1](1.2))
    for op in ops:  # both outcomes have eigenvalue (1 - g)/2 = -0.1 at g = 1.2
        with pytest.raises(NotPositive) as err:
            op(1.2)
        assert str(err.value) == str(point.value)


def test_noncommuting_family_still_dilates(count_calls):
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    povm = ParamPovm(
        elements=tuple(PolyMatrix([I2 / 4, s * P / 4]) for P in (Z, X) for s in (1, -1)),
        g_max=0.9,
    )
    sqrts = count_calls(linalg, "psd_sqrt")
    model = build_model(povm)
    assert sqrts[0] > 0  # the psd_sqrt fallback
    s = plus_state()
    for g in (0.0, 0.3, 0.9):
        direct = [np.vdot(s, E @ s).real for E in pv.evaluate(povm, g)]
        npt.assert_allclose(mt.outcome_probabilities(model, s, g), direct, atol=1e-12)


def test_compose_isometry_refuses_infinite_g_max():
    ops = mt.positive_family(qubit_linear())
    with pytest.raises(OutOfValidityRange, match="positive and finite, got inf"):
        mt.compose_isometry(ops, 2, float("inf"))


def test_stacked_checks_name_the_first_failing_coupling():
    povm = qubit_linear()
    grid = pv.default_grid(povm.g_max)
    ops = mt.positive_family(povm)
    ops[0] = (lambda inner: (lambda g: (1.1 if g >= grid[5] else 1.0) * inner(g)))(ops[0])
    with pytest.raises(NotIsometry, match=f"at g={grid[5]:.6g}$"):
        mt.compose_isometry(ops, 2, povm.g_max)
    blank = lambda g: np.full((2, 2), np.nan if g > 0 else 0.5)  # a NaN deviation fails too
    with pytest.raises(NotIsometry, match=f"by nan at g={grid[0]:.6g}$"):
        mt.compose_isometry([blank, blank], 2, povm.g_max)
    eigs = (lambda g: 1.0, lambda g: 1.0 if g >= grid[7] else 2.0)
    with pytest.raises(ValueError, match=rf"gap 0\.000e\+00\) at g={grid[7]:.6g}$"):
        mt.compose_isometry(mt.positive_family(povm), 2, povm.g_max, meter_eigenvalues=eigs)
