from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import asymptotics as ay
from weaklab.errors import NotLinear, NotPositiveSamples
from weaklab.povm import PolyMatrix


def eq70_family():
    """Linear 2x2 family [[1+g, 1], [-1, -1+g]] with determinant g^2."""
    return PolyMatrix([np.array([[1.0, 1.0], [-1.0, -1.0]]), np.eye(2)])


def eq70_singulars(g):
    """Closed-form singular values, written to stay accurate as g -> 0.

    sigma_+^2 = g^2 + 2 + 2 sqrt(g^2 + 1); the naive partner
    sqrt(g^2 + 2 - 2 sqrt(g^2 + 1)) cancels catastrophically, but
    (g^2+2)^2 - 4(g^2+1) = g^4 gives sigma_- = g^2 / sigma_+ exactly.
    """
    big = np.sqrt(g * g + 2.0 + 2.0 * np.sqrt(g * g + 1.0))
    return big, g * g / big


# ----------------------------------------------------------- power-law fit


def test_leading_order_fit_recovers_pure_powers():
    g = np.geomspace(1e-4, 1e-1, 10)
    for p in [0.5, 1.0, 2.0, 3.0]:
        est = ay.leading_order_fit(np.c_[g, 4.2 * g**p])
        npt.assert_allclose(est.exponent, p, atol=1e-10)
        npt.assert_allclose(est.coefficient, 4.2, rtol=1e-8)
        assert est.reliable


def test_leading_order_fit_rejects_nonpositive():
    g = np.geomspace(1e-3, 1e-1, 8)
    with pytest.raises(NotPositiveSamples):
        ay.leading_order_fit(np.c_[g, np.zeros_like(g)])


def test_default_pole_grid():
    grid = ay.default_pole_grid()
    assert len(grid) == 13
    npt.assert_allclose(grid[0], 0.1)
    npt.assert_allclose(grid[-1], 0.1 * 2.0**-12)


# ------------------------------------------------------ eq70 closed forms


def test_eq70_singular_values_match_closed_form():
    F = eq70_family()
    for g in [0.1, 0.01, 0.001]:
        sig = np.linalg.svd(F(g), compute_uv=False)
        big, small = eq70_singulars(g)
        npt.assert_allclose(sig[0], big, rtol=1e-12)
        npt.assert_allclose(sig[1], small, rtol=1e-9)


def test_eq70_determinant_is_g_squared():
    F = eq70_family()
    for g in [0.1, 0.01]:
        assert abs(np.linalg.det(F(g)) - g * g) < 1e-14


def test_svd_curve_shapes_and_monotone_order():
    F = eq70_family()
    grid = np.sort(ay.default_pole_grid())
    curve = ay.svd_curve(F, grid)
    assert curve.singulars.shape == (13, 2)
    assert np.all(curve.singulars[:, 0] >= curve.singulars[:, 1])
    big, small = eq70_singulars(grid)
    npt.assert_allclose(curve.singulars[:, 0], big, rtol=1e-10)
    npt.assert_allclose(curve.singulars[:, 1], small, rtol=1e-6, atol=1e-18)


# ------------------------------------------- truncation / SVD commutator


def test_truncation_svd_do_not_commute_for_eq70():
    rep = ay.truncation_svd_commutator(eq70_family(), 1)
    assert not rep.commute
    # order-1 expansion of the singular values is (2 + 0 g, 0 + 0 g) ...
    npt.assert_allclose(rep.right[:, 0], 2.0, atol=1e-6)
    npt.assert_allclose(rep.right[:, 1], 0.0, atol=1e-6)
    # ... but the truncation (here the family itself) keeps a positive
    # second singular value ~ g^2/2 at every sampled coupling
    assert np.all(rep.left[:, 1] > 0)
    npt.assert_allclose(rep.left[:, 1], eq70_singulars(rep.g_grid)[1], rtol=1e-6)
    npt.assert_allclose(rep.left[:, 1], rep.g_grid**2 / 2, rtol=4e-3)
    assert all(rep.fit_reliable)


def test_truncation_svd_commute_for_diagonal_family():
    # sigma_1 = 1 + g and sigma_2 = g are already polynomial, so both
    # orderings agree
    F = PolyMatrix([np.diag([1.0, 0.0]), np.eye(2)])
    rep = ay.truncation_svd_commutator(F, 1)
    assert rep.commute
    npt.assert_allclose(rep.right_series[0], [1.0, 1.0], atol=1e-7)
    npt.assert_allclose(rep.right_series[1], [0.0, 1.0], atol=1e-7)


# ------------------------------------------------------------ claim audit


def test_claim_audit_flags_eq70():
    rep = ay.proof_claim_check(eq70_family())
    assert rep.zero_trajectories == []
    assert not rep.claim_holds
    assert rep.counterexample_found
    exps = [est.exponent for est in rep.orders]
    npt.assert_allclose(exps[0], 0.0, atol=0.05)
    npt.assert_allclose(exps[1], 2.0, atol=0.05)
    # re-verify the violation well beyond the 1.05 threshold, with a clean fit
    assert exps[1] > 1.5
    assert rep.orders[1].reliable
    assert "trajectory" in rep.caveat


def test_claim_audit_passes_for_benign_linear_family():
    # sigma = (1, g): one constant and one exactly first-order trajectory
    F = PolyMatrix([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    rep = ay.proof_claim_check(F)
    assert rep.claim_holds
    assert not rep.counterexample_found


def test_claim_audit_vacuous_with_zero_trajectory():
    # second singular value is identically zero: the premise fails,
    # so the claim holds vacuously
    F = PolyMatrix([np.zeros((2, 2)), np.diag([1.0, 0.0])])
    rep = ay.proof_claim_check(F)
    assert rep.zero_trajectories == [1]
    assert rep.claim_holds
    assert not rep.counterexample_found


def test_claim_audit_rejects_nonlinear():
    F = PolyMatrix([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    with pytest.raises(NotLinear):
        ay.proof_claim_check(F)


def test_claim_audit_random_families_are_internally_consistent():
    # generic linear families have constant or first-order singular values;
    # rotated copies of eq70 keep its second-order trajectory because
    # orthogonal factors leave singular values alone
    rng = np.random.default_rng(61)
    eq70 = eq70_family()
    n_flagged = 0
    for k in range(100):
        if k < 20:
            th1, th2 = rng.uniform(0, 2 * np.pi, 2)
            Q = np.array([[np.cos(th1), -np.sin(th1)], [np.sin(th1), np.cos(th1)]])
            R = np.array([[np.cos(th2), -np.sin(th2)], [np.sin(th2), np.cos(th2)]])
            F = PolyMatrix([Q @ c @ R for c in eq70.coefficients])
        else:
            d = int(rng.integers(2, 5))
            F = PolyMatrix([rng.standard_normal((d, d)) for _ in range(2)])
        rep = ay.proof_claim_check(F)
        fitted = [e.exponent for e in rep.orders if e is not None]
        assert rep.claim_holds == all(x <= 1.05 for x in fitted)
        assert rep.counterexample_found == (not rep.claim_holds)
        if rep.counterexample_found:
            n_flagged += 1
            assert max(fitted) > 1.5  # the violation is never marginal
    assert n_flagged >= 20  # every rotated eq70 copy must be flagged


# ------------------------------------------------------------ pole orders


def test_pinv_pole_orders_for_eq70():
    F = eq70_family()
    est = ay.pinv_pole_order(F, np.array([1.0, 1.0]))
    assert abs(est.exponent - 2.0) <= 0.05
    assert est.reliable
    est = ay.pinv_pole_order(F, np.array([1.0, -1.0]))
    assert abs(est.exponent - 1.0) <= 0.05
    assert est.reliable


def test_pinv_pole_order_zero_target():
    est = ay.pinv_pole_order(eq70_family(), np.zeros(2))
    assert est.alpha_zero
    assert est.exponent == 0.0
    assert est.reliable
