from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import asymptotics as ay
from weaklab import contextual as cx
from weaklab.errors import NoExactCv, NotCommuting, ValidationError
from weaklab.povm import ParamPovm, PolyMatrix

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def qubit_linear():
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.9,
    )


def flat():
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2]), PolyMatrix([I2 / 2])), g_max=0.9
    )


# ---------------------------------------------------------------- build_F


def test_build_f_qubit_linear():
    F = cx.build_F(qubit_linear(), Z)
    npt.assert_allclose(F.a_vec, [1.0, -1.0])
    g = 0.1
    expected = np.array([[0.55, 0.45], [0.45, 0.55]])
    npt.assert_allclose(F.at(g), expected, atol=1e-14)
    assert F.dim == 2 and F.n_out == 2
    assert F.row_sum_residual() < 1e-14


def test_build_f_in_rotated_basis():
    # same family conjugated by a fixed unitary: eigenvalue grid is unchanged
    th = 0.7
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rot = lambda M: U @ M @ U.T
    povm = ParamPovm(
        elements=(
            PolyMatrix([I2 / 2, rot(Z) / 2]),
            PolyMatrix([I2 / 2, -rot(Z) / 2]),
        ),
        g_max=0.9,
    )
    F = cx.build_F(povm, rot(Z))
    npt.assert_allclose(F.at(0.1), [[0.55, 0.45], [0.45, 0.55]], atol=1e-12)
    npt.assert_allclose(F.a_vec, [1.0, -1.0], atol=1e-12)


def test_build_f_rejects_noncommuting_observable():
    with pytest.raises(NotCommuting):
        cx.build_F(qubit_linear(), X)


def test_build_f_rejects_bad_row_sums():
    # an "incomplete" family slips past construction but not past build_F
    povm = ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2.5, -Z / 2])),
        g_max=0.5,
    )
    with pytest.raises(ValidationError) as err:
        cx.build_F(povm, Z)
    assert err.value.code == "RowSum"


# ---------------------------------------------------------- pseudoinverse


def test_pip_qubit_linear_closed_form():
    F = cx.build_F(qubit_linear(), Z)
    for g in [0.9, 0.5, 0.1, 0.01]:
        sol = cx.pseudoinverse_cv(F, g)
        npt.assert_allclose(sol.alpha, [1.0 / g, -1.0 / g], rtol=1e-10)
        assert sol.residual < 1e-9
        assert sol.rank_used == 2


def test_pip_minimum_norm_among_exact_solutions():
    # wide system with a one-dimensional null space: any admixture of the
    # null vector keeps F alpha = a but strictly increases the norm
    poly = PolyMatrix([np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])])
    F = cx.FMatrix(poly=poly, a_vec=np.array([1.0, -1.0]))
    sol = cx.pseudoinverse_cv(F, 0.3)
    npt.assert_allclose(poly(0.3) @ sol.alpha, F.a_vec, atol=1e-12)
    null = np.array([-0.5, -0.5, 1.0])
    npt.assert_allclose(poly(0.3) @ null, 0.0, atol=1e-14)
    rng = np.random.default_rng(37)
    base = np.linalg.norm(sol.alpha)
    for _ in range(25):
        t = rng.uniform(-5, 5)
        if abs(t) < 1e-3:
            continue
        assert np.linalg.norm(sol.alpha + t * null) > base + 1e-12
    # minimum norm also means no component along the null space
    npt.assert_allclose(np.dot(sol.alpha, null), 0.0, atol=1e-12)


def test_pip_least_squares_when_no_exact_solution():
    F = cx.build_F(flat(), Z)
    sol = cx.pseudoinverse_cv(F, 0.3)
    npt.assert_allclose(sol.alpha, [0.0, 0.0], atol=1e-12)
    npt.assert_allclose(sol.residual, np.sqrt(2.0), atol=1e-12)
    assert sol.rank_used == 1


def test_exact_cv_exists():
    grid = np.geomspace(0.01, 0.5, 8)
    assert cx.exact_cv_exists(cx.build_F(qubit_linear(), Z), grid)
    assert not cx.exact_cv_exists(cx.build_F(flat(), Z), grid)


# ---------------------------------------------------------- variance_min


def test_variance_min_uniform_probs_hand_example():
    # minimize (a1^2 + a2^2 + a3^2)/3 subject to a1 + a3/2 = 1, a2 + a3/2 = -1:
    # Lagrange gives (1, -1, 0)
    poly = PolyMatrix([np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])])
    F = cx.FMatrix(poly=poly, a_vec=np.array([1.0, -1.0]))
    alpha = cx.variance_min_cv(F, 0.2, np.ones(3) / 3).alpha
    npt.assert_allclose(alpha, [1.0, -1.0, 0.0], atol=1e-10)


def test_variance_min_weighted_hand_example():
    # p = (1/2, 1/4, 1/4): stationarity 2 p_j a_j = (F^T lam)_j gives
    # a = (6/7, -8/7, 2/7) with variance 5/7 (vs 3/4 for the unweighted choice)
    poly = PolyMatrix([np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])])
    F = cx.FMatrix(poly=poly, a_vec=np.array([1.0, -1.0]))
    probs = np.array([0.5, 0.25, 0.25])
    alpha = cx.variance_min_cv(F, 0.2, probs).alpha
    npt.assert_allclose(alpha, [6.0 / 7.0, -8.0 / 7.0, 2.0 / 7.0], atol=1e-10)
    assert probs @ alpha**2 < 3.0 / 4.0 + 1e-12


def test_variance_min_matches_constrained_optimizer():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(53)
    for _ in range(10):
        d, n = 2, 4
        M = rng.standard_normal((d, n))
        a = rng.standard_normal(d)
        probs = rng.dirichlet(np.ones(n))
        if probs.min() < 1e-3:
            continue
        F = cx.FMatrix(poly=PolyMatrix([M]), a_vec=a)
        alpha = cx.variance_min_cv(F, 0.1, probs).alpha
        res = scipy_opt.minimize(
            lambda x: probs @ x**2,
            np.zeros(n),
            constraints={"type": "eq", "fun": lambda x: M @ x - a},
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        npt.assert_allclose(probs @ alpha**2, probs @ res.x**2, rtol=1e-5, atol=1e-8)
        npt.assert_allclose(alpha, res.x, atol=1e-4)


def test_variance_min_rejects_infeasible_and_bad_probs():
    F = cx.build_F(flat(), Z)
    with pytest.raises(NoExactCv):
        cx.variance_min_cv(F, 0.2, np.array([0.5, 0.5]))
    F2 = cx.build_F(qubit_linear(), Z)
    with pytest.raises(ValueError):
        cx.variance_min_cv(F2, 0.2, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        cx.variance_min_cv(F2, 0.2, np.array([1.0, 0.0]))


# ------------------------------------------------------------- truncation


def test_truncate_f_modes():
    coeffs = [
        np.array([[0.3, 0.7], [0.3, 0.7]]),
        np.array([[0.2, -0.2], [-0.2, 0.2]]),
        np.array([[0.1, -0.1], [0.1, -0.1]]),
    ]
    P = PolyMatrix(coeffs)
    g = 0.4
    npt.assert_allclose(P.truncate(2, mode="eq13")(g), coeffs[0] + g**2 * coeffs[2], atol=1e-14)
    npt.assert_allclose(P.truncate(1, mode="prefix")(g), coeffs[0] + g * coeffs[1], atol=1e-14)
    # above the top order, eq13 keeps only the constant term and prefix keeps everything
    npt.assert_array_equal(P.truncate(5, mode="eq13")(g), coeffs[0])
    npt.assert_array_equal(P.truncate(5, mode="prefix")(g), P(g))
    with pytest.raises(ValueError):
        P.truncate(1, mode="other")


def test_truncated_cv_check_identity_for_linear_family():
    grid = np.geomspace(0.02, 0.5, 6)
    rep = cx.truncated_cv_check(qubit_linear(), Z, 1, grid)
    assert rep.full_solvable and rep.truncated_solvable
    assert rep.alphas_match
    npt.assert_allclose(rep.alpha_full, rep.alpha_truncated, atol=1e-12)


def test_truncated_cv_check_quadratic_counterexample():
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    Q = 0.25 * np.array([[1.0, -2.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
    elements = tuple(
        PolyMatrix([np.diag(P[:, j]), np.zeros((3, 3)), np.diag(Q[:, j])])
        for j in range(3)
    )
    povm = ParamPovm(elements=elements, g_max=0.5)
    A = np.diag([1.0, -1.0, 0.0])
    grid = np.geomspace(0.01, 0.5, 12)
    rep = cx.truncated_cv_check(povm, A, 1, grid)
    assert rep.full_solvable
    assert not rep.truncated_solvable
    assert not rep.alphas_match
    assert rep.full_residuals.max() < 1e-10
    # truncation at n=1 leaves the constant part only, whose best residual
    # is the full distance sqrt(2) from a = (1, -1, 0)
    npt.assert_allclose(rep.truncated_residuals, np.sqrt(2.0), atol=1e-12)


# ------------------------------------------------------------- pole order


def test_pole_order_linear_family():
    F = cx.build_F(qubit_linear(), Z)
    est = ay.pinv_pole_order(F.poly, F.a_vec)
    assert abs(est.exponent - 1.0) < 0.05
    assert est.reliable


def test_pole_order_quadratic_family():
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    Q = 0.25 * np.array([[1.0, -2.0, 1.0], [-2.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
    elements = tuple(
        PolyMatrix([np.diag(P[:, j]), np.zeros((3, 3)), np.diag(Q[:, j])])
        for j in range(3)
    )
    povm = ParamPovm(elements=elements, g_max=0.5)
    F = cx.build_F(povm, np.diag([1.0, -1.0, 0.0]))
    est = ay.pinv_pole_order(F.poly, F.a_vec)
    assert abs(est.exponent - 2.0) < 0.05
    assert est.reliable
