from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import asymptotics as ay
from weaklab import contextual as cx
from weaklab import linalg
from weaklab import weak as wk
from weaklab.errors import NotCommuting, ValidationError
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


def test_build_f_basis_rebuilds_the_outcomes():
    # E_j(g) = B diag(F(g)[:, j]) B^H in the basis build_F found
    U = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2)
    rot = lambda M: U @ M @ U.conj().T
    povm = ParamPovm(
        elements=(
            PolyMatrix([I2 / 2, rot(Z) / 2]),
            PolyMatrix([I2 / 2, -rot(Z) / 2]),
        ),
        g_max=0.9,
    )
    F = cx.build_F(povm, rot(Z))
    B = F.basis
    npt.assert_allclose(B.conj().T @ B, I2, atol=1e-14)
    for g in (0.0, 0.3, 0.9):
        for j, e in enumerate(povm.elements):
            npt.assert_allclose(B @ np.diag(F.at(g)[:, j]) @ B.conj().T, e(g), atol=1e-14)


def test_build_f_takes_one_eigh_for_a_generated_family(monkeypatch):
    # the observable's spectrum is simple, so every later operator meets
    # one-column blocks only and needs no eigendecomposition
    inst = wk.generate_linear_commuting_instance(np.random.default_rng(4), 4, 5)
    assert len(set(np.diag(inst.observable))) == 4
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    F = cx.build_F(inst.povm, inst.observable)
    assert calls == [(4, 4)]
    npt.assert_array_equal(F.a_vec, np.diag(inst.observable).real)


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


def test_pip_repeat_coupling_returns_the_same_solution(count_calls):
    F = cx.build_F(qubit_linear(), Z)
    solves = count_calls(linalg, "pinv_and_rank")
    first = cx.pseudoinverse_cv(F, 0.3)
    assert cx.pseudoinverse_cv(F, 0.3) is first
    assert cx.pseudoinverse_cv(F, 0.5).g == 0.5
    again = cx.pseudoinverse_cv(F, 0.3)  # the memo holds one coupling
    assert again is not first
    assert np.array_equal(again.alpha, first.alpha) and again.residual == first.residual
    assert solves[0] == 3


def test_a_vec_and_alpha_are_read_only():
    F = cx.build_F(qubit_linear(), Z)
    sol = cx.pseudoinverse_cv(F, 0.3)
    with pytest.raises(ValueError):
        F.a_vec[0] = 2.0
    with pytest.raises(ValueError):
        sol.alpha[0] = 2.0
    a = np.array([1.0, -1.0])
    raw = cx.FMatrix(poly=PolyMatrix([np.eye(2)]), a_vec=a)
    a[0] = 5.0  # F keeps its own copy; the caller's array stays writable
    assert raw.a_vec[0] == 1.0


def test_solve_grid_equals_pointwise_solves():
    grid = np.geomspace(0.01, 0.5, 12)
    families = [cx.build_F(qubit_linear(), Z), cx.build_F(flat(), Z)]
    rng = np.random.default_rng(12)
    for dim, n_out in [(2, 3), (3, 3), (4, 5)]:
        inst = wk.generate_linear_commuting_instance(rng, dim, n_out)
        families.append(inst.F)
        families.append(cx.FMatrix(poly=inst.F.poly.truncate(0), a_vec=inst.F.a_vec))
    for F in families:
        sol = cx.solve_grid(F, grid)
        assert sol.alpha.shape == (len(grid), F.n_out)
        for k, g in enumerate(grid):
            point = cx.pseudoinverse_cv(F, g)
            assert np.array_equal(sol.F_g[k], F.at(g))
            assert np.array_equal(sol.alpha[k], point.alpha)
            assert sol.residuals[k] == point.residual
            assert sol.ranks[k] == point.rank_used
        assert sol.exact == cx.exact_cv_exists(F, grid)


def test_exact_cv_exists():
    grid = np.geomspace(0.01, 0.5, 8)
    assert cx.exact_cv_exists(cx.build_F(qubit_linear(), Z), grid)
    assert not cx.exact_cv_exists(cx.build_F(flat(), Z), grid)


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
