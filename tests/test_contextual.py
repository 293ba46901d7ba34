from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import asymptotics as ay
from weaklab import contextual as cx
from weaklab import linalg
from weaklab import povm as pv
from weaklab import registry
from weaklab import weak as wk
from weaklab.errors import NoExactCv, NotCommuting, OutOfValidityRange, ValidationError
from weaklab.povm import ParamPovm, PolyMatrix

from oracles import ConstantOutcome, NonUniformOrder, cv_residual, minimum_nonzero_order

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
    npt.assert_allclose(np.real(F.poly(g)), expected, atol=1e-14)
    assert F.dim == 2 and F.n_out == 2
    assert cx._row_sum_residual(F.poly.coefficients) < 1e-14


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
    npt.assert_allclose(np.real(F.poly(0.1)), [[0.55, 0.45], [0.45, 0.55]], atol=1e-12)
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
        Fg = np.real(F.poly(g))
        for j, e in enumerate(povm.elements):
            npt.assert_allclose(B @ np.diag(Fg[:, j]) @ B.conj().T, e(g), atol=1e-14)


def test_build_f_takes_no_eigh_for_a_generated_family(monkeypatch):
    # a generated family is exactly diagonal, so its common eigenbasis is a
    # permutation read off the diagonals without any eigendecomposition
    inst = wk.generate_linear_commuting_instance(np.random.default_rng(4), 4, 5)
    assert len(set(np.diag(inst.observable))) == 4
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
    F = cx.build_F(inst.povm, inst.observable)
    assert calls == []
    npt.assert_array_equal(F.a_vec, np.diag(inst.observable).real)


def test_build_f_rejects_noncommuting_observable():
    with pytest.raises(NotCommuting):
        cx.build_F(qubit_linear(), X)


def test_not_commuting_names_the_observable_and_each_outcome_order():
    # outcome 0 is constant: its zero order-1 coefficient is left out of the
    # eigenbasis search, and the names still count outcomes and orders in full
    povm = ParamPovm(
        elements=(PolyMatrix([I2 / 2]), PolyMatrix([I2 / 4, X / 4]), PolyMatrix([I2 / 4, -X / 4])),
        g_max=0.5,
    )
    with pytest.raises(NotCommuting, match=r"^observable and outcome 1, order 1 do not commute") as err:
        cx.build_F(povm, Z)
    assert err.value.pair == (0, 3)  # positions in the list linalg.common_eigenbasis was given
    mixed = ParamPovm(
        elements=(PolyMatrix([I2 / 4, X / 4]), PolyMatrix([I2 / 4, Z / 4]), PolyMatrix([I2 / 2, -(X + Z) / 4])),
        g_max=0.5,
    )
    with pytest.raises(NotCommuting, match=r"^outcome 0, order 1 and outcome 1, order 1 do not commute"):
        pv.spectral_family(mixed)


def test_build_f_rejects_bad_row_sums():
    # an "incomplete" family slips past construction but not past build_F
    povm = ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2.5, -Z / 2])),
        g_max=0.5,
    )
    with pytest.raises(ValidationError) as err:
        cx.build_F(povm, Z)
    assert err.value.code == "RowSum"


@pytest.mark.parametrize("excess, accepted", [(5e-12, True), (2e-11, False)])
def test_build_f_row_sum_tolerance_is_1e_11(excess, accepted):
    # literal bounds on both sides of ROW_SUM_TOL: one spectral row sums to 1 + excess
    povm = ParamPovm(
        elements=(PolyMatrix([np.diag([0.5 + excess, 0.5]), Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.5,
    )
    if accepted:
        cx.build_F(povm, Z)
    else:
        with pytest.raises(ValidationError, match=r"^\[RowSum\]"):
            cx.build_F(povm, Z)


# ---------------------------------------------------------- pseudoinverse


def test_pip_qubit_linear_closed_form():
    F = cx.build_F(qubit_linear(), Z)
    for g in [0.9, 0.5, 0.1, 0.01]:
        sol = cx.pseudoinverse_cv(F, g)
        npt.assert_allclose(sol.alpha, [1.0 / g, -1.0 / g], rtol=1e-10)
        assert cv_residual(sol) < 1e-9
        assert cx.solve_grid(F, [g]).ranks[0] == 2


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
    npt.assert_allclose(cv_residual(sol), np.sqrt(2.0), atol=1e-12)
    assert cx.solve_grid(F, [0.3]).ranks[0] == 1


def test_pip_repeat_coupling_returns_the_same_solution(count_calls):
    F = cx.build_F(qubit_linear(), Z)
    grid = pv.default_grid(F.g_max).tolist()
    solves = count_calls(linalg, "pinv_and_rank")
    first = cx.pseudoinverse_cv(F, 0.3)
    assert solves[0] == 2  # the default grid's one stack, then 0.3 alone
    assert cx.pseudoinverse_cv(F, 0.3) is first
    for g in grid:
        assert cx.pseudoinverse_cv(F, g) is cx.pseudoinverse_cv(F, g)
    assert solves[0] == 2  # the grid's couplings are read from its stack
    other = cx.pseudoinverse_cv(F, 0.5)
    assert cx.pseudoinverse_cv(F, 0.5) is other and solves[0] == 3
    assert list(cx._solved(F)) == [*grid, 0.5]  # one coupling off the grid: 0.5 evicted 0.3
    again = cx.pseudoinverse_cv(F, 0.3)
    assert solves[0] == 4  # the evicted coupling is solved again, to the same bits
    assert again is not first and again.alpha.tobytes() == first.alpha.tobytes()
    for g in np.linspace(0.01, 0.89, 500).tolist():
        cx.pseudoinverse_cv(F, g)
    assert list(cx._solved(F)) == [*grid, 0.89]  # bounded: the grid and the last coupling
    assert all(cx.pseudoinverse_cv(F, g) is cx.pseudoinverse_cv(F, g) for g in grid)
    assert solves[0] == 4 + 500


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
    built = cx.CvSolution(0.3, np.array([1.0, -1.0]), raw)  # CvSolution itself marks alpha read-only
    with pytest.raises(ValueError):
        built.alpha[0] = 2.0


def test_solve_grid_equals_pointwise_solves():
    grid = np.geomspace(0.01, 0.5, 12)
    families = [cx.build_F(qubit_linear(), Z), cx.build_F(flat(), Z)]
    rng = np.random.default_rng(12)
    for dim, n_out in [(2, 3), (3, 3), (4, 5)]:
        inst = wk.generate_linear_commuting_instance(rng, dim, n_out)
        F = cx.build_F(inst.povm, inst.observable)
        families.append(F)
        families.append(cx.FMatrix(poly=F.poly.truncate(0), a_vec=F.a_vec))
    for F in families:
        sol = cx.solve_grid(F, grid)
        assert sol.alpha.shape == (len(grid), F.n_out)
        for k, g in enumerate(grid):
            point = cx.pseudoinverse_cv(F, g)
            assert np.array_equal(sol.F_g[k], np.real(F.poly(g)))
            assert np.array_equal(sol.alpha[k], point.alpha)
            assert sol.residuals[k] == cv_residual(point)
            assert sol.ranks[k] == cx.solve_grid(F, [g]).ranks[0]
        assert sol.exact == cx.exact_cv_exists(F, grid)


def _registry_and_generated_families():
    """(F, g_max) of every registry instance (eq70 against a = (1, 1)) and 100 generated ones."""
    out = []
    for name in registry.REGISTRY:
        spec = registry.get_instance(name)
        if spec.povm is None:
            out.append((cx.FMatrix(poly=spec.fmatrix, a_vec=[1.0, 1.0], g_max=spec.g_max), spec.g_max))
        else:
            out.append((cx.build_F(spec.povm, spec.observable), spec.g_max))
    rng = np.random.default_rng(15)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4)]
    for t in range(100):
        inst = wk.generate_linear_commuting_instance(rng, *shapes[t % len(shapes)])
        out.append((cx.build_F(inst.povm, inst.observable), inst.povm.g_max))
    return out


def test_residuals_equal_the_unscaled_norm_bit_for_bit():
    # the norms are taken on an exactly rescaled residual; where the plain
    # sqrt(r . r) does not overflow, nothing changes
    for F, g_max in _registry_and_generated_families():
        grid = np.concatenate([wk.limit_grid(g_max), np.geomspace(g_max * 1e-3, g_max, 7)])
        sol = cx.solve_grid(F, grid)
        r = (sol.F_g @ sol.alpha[..., None])[..., 0] - F.a_vec
        plain = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
        assert sol.residuals.tobytes() == plain.tobytes()
        point = cx.pseudoinverse_cv(F, grid[-1])
        assert cv_residual(point) == float(np.linalg.norm(r[-1]))


def test_residual_of_a_huge_target_is_finite():
    eq70 = registry.get_instance("eq70").fmatrix
    F = cx.FMatrix(poly=eq70, a_vec=[1e300, -1e300])
    sol = cx.solve_grid(F, [0.1, 0.2])
    point = cx.pseudoinverse_cv(F, 0.1)
    assert np.isfinite(sol.residuals).all()
    assert cv_residual(point) == sol.residuals[0]
    r = sol.F_g[0] @ sol.alpha[0] - F.a_vec  # entries near 7e285: their squares overflow
    npt.assert_allclose(cv_residual(point), math.hypot(*r), rtol=1e-15)
    assert not cx.solve_grid(F, [0.1]).exact


#: 0 or +-2**k over the whole float range short of overflow in F(g) alpha
ENTRIES = st.just(0.0) | st.builds(
    lambda sign, k: math.ldexp(sign, k), st.sampled_from([1.0, -1.0]), st.integers(-1074, 900)
)


@st.composite
def raw_solves(draw):
    """(F, g): a raw family of shape m x n <= 3 x 3 and degree <= 2, a target, a coupling."""
    m, n, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    coeffs = draw(st.lists(ENTRIES, min_size=(degree + 1) * m * n, max_size=(degree + 1) * m * n))
    a = draw(st.lists(ENTRIES, min_size=m, max_size=m))
    F = cx.FMatrix(poly=PolyMatrix(np.reshape(coeffs, (degree + 1, m, n))), a_vec=a)
    return F, draw(st.floats(2.0**-30, 1.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(raw_solves())
def test_both_solvers_give_finite_weights_or_refuse(case):
    """pseudoinverse_cv and a one-point solve_grid agree bit for bit, or both raise NoExactCv.

    The suite turns warnings into errors, so an overflow that escapes the
    solvers' errstate fails here too.
    """
    F, g = case
    solves = []
    for solve in (lambda: cx.pseudoinverse_cv(F, g), lambda: cx.solve_grid(F, [g])):
        try:
            solves.append(solve())
        except NoExactCv as exc:
            assert str(exc) == f"contextual values overflow at g = {g:.9g}"
            solves.append(None)
    point, grid = solves
    assert (point is None) == (grid is None)
    if point is not None:
        assert np.isfinite(point.alpha).all()
        assert point.alpha.tobytes() == grid.alpha[0].tobytes()


def test_a_non_finite_f_is_refused_at_its_first_coupling(monkeypatch):
    # quad-cx's g**2 terms overflow past about 1e154, and LAPACK's SVD of an infinite
    # F(g) does not converge: NoExactCv names the first such coupling, with no warning
    spec = registry.get_instance("quad-cx")
    F = cx.build_F(spec.povm, spec.observable)
    with pytest.raises(NoExactCv) as err:
        cx.solve_grid(F, [0.1, 1e160, 1e200])
    assert str(err.value) == "F(g) is not finite at g = 1e+160"
    # an SVD that fails on a finite F(g) is not a missing solution: its error stands
    def fail(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cx, "pinv_and_rank", fail)
    with pytest.raises(np.linalg.LinAlgError):
        cx.solve_grid(F, [0.1])


def test_the_single_coupling_solve_refuses_a_non_finite_f_without_a_warning():
    # the suite turns warnings into errors: an overflow while evaluating F(g) would fail first
    spec = registry.get_instance("quad-cx")
    F = cx.build_F(spec.povm, spec.observable)
    with pytest.raises(NoExactCv) as err:
        cx.pseudoinverse_cv(F, 1e200)
    assert str(err.value) == "F(g) is not finite at g = 1e+200"


# ------------------------------------------------- the grid memo of pseudoinverse_cv


def single_solve(F, g):
    """The single-coupling solve, as pseudoinverse_cv makes it off the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        return cx._pinv_weights(F.poly(g).real, F.a_vec, g)[0]


def spy_pinv(monkeypatch):
    """The shape of every matrix or stack that contextual hands pinv_and_rank."""
    shapes = []

    def spied(M):
        shapes.append(np.shape(M))
        return linalg.pinv_and_rank(M)

    monkeypatch.setattr(cx, "pinv_and_rank", spied)
    return shapes


def test_grid_couplings_read_the_single_solve_from_one_stack(monkeypatch):
    # every default_grid coupling gets the single solve's alpha bit for bit, in its
    # layout: the real part of its own complex array, so BLAS rounds on it alike
    families = _registry_and_generated_families()
    shapes = spy_pinv(monkeypatch)
    for F, g_max in families:
        assert F.g_max == g_max
        for g in pv.default_grid(g_max).tolist():
            alpha = cx.pseudoinverse_cv(F, g).alpha
            single = single_solve(F, g)
            assert alpha.tobytes() == single.tobytes()
            assert alpha.strides == single.strides == (16,)
            assert alpha.base.dtype == single.base.dtype == complex
            assert alpha.base.shape == single.base.shape
            assert not alpha.flags.writeable
    # one stacked solve per family, and no single solve but the comparisons' own
    grids = [shape for shape in shapes if len(shape) == 3]
    assert len(grids) == len(families)
    assert len(shapes) == len(families) + 20 * len(families)


def test_grid_memo_holds_one_f(count_calls):
    rng = np.random.default_rng(40)
    F1, F2 = (cx.build_F(inst.povm, inst.observable)
              for inst in (wk.generate_linear_commuting_instance(rng, 3, 4) for _ in range(2)))
    grid1, grid2 = pv.default_grid(F1.g_max).tolist(), pv.default_grid(F2.g_max).tolist()
    solves = count_calls(linalg, "pinv_and_rank")
    first = cx.pseudoinverse_cv(F1, grid1[3])
    cx.pseudoinverse_cv(F1, grid1[7])
    assert solves[0] == 1  # the whole grid in one stack
    off = cx.pseudoinverse_cv(F1, 0.7 * F1.g_max)
    assert solves[0] == 2  # off the grid: one coupling alone, then kept
    assert cx.pseudoinverse_cv(F1, 0.7 * F1.g_max) is off
    assert list(cx._solved(F1)) == [*grid1, 0.7 * F1.g_max]
    cx.pseudoinverse_cv(F2, grid2[3])
    assert solves[0] == 3  # a second F evicts the first, with every coupling it kept
    assert cx._solved.cache_info().currsize == 1
    again = cx.pseudoinverse_cv(F1, grid1[3])
    assert solves[0] == 4  # the first F's grid is solved again, to the same bits
    assert again is not first and again.alpha.tobytes() == first.alpha.tobytes()
    assert cx.pseudoinverse_cv(F1, 0.7 * F1.g_max).alpha.tobytes() == off.alpha.tobytes()
    assert solves[0] == 5


def test_a_bare_f_solves_each_coupling_alone(count_calls):
    F = cx.build_F(qubit_linear(), Z)
    bare = cx.FMatrix(poly=F.poly, a_vec=F.a_vec)
    assert F.g_max == 0.9 and bare.g_max is None
    grid = pv.default_grid(0.9).tolist()[:3]
    singles = [single_solve(F, g).tobytes() for g in grid]
    solves = count_calls(linalg, "pinv_and_rank")
    assert [cx.pseudoinverse_cv(bare, g).alpha.tobytes() for g in grid] == singles
    assert solves[0] == 3  # one per coupling: no g_max, no grid


def test_no_exact_cv_keeps_its_per_coupling_meaning(monkeypatch):
    # F(g) = [[1, 1 + 1e300 g]] overflows past g = 1.8e8: the top five couplings of
    # default_grid(1e9), which runs from 1e6 up.  The stacked solve fails once, and
    # every coupling then solves alone, as it would without the grid.
    F = cx.FMatrix(poly=PolyMatrix([np.array([[1.0, 1.0]]), np.array([[0.0, 1e300]])]),
                   a_vec=[1.0], g_max=1e9)
    grid = pv.default_grid(1e9).tolist()
    shapes = spy_pinv(monkeypatch)
    low = cx.pseudoinverse_cv(F, grid[0]).alpha
    assert shapes == [(20, 1, 2), (1, 2)]  # the failed stack, then the single solve
    assert np.isfinite(low).all()
    assert low.tobytes() == single_solve(F, grid[0]).tobytes()
    for g in grid[1:]:
        if g > 1.8e8:
            with pytest.raises(NoExactCv) as served:
                cx.pseudoinverse_cv(F, g)
            with pytest.raises(NoExactCv) as alone:
                single_solve(F, g)
            assert str(served.value) == str(alone.value) == f"F(g) is not finite at g = {g:.9g}"
        else:
            assert cx.pseudoinverse_cv(F, g).alpha.tobytes() == single_solve(F, g).tobytes()
    assert sum(len(shape) == 3 for shape in shapes) == 1  # attempted once, not once per call
    assert sum(g > 1.8e8 for g in grid) == 5
    assert list(cx._solved(F)) == [g for g in grid if g <= 1.8e8]  # a refusal is not kept


def test_an_infinite_f_is_named_where_the_svd_converges():
    # F(2.4e8) = [[1, inf]]: LAPACK's SVD converges, and alpha is not finite; the cause
    # named is F(g), at its own coupling, not an overflow of the contextual values
    F = cx.FMatrix(poly=PolyMatrix([np.array([[1.0, 1.0]]), np.array([[0.0, 1e300]])]),
                   a_vec=[1.0], g_max=1e9)
    for solve in (lambda: cx.solve_grid(F, [2.4e8]), lambda: cx.pseudoinverse_cv(F, 2.4e8),
                  lambda: cx.solve_grid(F, [1e8, 2.4e8, 3e8])):
        with pytest.raises(NoExactCv) as err:
            solve()
        assert str(err.value) == "F(g) is not finite at g = 240000000"
    sol = cx.solve_grid(F, [1e8])
    assert np.isfinite(sol.alpha).all() and sol.exact


def test_solve_coupling_checks_the_range_then_solves_one_coupling():
    F = cx.build_F(qubit_linear(), Z)
    sol = cx.solve_coupling(F, 0.3)
    ref = cx.solve_grid(F, [0.3])
    assert sol.alpha.tobytes() == ref.alpha.tobytes() and sol.residuals == ref.residuals
    with pytest.raises(OutOfValidityRange) as err:
        cx.solve_coupling(F, 0.95)
    with pytest.raises(OutOfValidityRange) as ref_err:
        pv.check_coupling(0.95, 0.9)
    assert str(err.value) == str(ref_err.value) == "g=0.95 outside validated range (0, 0.9]"


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


def quadratic_tail(c):
    """E+- = (I +- g Z +- c g^2 Z) / 2: order-1 truncation drops only the c g^2 Z tail."""
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2, c * Z / 2]), PolyMatrix([I2 / 2, -Z / 2, -c * Z / 2])),
        g_max=0.5,
    )


@pytest.mark.parametrize("c, gap, match", [(1e-8, 5.0e-9, True), (4e-8, 2.0e-8, False)])
def test_truncated_alphas_match_within_1e_8_relative(c, gap, match):
    # literal bounds on both sides of ALPHA_MATCH_RTOL = 1e-8: alpha = a / (g + c g^2)
    # against a / g, a relative gap of c g / (1 + c g), widest at g_max = 0.5
    rep = cx.truncated_cv_check(quadratic_tail(c), Z, 1, np.geomspace(0.01, 0.5, 12), mode="eq13")
    assert rep.full_solvable and rep.truncated_solvable
    relative = np.linalg.norm(rep.alpha_full - rep.alpha_truncated, axis=1) / np.linalg.norm(
        rep.alpha_full, axis=1
    )
    assert relative.max() == pytest.approx(gap, rel=1e-6)
    assert rep.alphas_match is match


# ------------------------------------------------------------- pole order


def test_pole_order_linear_family():
    F = cx.build_F(qubit_linear(), Z)
    est = ay.pinv_pole_order(F.poly, F.a_vec, wk.limit_grid())
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
    est = ay.pinv_pole_order(F.poly, F.a_vec, wk.limit_grid())
    assert abs(est.exponent - 2.0) < 0.05
    assert est.reliable


# ------------------------------------- stacked coefficient rewrites vs loops
#
# validate, minimum_nonzero_order, spectral_family and _row_sum_residual read
# the family's coefficients as one (n_out, degree + 1, d, d) stack.  The
# oracles below walk the same coefficients outcome by outcome and order by
# order, and every result must agree with them bit for bit.


def _coefficient(e, k):
    """Coefficient k of one outcome, zero above its degree."""
    return e.coefficients[k] if k <= e.max_degree else np.zeros(e.shape, dtype=complex)


def _loop_checks(povm):
    """Hermiticity and completeness failures and residuals, outcome by order."""
    failures, herm = [], 0.0
    for j, e in enumerate(povm.elements):
        for k, c in enumerate(e.coefficients):
            r = float(np.abs(c - c.conj().T).max())
            herm = max(herm, r)
            if r > linalg.HERMITIAN_TOL:
                failures.append(
                    f"coefficient {k} of outcome {j} is not Hermitian (residual {r:.3e})"
                )
    comp = np.zeros(povm.max_degree + 1)
    for k in range(povm.max_degree + 1):
        total = sum(_coefficient(e, k) for e in povm.elements)
        comp[k] = float(np.abs(total - (np.eye(povm.dim) if k == 0 else 0.0)).max())
        if comp[k] > pv.COMPLETENESS_TOL:
            failures.append(f"completeness fails at order {k} (residual {comp[k]:.3e})")
    return failures, herm, comp


def _loop_orders(povm):
    """Smallest order k >= 1 with a nonzero coefficient per outcome, 0 if none."""
    orders = []
    for e in povm.elements:
        ks = [k for k, c in enumerate(e.coefficients) if np.abs(c).max() > 0]
        ks = [k for k in ks if k >= 1]
        orders.append(min(ks) if ks else 0)
    return tuple(orders)


def _loop_spectral(povm, *lead):
    ops = list(lead) + [
        c for e in povm.elements for c in e.coefficients if np.abs(c).max() > 0
    ]
    basis = linalg.common_eigenbasis(ops)
    coeffs = []
    for k in range(povm.max_degree + 1):
        C = linalg.dagger(basis) @ np.stack([_coefficient(e, k) for e in povm.elements]) @ basis
        coeffs.append(np.real(np.diagonal(C, axis1=1, axis2=2)).T)
    return basis, PolyMatrix(coeffs)


def _loop_row_sum(poly):
    worst = 0.0
    for k, c in enumerate(poly.coefficients):
        worst = max(worst, float(np.abs(c.real.sum(axis=1) - (1.0 if k == 0 else 0.0)).max()))
    return worst


def _mixed_degree_family(rng, dim=3):
    """Complete commuting family in a random basis: outcome degrees 0, 2, 1 and 2.

    Outcome 1 has no order-1 term, so its order-2 coefficient orders the
    basis when no lead operator does: (outcome, order) sequence, not
    (order, outcome).
    """
    U = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    rot = lambda v: U @ np.diag(v) @ U.conj().T
    w = rng.random(3) / 4
    b, c = (0.1 * rng.standard_normal(dim) for _ in range(2))
    zero = np.zeros((dim, dim))
    elements = (
        PolyMatrix([rot(np.full(dim, w[0]))]),
        PolyMatrix([rot(np.full(dim, w[1])), zero, rot(c)]),
        PolyMatrix([rot(np.full(dim, w[2])), rot(b)]),
        PolyMatrix([rot(np.full(dim, 1 - w.sum())), rot(-b), rot(-c)]),
    )
    A = rot(rng.standard_normal(dim))
    return ParamPovm(elements=elements, g_max=0.5), A


def _assert_matches_loops(povm, *lead):
    report = pv.validate(povm)
    failures, herm, comp = _loop_checks(povm)
    assert [m for m in report.failures if not m.startswith("outcome ")] == failures
    assert report.hermiticity_residual == herm
    assert report.completeness_residuals.tobytes() == comp.tobytes()

    orders = _loop_orders(povm)
    if 0 in orders:
        constant = [j for j, k in enumerate(orders) if k == 0]
        with pytest.raises(ConstantOutcome) as err:
            minimum_nonzero_order(povm)
        assert str(err.value).startswith(f"outcomes {constant} have no g-dependence")
    elif len(set(orders)) > 1:
        with pytest.raises(NonUniformOrder) as err:
            minimum_nonzero_order(povm)
        assert err.value.per_outcome_orders == orders
    else:
        assert minimum_nonzero_order(povm).per_outcome_orders == orders

    if not failures:
        basis, poly = cx.spectral_family(povm, *lead)
        loop_basis, loop_poly = _loop_spectral(povm, *lead)
        assert basis.tobytes() == loop_basis.tobytes()
        assert len(poly.coefficients) == len(loop_poly.coefficients)
        for c, loop_c in zip(poly.coefficients, loop_poly.coefficients):
            assert c.tobytes() == loop_c.tobytes()
        assert cx._row_sum_residual(poly.coefficients) == _loop_row_sum(poly)
    return report


@pytest.mark.parametrize("seed", range(6))
def test_mixed_degree_family_matches_loops(seed):
    # a degree-0 outcome beside degree-2 ones: the stack zero-pads it
    povm, A = _mixed_degree_family(np.random.default_rng(seed))
    assert [e.max_degree for e in povm.elements] == [0, 2, 1, 2]
    _assert_matches_loops(povm, A)
    _assert_matches_loops(povm)
    F = cx.build_F(povm, A)
    assert F.basis.tobytes() == _loop_spectral(povm, A)[0].tobytes()


def test_broken_family_lists_failures_in_loop_order():
    rng = np.random.default_rng(11)
    povm, _ = _mixed_degree_family(rng)
    coeffs = [list(e.coefficients) for e in povm.elements]
    skew = np.zeros((3, 3))
    skew[0, 2] = 1e-3
    for j, k in [(0, 0), (1, 2), (3, 1), (3, 0)]:
        coeffs[j][k] = coeffs[j][k] + (j + 1) * skew  # not Hermitian
    coeffs[2][1] = coeffs[2][1] + 1e-6 * np.eye(3)  # incomplete at order 1
    coeffs[1][0] = coeffs[1][0] + 1e-9 * np.eye(3)  # and at order 0
    broken = ParamPovm(elements=tuple(PolyMatrix(c) for c in coeffs), g_max=0.5)
    report = _assert_matches_loops(broken)
    assert [m.split(" (")[0] for m in report.failures if not m.startswith("outcome ")] == [
        "coefficient 0 of outcome 0 is not Hermitian",
        "coefficient 2 of outcome 1 is not Hermitian",
        "coefficient 0 of outcome 3 is not Hermitian",
        "coefficient 1 of outcome 3 is not Hermitian",
        "completeness fails at order 0",
        "completeness fails at order 1",
        "completeness fails at order 2",
    ]


def test_dimension_one_many_outcomes_sums_outcomes_in_order():
    # twelve constant 1 x 1 outcomes: numpy's pairwise C.sum(axis=0) rounds
    # the completeness residual differently from adding outcome by outcome
    w = np.random.default_rng(4).random(12)
    w /= w.sum()
    povm = ParamPovm(elements=tuple(PolyMatrix([[[x]]]) for x in w), g_max=0.5)
    C = povm.coefficients
    assert C.shape == (12, 1, 1, 1)
    report = _assert_matches_loops(povm)
    assert report.completeness_residuals[0] != np.abs(C.sum(axis=0) - 1).max()
    # a mixed-degree 1 x 1 family with as many outcomes
    rng = np.random.default_rng(5)
    slopes = 0.1 * rng.standard_normal((11, 2))
    elements = [PolyMatrix([[[x / 2]], [[s]], [[q]]]) for x, (s, q) in zip(w[:11], slopes)]
    elements.append(PolyMatrix([[[1 - w[:11].sum() / 2]], [[-slopes[:, 0].sum()]], [[0.0]]]))
    mixed = ParamPovm(elements=tuple(elements), g_max=0.5)
    _assert_matches_loops(mixed, np.eye(1))


def test_row_sum_residual_matches_loop_on_random_shapes():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rows, cols, degree = rng.integers(1, 7), rng.integers(1, 12), rng.integers(0, 4)
        poly = PolyMatrix(list(rng.standard_normal((degree + 1, rows, cols))))
        assert cx._row_sum_residual(poly.coefficients) == _loop_row_sum(poly)
