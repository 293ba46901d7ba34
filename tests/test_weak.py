from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import contextual as cx
from weaklab import linalg
from weaklab import meter as mt
from weaklab import povm as pv
from weaklab import weak as wk
from weaklab.registry import get_instance
from weaklab.errors import (
    NoExactCv,
    NotPositive,
    OrthogonalPostselection,
    OutOfValidityRange,
)
from weaklab.linalg import commutator_norm
from weaklab.povm import ParamPovm, PolyMatrix

from oracles import (
    check_effect,
    mixed_weak_value,
    projector,
    traditional_weak_value,
    weak_coupling_check,
)

I2 = np.eye(2)
Z = np.diag([1.0, -1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def qubit_linear():
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.9,
    )


def final_state(theta):
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def conditioned_oracle(theta, g):
    """Fully independent closed form for the qubit family with alpha = +-1/g.

    With psi_i = +, psi_f = (cos t, sin t) and M_+- = diag of
    sqrt((1 +- g)/2), sqrt((1 -+ g)/2), the postselection weights are
    P_+- = (1 +- g cos 2t + sin 2t sqrt(1-g^2))/4, so the average
    (P_+ - P_-)/(g (P_+ + P_-)) collapses to the expression below.
    """
    return np.cos(2 * theta) / (1 + np.sin(2 * theta) * np.sqrt(1 - g * g))


def success_oracle(theta, g):
    return (1 + np.sin(2 * theta) * np.sqrt(1 - g * g)) / 2


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# ----------------------------------------------------------- weak values


def test_traditional_weak_value_qubit_closed_form():
    # for A = Z the weak value is tan(pi/4 - theta)
    for theta in [np.pi / 8, 0.3, 1.2, 0.74 * np.pi]:
        wv, re = traditional_weak_value(Z, PLUS, final_state(theta))
        npt.assert_allclose(re, np.tan(np.pi / 4 - theta), atol=1e-12)
        npt.assert_allclose(wv.imag, 0.0, atol=1e-12)


def test_traditional_weak_value_frozen_values():
    _, re = traditional_weak_value(Z, PLUS, final_state(np.pi / 8))
    npt.assert_allclose(re, np.sqrt(2) - 1, atol=1e-14)
    npt.assert_allclose(re, 0.41421356237309503, atol=1e-15)
    # far past orthogonality the value is anomalously large and negative
    _, re = traditional_weak_value(Z, PLUS, final_state(0.74 * np.pi))
    npt.assert_allclose(re, -31.820515953773974, atol=1e-9)


def test_traditional_weak_value_orthogonal_raises():
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    with pytest.raises(OrthogonalPostselection):
        traditional_weak_value(Z, PLUS, minus)


def test_mixed_matches_traditional_on_pure_states():
    rng = np.random.default_rng(47)
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        A = (H + H.conj().T) / 2
        psi_i = random_state(rng, d)
        psi_f = random_state(rng, d)
        if abs(np.vdot(psi_f, psi_i)) < 1e-3:
            continue
        _, re = traditional_weak_value(A, psi_i, psi_f)
        mixed = mixed_weak_value(A, projector(psi_i), projector(psi_f))
        npt.assert_allclose(mixed, re, rtol=1e-9, atol=1e-9)
        checked += 1
    assert checked > 900


def test_mixed_weak_value_maximally_mixed():
    rng = np.random.default_rng(8)
    A = np.diag([2.0, -1.0, 0.5])
    v = random_state(rng, 3)
    got = mixed_weak_value(A, np.eye(3) / 3, projector(v))
    npt.assert_allclose(got, np.vdot(v, A @ v).real, atol=1e-12)


def test_check_effect_bounds():
    check_effect(np.diag([0.0, 1.0]))
    with pytest.raises(NotPositive):
        check_effect(np.diag([1.5, 0.5]))
    with pytest.raises(NotPositive):
        check_effect(np.diag([-0.1, 0.5]))


# ---------------------------------------------------- conditioned average


def test_conditioned_average_matches_oracle():
    povm = qubit_linear()
    F = cx.build_F(povm, Z)
    theta = np.pi / 8
    psi_f = final_state(theta)
    for g in [0.5, 0.1, 0.05, 0.01]:
        alpha = cx.pseudoinverse_cv(F, g).alpha
        value, prob = wk.conditioned_average(povm, alpha, PLUS, psi_f, g)
        npt.assert_allclose(value, conditioned_oracle(theta, g), rtol=1e-11)
        npt.assert_allclose(prob, success_oracle(theta, g), rtol=1e-11)


def test_conditioned_average_frozen_point():
    povm = qubit_linear()
    alpha = cx.pseudoinverse_cv(cx.build_F(povm, Z), 0.01).alpha
    value, prob = wk.conditioned_average(povm, alpha, PLUS, final_state(np.pi / 8), 0.01)
    npt.assert_allclose(value, 0.41422214140901664, rtol=1e-12)
    npt.assert_allclose(prob, 0.8535357124817800, rtol=1e-12)


def test_conditioned_average_affine_covariance():
    # A -> a A + b I shifts the exact contextual values affinely, and the
    # conditioned average inherits exactly the same map
    povm = qubit_linear()
    g = 0.07
    psi_f = final_state(0.4)
    alpha = cx.pseudoinverse_cv(cx.build_F(povm, Z), g).alpha
    base, _ = wk.conditioned_average(povm, alpha, PLUS, psi_f, g)
    for a, b in [(2.0, 0.0), (1.0, 3.0), (-0.7, 0.2)]:
        shifted = cx.pseudoinverse_cv(cx.build_F(povm, a * Z + b * I2), g).alpha
        npt.assert_allclose(shifted, a * alpha + b, rtol=1e-9)
        value, _ = wk.conditioned_average(povm, shifted, PLUS, psi_f, g)
        npt.assert_allclose(value, a * base + b, rtol=1e-9)


def test_conditioned_average_phase_invariance():
    povm = qubit_linear()
    alpha = np.array([3.0, -2.0])
    psi_f = final_state(0.3)
    v1, p1 = wk.conditioned_average(povm, alpha, PLUS, psi_f, 0.2)
    v2, p2 = wk.conditioned_average(
        povm, alpha, np.exp(1.3j) * PLUS, np.exp(-0.4j) * psi_f, 0.2
    )
    npt.assert_allclose(v1, v2, atol=1e-13)
    npt.assert_allclose(p1, p2, atol=1e-13)


def test_conditioned_average_is_convex_combination():
    # at fixed g the average lies between min(alpha) and max(alpha);
    # anomalous values only appear through the g -> 0 blow-up of alpha
    povm = qubit_linear()
    F = cx.build_F(povm, Z)
    rng = np.random.default_rng(71)
    for _ in range(50):
        g = float(rng.uniform(0.01, 0.9))
        alpha = cx.pseudoinverse_cv(F, g).alpha
        value, prob = wk.conditioned_average(
            povm, alpha, random_state(rng, 2), random_state(rng, 2), g
        )
        assert alpha.min() - 1e-9 <= value <= alpha.max() + 1e-9
        assert 0.0 <= prob <= 1.0 + 1e-12


# -------------------------------------------------------------- weak limit


def test_limit_grid_is_a_halving_ladder():
    grid = wk.limit_grid(0.1)
    assert len(grid) == 13
    npt.assert_allclose(grid.max(), 0.1)
    npt.assert_allclose(grid.min(), 0.1 * 2.0**-12)
    ratios = np.sort(grid)[1:] / np.sort(grid)[:-1]
    npt.assert_allclose(ratios, 2.0, atol=1e-12)


@pytest.mark.parametrize("g_max", [0.02, 0.1, 0.5, 7])
def test_limit_grid_tops_out_at_the_smaller_of_its_top_and_g_max(g_max):
    ladder = min(0.1, g_max) * 2.0 ** -np.arange(13, dtype=float)
    assert wk.limit_grid(g_max).tobytes() == ladder.tobytes()
    assert wk.limit_grid().tobytes() == wk.limit_grid(0.1).tobytes()


def test_weak_limit_checks_the_coupling_range_once(count_calls):
    checks = count_calls(pv, "check_coupling")
    wk.weak_limit(qubit_linear(), Z, PLUS, final_state(np.pi / 8))
    assert checks[0] == 1


def test_weak_limit_recovers_traditional_value():
    rep = wk.weak_limit(qubit_linear(), Z, PLUS, final_state(np.pi / 8))
    npt.assert_allclose(rep.traditional_value, np.sqrt(2) - 1, atol=1e-12)
    assert rep.discrepancy < 1e-9
    npt.assert_allclose(rep.extrapolated_limit, np.sqrt(2) - 1, atol=1e-9)
    # the raw average at the top of the ladder is already close
    npt.assert_allclose(rep.conditioned_averages, conditioned_oracle(np.pi / 8, rep.g_grid), rtol=1e-10)


def test_weak_limit_quadratic_fit_coefficients():
    # the oracle expands as L + (L/ (1+s)) s g^2 / 2 + ...: no linear term
    rep = wk.weak_limit(qubit_linear(), Z, PLUS, final_state(np.pi / 8))
    assert abs(rep.fit_coefficients[1]) < 1e-5
    assert rep.fit_coefficients[2] > 0.05


def test_weak_limit_anomalous_angle():
    theta = 0.74 * np.pi
    rep = wk.weak_limit(qubit_linear(), Z, PLUS, final_state(theta))
    npt.assert_allclose(rep.traditional_value, np.tan(np.pi / 4 - theta), rtol=1e-9)
    assert rep.discrepancy < 1e-4 * abs(rep.traditional_value)


def test_weak_limit_respects_custom_grid():
    grid = np.geomspace(1e-4, 0.05, 9)
    rep = wk.weak_limit(qubit_linear(), Z, PLUS, final_state(np.pi / 8), grid)
    assert len(rep.g_grid) == 9
    assert rep.discrepancy < 1e-8


def test_weak_limit_requires_exact_cvs():
    flat = ParamPovm(elements=(PolyMatrix([I2 / 2]), PolyMatrix([I2 / 2])), g_max=0.9)
    with pytest.raises(NoExactCv):
        wk.weak_limit(flat, Z, PLUS, final_state(np.pi / 8))


# ------------------------------------------------------ conjecture harness


def test_generated_instances_are_valid():
    for seed, (dim, n_out) in zip(range(12), 4 * [(2, 3), (3, 4), (4, 5)]):
        rng = np.random.default_rng(seed)
        inst = wk.generate_linear_commuting_instance(rng, dim, n_out)
        povm = inst.povm
        assert povm.dim == dim and povm.n_out == n_out
        assert povm.max_degree == 1
        assert pv.validate(povm).passed
        assert pv.minimum_nonzero_order(povm).n == 1
        coeffs = [c for e in povm.elements for c in e.coefficients]
        for i, a in enumerate(coeffs):
            for b in coeffs[i + 1 :]:
                assert commutator_norm(a, b) < 1e-10
        assert abs(np.vdot(inst.psi_f, inst.psi_i)) >= 0.1
        assert povm.g_max >= 1e-3
        F = cx.build_F(povm, inst.observable)
        assert cx.exact_cv_exists(F, wk.limit_grid(povm.g_max))


def test_generated_instance_weak_coupling_structure():
    # the zeroth order is uninformative, so system and meter stay in a
    # product state at g = 0
    rng = np.random.default_rng(3)
    inst = wk.generate_linear_commuting_instance(rng, 3, 4)
    ops = mt.positive_family(inst.povm)
    model = mt.compose_isometry(ops, 4, inst.povm.g_max)
    ok, gap = weak_coupling_check(model, inst.psi_i)
    assert ok
    assert gap < 1e-10


def test_conjecture_trial_is_deterministic():
    r1 = wk.conjecture_trial(7, trial=3)
    r2 = wk.conjecture_trial(7, trial=3)
    assert r1.seed == (7, 3)
    assert r1.dim == r2.dim and r1.n_out == r2.n_out
    assert r1.discrepancy == r2.discrepancy
    assert r1.extrapolated == r2.extrapolated
    assert r1.passed
    assert r1.instance is None  # instances only ride along on failures


def test_conjecture_trial_respects_fixed_dims():
    rec = wk.conjecture_trial(11, trial=0, dim=2, n_out=4)
    assert rec.dim == 2 and rec.n_out == 4
    assert rec.passed


def test_conjecture_sweep_small():
    records = wk.conjecture_sweep(seed=3, trials=10)
    assert len(records) == 10
    assert [r.trial for r in records] == list(range(10))
    assert all(r.passed for r in records)
    assert max(r.discrepancy for r in records) <= 1e-3
    again = wk.conjecture_sweep(seed=3, trials=10)
    npt.assert_array_equal(
        [r.discrepancy for r in records], [r.discrepancy for r in again]
    )


# ------------------------------------------------------- spectral core


def spy_on_core(monkeypatch):
    """Record (F, povm, A, psi_i, psi_f, report) of every _spectral_weak_limit call."""
    seen = []
    core = wk._spectral_weak_limit

    def spy(F, sol, povm, A, psi_i, psi_f):
        report = core(F, sol, povm, A, psi_i, psi_f)
        seen.append((F, povm, A, psi_i, psi_f, report))
        return report

    monkeypatch.setattr(wk, "_spectral_weak_limit", spy)
    return seen


def per_point(F, povm, psi_i, psi_f, g):
    """The general path: pseudoinverse_cv, then psd_sqrt measurement operators."""
    return wk.conditioned_average(povm, cx.pseudoinverse_cv(F, g).alpha, psi_i, psi_f, g)


def test_spectral_ladder_equals_per_point_path_on_trials(monkeypatch):
    seen = spy_on_core(monkeypatch)
    for t in range(100):
        wk.conjecture_trial(7, t)
    assert len(seen) == 100
    for F, povm, _, psi_i, psi_f, rep in seen:
        for k, g in enumerate(rep.g_grid):
            value, prob = per_point(F, povm, psi_i, psi_f, g)
            assert rep.conditioned_averages[k] == value
            assert rep.success_probabilities[k] == prob


def rotated(inst, U, perm):
    """The instance conjugated by U, with its outcomes reordered by perm."""
    rot = lambda M: U @ M @ U.conj().T
    elements = tuple(
        PolyMatrix([rot(c) for c in inst.povm.elements[j].coefficients]) for j in perm
    )
    povm = ParamPovm(elements=elements, g_max=inst.povm.g_max)
    return povm, rot(inst.observable), U @ inst.psi_i, U @ inst.psi_f


def test_spectral_ladder_agrees_in_rotated_bases():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(dim, 6))
        inst = wk.generate_linear_commuting_instance(rng, dim, n_out)
        M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(M)
        U = q * (np.diag(r) / np.abs(np.diag(r)))
        povm, A, psi_i, psi_f = rotated(inst, U, rng.permutation(n_out))
        try:
            rep = wk.weak_limit(povm, A, psi_i, psi_f)
        except NoExactCv:
            continue  # the absolute exactness test is basis-dependent
        F = cx.build_F(povm, A)
        for k, g in enumerate(rep.g_grid):
            value, prob = per_point(F, povm, psi_i, psi_f, g)
            npt.assert_allclose(rep.conditioned_averages[k], value, rtol=1e-7)
            npt.assert_allclose(rep.success_probabilities[k], prob, rtol=1e-7)
        checked += 1
    assert checked >= 35


KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def test_spectral_core_error_order():
    flat = ParamPovm(elements=(PolyMatrix([I2 / 2]), PolyMatrix([I2 / 2])), g_max=0.9)
    past = np.array([0.05, 0.95])
    # no exact contextual values beats every later failure
    with pytest.raises(NoExactCv):
        wk.weak_limit(flat, Z, KET0, KET1, past)
    # exact values, but a coupling past g_max: the range rule comes next
    with pytest.raises(OutOfValidityRange):
        wk.weak_limit(qubit_linear(), Z, KET0, KET1, past)
    # orthogonal states on a valid grid
    with pytest.raises(OrthogonalPostselection) as err:
        wk.weak_limit(qubit_linear(), Z, KET0, KET1)
    with pytest.raises(OrthogonalPostselection) as point:
        per_point(cx.build_F(qubit_linear(), Z), qubit_linear(), KET0, KET1, 0.1)
    assert str(err.value) == str(point.value)


def test_spectral_core_positivity_follows_psd_sqrt():
    # (I - g Z)/2 has eigenvalue (1 - g)/2 < 0 past g = 1; declare a range
    # that includes it so only positivity can fail
    wide = ParamPovm(elements=qubit_linear().elements, g_max=2.0)
    F = cx.build_F(wide, Z)
    # a relative -1e-13 is clamped to zero, as psd_sqrt does
    edge = 1.0 + 2e-13
    rep = wk.weak_limit(wide, Z, PLUS, final_state(0.3), np.array([0.05, 0.1, edge]))
    value, prob = per_point(F, wide, PLUS, final_state(0.3), edge)
    assert rep.conditioned_averages[-1] == value and rep.success_probabilities[-1] == prob
    with pytest.raises(NotPositive) as err:
        wk.weak_limit(wide, Z, KET0, KET1, np.array([0.05, 0.1, 1.2]))
    with pytest.raises(NotPositive) as point:
        per_point(F, wide, KET0, KET1, 1.2)
    assert str(err.value) == str(point.value)


def test_fit_coefficients_are_the_converted_fit_computed_once(monkeypatch):
    seen = spy_on_core(monkeypatch)
    for t in range(20):
        wk.conjecture_trial(7, t)
    reports = [rep for *_, rep in seen]
    reports.append(wk.weak_limit(qubit_linear(), Z, PLUS, final_state(0.3926990817)))
    for rep in reports:
        order = np.argsort(rep.g_grid)[: wk.LIMIT_FIT_POINTS]
        fit = np.polynomial.Polynomial.fit(rep.g_grid[order], rep.conditioned_averages[order], 2)
        npt.assert_array_equal(rep.fit_coefficients, fit.convert().coef)
        assert rep.fit_coefficients is rep.fit_coefficients


def test_sweep_hot_path_shape(count_calls):
    counts = {
        name: count_calls(module, name)
        for module, name in [
            (linalg, "psd_sqrt"),
            (linalg, "pinv_and_rank"),
            (wk, "conditioned_average"),
            (cx, "build_F"),
            (cx, "exact_cv_exists"),
            (cx, "solve_grid"),
            (np.polynomial.Polynomial, "convert"),
            (np.linalg, "eigh"),
            (np.linalg, "eigvalsh"),
        ]
    }
    wk.conjecture_sweep(7, 10)
    n = {name: c[0] for name, c in counts.items()}
    assert n["psd_sqrt"] == 0
    assert n["eigh"] == 0  # every generated family is diagonal
    assert n["eigvalsh"] == 0  # the weak value needs no effect spectrum
    assert n["convert"] == 0  # no trial reads its fit coefficients
    assert n["conditioned_average"] == 0
    assert n["exact_cv_exists"] == 0
    # one F and one stacked solve per draw that reaches the exactness check;
    # the ladder reuses the generator's solution
    assert n["build_F"] >= 10
    assert n["solve_grid"] == n["build_F"]
    # one pinv call per stacked solve, not one per coupling
    assert n["pinv_and_rank"] == n["solve_grid"]


def test_generated_instance_keeps_its_grid_solution():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        inst = wk.generate_linear_commuting_instance(rng, dim, int(rng.integers(dim, 6)))
        fresh = cx.solve_grid(inst.F, wk.limit_grid(inst.povm.g_max))
        for name in ["g_grid", "F_g", "alpha", "residuals", "ranks"]:
            assert getattr(inst.sol, name).tobytes() == getattr(fresh, name).tobytes()
        assert inst.sol.exact


def test_conjecture_trial_equals_weak_limit_on_its_instance(monkeypatch):
    seen = spy_on_core(monkeypatch)
    records = [wk.conjecture_trial(7, t) for t in range(100)]
    cases = [(povm, A, psi_i, psi_f) for _, povm, A, psi_i, psi_f, _ in seen]
    for rec, (povm, A, psi_i, psi_f) in zip(records, cases, strict=True):
        rep = wk.weak_limit(povm, A, psi_i, psi_f)
        assert rec.extrapolated == rep.extrapolated_limit
        assert rec.traditional == rep.traditional_value
        assert rec.discrepancy == rep.discrepancy
        assert rec.g_min == rep.g_grid.min()


def test_traditional_value_equals_the_mixed_weak_value_oracle(monkeypatch):
    seen = spy_on_core(monkeypatch)
    for t in range(100):
        wk.conjecture_trial(7, t)
    # quad-cx is exact only down to g ~ 1e-3, above its default ladder's bottom
    for name, grid in [("qubit-linear", None), ("quad-cx", np.geomspace(1e-3, 0.1, 9))]:
        spec = get_instance(name)
        wk.weak_limit(spec.povm, spec.observable, spec.psi_i, spec.psi_f, grid)
    assert len(seen) == 102
    for _, _, A, psi_i, psi_f, rep in seen:
        oracle = mixed_weak_value(A, projector(psi_i), projector(psi_f))
        assert rep.traditional_value == oracle
