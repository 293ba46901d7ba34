from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import contextual as cx
from weaklab import linalg
from weaklab import meter as mt
from weaklab import montecarlo as mc
from weaklab import povm as pv
from weaklab import weak as wk
from weaklab.errors import GenerationFailed
from weaklab.files import load_instance
from weaklab.registry import REGISTRY, get_instance
from weaklab.errors import (
    InvalidState,
    NoExactCv,
    NotPositive,
    OrthogonalPostselection,
    OutOfValidityRange,
    WeakLabError,
)
from weaklab.linalg import commutator_norm
from weaklab.povm import ParamPovm, PolyMatrix

from oracles import (
    check_effect,
    minimum_nonzero_order,
    mixed_weak_value,
    oracle_conditioned_average,
    oracle_conjecture_trial,
    oracle_fit,
    oracle_spectral_weak_limit,
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
        value, prob = wk.conditioned_average(F, alpha, PLUS, psi_f, g)
        npt.assert_allclose(value, conditioned_oracle(theta, g), rtol=1e-11)
        npt.assert_allclose(prob, success_oracle(theta, g), rtol=1e-11)


def test_conditioned_average_frozen_point():
    F = cx.build_F(qubit_linear(), Z)
    alpha = cx.pseudoinverse_cv(F, 0.01).alpha
    value, prob = wk.conditioned_average(F, alpha, PLUS, final_state(np.pi / 8), 0.01)
    npt.assert_allclose(value, 0.41422214140901664, rtol=1e-12)
    npt.assert_allclose(prob, 0.8535357124817800, rtol=1e-12)


def test_conditioned_average_affine_covariance():
    # A -> a A + b I shifts the exact contextual values affinely, and the
    # conditioned average inherits exactly the same map
    povm = qubit_linear()
    g = 0.07
    psi_f = final_state(0.4)
    F = cx.build_F(povm, Z)
    alpha = cx.pseudoinverse_cv(F, g).alpha
    base, _ = wk.conditioned_average(F, alpha, PLUS, psi_f, g)
    for a, b in [(2.0, 0.0), (1.0, 3.0), (-0.7, 0.2)]:
        shifted_F = cx.build_F(povm, a * Z + b * I2)
        shifted = cx.pseudoinverse_cv(shifted_F, g).alpha
        npt.assert_allclose(shifted, a * alpha + b, rtol=1e-9)
        value, _ = wk.conditioned_average(shifted_F, shifted, PLUS, psi_f, g)
        npt.assert_allclose(value, a * base + b, rtol=1e-9)


def test_conditioned_average_phase_invariance():
    F = cx.build_F(qubit_linear(), Z)
    alpha = np.array([3.0, -2.0])
    psi_f = final_state(0.3)
    v1, p1 = wk.conditioned_average(F, alpha, PLUS, psi_f, 0.2)
    v2, p2 = wk.conditioned_average(
        F, alpha, np.exp(1.3j) * PLUS, np.exp(-0.4j) * psi_f, 0.2
    )
    npt.assert_allclose(v1, v2, atol=1e-13)
    npt.assert_allclose(p1, p2, atol=1e-13)


@pytest.mark.parametrize("overlap, refused", [(5e-13, True), (2e-12, False)])
def test_conditioned_average_refuses_a_success_probability_at_most_1e_12(overlap, refused):
    # from (1, 0), the success probability of qubit-linear is |psi_f[0]|^2 at
    # every coupling: literal values on both sides of the tolerance, 1e-12
    F = cx.build_F(qubit_linear(), Z)
    alpha = cx.pseudoinverse_cv(F, 0.1).alpha
    psi_i, psi_f = np.array([1.0, 0.0]), np.array([np.sqrt(overlap), np.sqrt(1 - overlap)])
    if refused:
        with pytest.raises(OrthogonalPostselection):
            wk.conditioned_average(F, alpha, psi_i, psi_f, 0.1)
    else:
        _, success = wk.conditioned_average(F, alpha, psi_i, psi_f, 0.1)
        assert success == pytest.approx(overlap, rel=1e-12)


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
            F, alpha, random_state(rng, 2), random_state(rng, 2), g
        )
        assert alpha.min() - 1e-9 <= value <= alpha.max() + 1e-9
        assert 0.0 <= prob <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "source, rtol",
    # the registry's families are diagonal, so the amplitudes are the per-operator
    # path's bit for bit; a rotated basis rounds each step differently
    [("qubit-linear", 0), ("quad-cx", 0), ("qubit-linear-rotated.json", 1e-12), ("quad-cx-rotated-permuted.json", 1e-12)],
)
def test_conditioned_average_equals_the_per_operator_path(source, rtol):
    spec = load_instance(Path(__file__).parent / "data" / source) if rtol else get_instance(source)
    F = cx.build_F(spec.povm, spec.observable)
    for g in np.linspace(0.05, 1.0, 7) * spec.g_max:
        alpha = cx.pseudoinverse_cv(F, g).alpha
        got = wk.conditioned_average(F, alpha, spec.psi_i, spec.psi_f, g)
        want = oracle_conditioned_average(spec.povm, alpha, spec.psi_i, spec.psi_f, g)
        if rtol:
            npt.assert_allclose(got, want, rtol=rtol)
        else:
            assert got == want


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
        assert minimum_nonzero_order(povm).n == 1
        coeffs = [c for e in povm.elements for c in e.coefficients]
        for i, a in enumerate(coeffs):
            for b in coeffs[i + 1 :]:
                assert commutator_norm(a, b) < 1e-10
        assert abs(np.vdot(inst.psi_f, inst.psi_i)) >= 0.1
        assert povm.g_max >= 1e-3
        F = cx.build_F(povm, inst.observable)
        assert cx.exact_cv_exists(F, wk.limit_grid(povm.g_max))


class UntouchedRng:
    """A stand-in generator that fails the test on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used")


@pytest.mark.parametrize("dim, n_out", [(3, 2), (4, 2), (2, 1000), (2, 2_000_000_000)])
def test_generator_refuses_shapes_no_draw_can_pass(dim, n_out):
    # n_out < dim: F(g) has rank below dim; n_out >= 1000: the smallest
    # Dirichlet weight is at most 1/n_out <= WEIGHT_FLOOR
    with pytest.raises(GenerationFailed):
        wk.generate_linear_commuting_instance(UntouchedRng(), dim, n_out)


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
    """Record (basis, sol, A, psi_i, psi_f, report) of every member of every
    successful _ladders call, in member order."""
    seen = []
    core = wk._ladders

    def spy(bases, sol, A, psi_i, psi_f):
        reports = core(bases, sol, A, psi_i, psi_f)
        seen.extend((bases[m], sol[m], A[m], psi_i[m], psi_f[m], rep) for m, rep in enumerate(reports))
        return reports

    monkeypatch.setattr(wk, "_ladders", spy)
    return seen


def trial_instance(seed, t):
    """generate_linear_commuting_instance on trial t's own stream, as the trial draws it."""
    rng = np.random.default_rng((seed, t))
    return wk.generate_linear_commuting_instance(rng, *wk._trial_shape(rng, None, None))


def per_point(F, povm, psi_i, psi_f, g):
    """The per-operator path: pseudoinverse_cv, then povm.measurement_operators."""
    return oracle_conditioned_average(povm, cx.pseudoinverse_cv(F, g).alpha, psi_i, psi_f, g)


def test_spectral_ladder_equals_per_point_path_on_trials(monkeypatch):
    seen = spy_on_core(monkeypatch)
    wk.conjecture_sweep(7, 100)
    assert len(seen) == 100
    # stacks come by shape, not in trial order: find each trial by its initial state
    by_psi_i = {psi_i.tobytes(): (psi_f, rep) for *_, psi_i, psi_f, rep in seen}
    for t in range(100):
        inst = trial_instance(7, t)
        psi_i = inst.psi_i
        psi_f, rep = by_psi_i.pop(psi_i.tobytes())
        assert inst.psi_f.tobytes() == psi_f.tobytes()
        F = cx.build_F(inst.povm, inst.observable)
        for k, g in enumerate(rep.g_grid):
            value, prob = per_point(F, inst.povm, psi_i, psi_f, g)
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
            # one core: the library's one-coupling average is the ladder's in any basis
            alpha = cx.pseudoinverse_cv(F, g).alpha
            point = wk.conditioned_average(F, alpha, psi_i, psi_f, g)
            assert point == (rep.conditioned_averages[k], rep.success_probabilities[k])
        checked += 1
    assert checked >= 35


KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def weak_limit_error(*args):
    with pytest.raises(WeakLabError) as err:
        wk.weak_limit(*args)
    return type(err.value), str(err.value)


BAD_STATES = {
    "nan": np.array([np.nan, 1.0]),
    "inf": np.array([np.inf, 0.0]),
    "zero": np.zeros(2),
    "norm 1e-13": np.array([1e-13, 0.0]),
    # finite entries whose squared norm overflows: refused, not warned about
    "norm overflows": np.array([1e200, 0.0]),
}


@pytest.mark.parametrize("position", ["psi_i", "psi_f"])
@pytest.mark.parametrize("bad", BAD_STATES, ids=str)
def test_every_state_entry_refuses_a_non_unit_norm(bad, position):
    # one rule: the norm is within UNIT_NORM_TOL of 1; NaN, inf, zero and overflowing norms fail it
    state = BAD_STATES[bad]
    with pytest.raises(InvalidState, match=r"^state vector norm \S+ is not 1$"):
        linalg.check_state(state)
    F = cx.build_F(qubit_linear(), Z)
    alpha = cx.pseudoinverse_cv(F, 0.1).alpha
    meter_model = mt.compose_isometry(mt.positive_family(qubit_linear()), 2, qubit_linear().g_max)
    states = {"psi_i": PLUS, "psi_f": final_state(np.pi / 8), position: state}
    calls = [
        lambda: wk.weak_limit(qubit_linear(), Z, states["psi_i"], states["psi_f"]),
        lambda: wk.conditioned_average(F, alpha, states["psi_i"], states["psi_f"], 0.1),
        lambda: mc.sample_run(F, alpha, states["psi_i"], states["psi_f"], mc.McConfig(10, 0, 0.1)),
        lambda: mt.outcome_probabilities(meter_model, state, 0.1),
    ]
    for call in calls:
        with pytest.raises(InvalidState):
            call()


def test_spectral_core_error_order():
    flat = ParamPovm(elements=(PolyMatrix([I2 / 2]), PolyMatrix([I2 / 2])), g_max=0.9)
    past = np.array([0.05, 0.95])
    # no exact contextual values beats every later failure
    assert weak_limit_error(flat, Z, 2 * KET0, 3 * KET1, past)[0] is NoExactCv
    # then the initial state, then the final state, whose messages name their norms
    assert weak_limit_error(qubit_linear(), Z, 2 * KET0, 3 * KET1, past) == (
        InvalidState, "state vector norm 2.0 is not 1")
    assert weak_limit_error(qubit_linear(), Z, KET0, 3 * KET1, past) == (
        InvalidState, "state vector norm 3.0 is not 1")
    # exact values and unit states, but a coupling past g_max: the range rule comes next
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


def report_fields(rep):
    """Every number of a weak-limit report, as exact bytes, with its fit's."""
    fit = oracle_fit(rep)
    arrays = (
        rep.g_grid, rep.conditioned_averages, rep.success_probabilities,
        fit.coef, fit.domain, fit.window, rep.fit_coefficients,
    )
    floats = (rep.extrapolated_limit, rep.traditional_value, rep.discrepancy)
    return (*(a.tobytes() for a in arrays), *(float(x).hex() for x in floats))


def ladder_outcome(ladder):
    """report_fields of ladder(), or its error, with the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("report", *report_fields(ladder()))
        except WeakLabError as err:
            outcome = ("error", type(err), str(err))
    return outcome, [w.category for w in caught]


def assert_ladder_equals_numpy_fit(povm, A, psi_i, psi_f, grid=None):
    """weak_limit against the per-trial ladder fitted by numpy's Polynomial.fit, bit for bit."""
    F = cx.build_F(povm, A)
    sol = cx.solve_grid(F, wk.limit_grid(povm.g_max) if grid is None else grid)
    lean = ladder_outcome(lambda: wk.weak_limit(povm, A, psi_i, psi_f, grid))
    numpy_fit = ladder_outcome(lambda: oracle_spectral_weak_limit(F.basis, sol, povm.g_max, A, psi_i, psi_f))
    assert lean == numpy_fit
    return lean


# ends one ulp apart: the five smallest couplings coincide, so the fit's
# domain is widened by 1 each way and the rank falls short
ZERO_WIDTH = np.geomspace(0.05, np.nextafter(0.05, 1.0), wk.LIMIT_GRID_POINTS)


@pytest.mark.parametrize(
    "g_max, grid, caught",
    [
        # weak-limit --grid-points 3: the quadratic passes through every point
        (0.9, np.geomspace(0.1 * 2.0 ** (1 - wk.LIMIT_GRID_POINTS), 0.1, 3), []),
        (0.9, ZERO_WIDTH, [np.exceptions.RankWarning]),
        # default ladders topped below 0.1
        (0.003, None, []),
        (0.02, None, []),
        (0.0999, None, []),
    ],
)
def test_lean_fit_equals_polynomial_fit(g_max, grid, caught):
    assert len(set(np.sort(ZERO_WIDTH)[: wk.LIMIT_FIT_POINTS])) == 1
    povm = ParamPovm(elements=qubit_linear().elements, g_max=g_max)
    outcome, warned = assert_ladder_equals_numpy_fit(povm, Z, PLUS, final_state(np.pi / 8), grid)
    assert outcome[0] == "report" and warned == caught


def test_lean_fit_on_trials_with_small_coupling_ranges(monkeypatch):
    seen = spy_on_core(monkeypatch)
    wk.conjecture_sweep(11, 100)
    # a ladder tops at g_max when g_max < 0.1
    small = [(basis, sol, sol.g_grid[0], *rest) for basis, sol, *rest in seen if sol.g_grid[0] < 0.1]
    assert len(small) >= 5
    for *member, rep in small:
        assert report_fields(rep) == report_fields(oracle_spectral_weak_limit(*member))


def test_lean_fit_on_every_registry_instance():
    outcomes = []
    for name in sorted(REGISTRY):
        spec = get_instance(name)
        if spec.povm is None or spec.observable is None:
            continue  # a raw family: no conditioned average
        psi_f = spec.psi_f if spec.psi_f is not None else final_state(np.pi / 8)
        for grid in (None, np.geomspace(1e-3, 0.1, 9)):
            outcomes.append(assert_ladder_equals_numpy_fit(spec.povm, spec.observable, spec.psi_i, psi_f, grid)[0][0])
    # qubit-linear on both grids, quad-cx on the second; flat has no exact values
    assert outcomes.count("report") >= 3 and "error" in outcomes


@pytest.mark.parametrize("name", ["qubit-linear-rotated.json", "quad-cx-rotated-permuted.json"])
def test_lean_fit_on_rotated_instance_files(name):
    spec = load_instance(Path(__file__).parent / "data" / name)
    reports = 0
    for grid in (None, np.geomspace(1e-3, 0.1, 9), np.geomspace(1e-3, 0.05, 3)):
        (kind, *_), _ = assert_ladder_equals_numpy_fit(spec.povm, spec.observable, spec.psi_i, spec.psi_f, grid)
        reports += kind == "report"
    assert reports >= 2


# windows of five couplings on a coarse grid, so repeated points (and short
# ranks) are common; a constant window has zero width
fit_windows = st.one_of(
    st.lists(st.integers(1, 64), min_size=5, max_size=5).map(lambda i: sorted(v / 640 for v in i)),
    st.integers(1, 64).map(lambda i: [i / 640] * 5),
)
fit_rows = st.tuples(fit_windows, st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.lists(fit_rows, min_size=1, max_size=6))
def test_stacked_lstsq_equals_numpy_lstsq_row_by_row(rows):
    x = np.array([window for window, _ in rows])
    y = np.array([values for _, values in rows])
    # Polynomial.fit's scaled least-squares matrix (5 x 3) of each window
    lhs = []
    for window in x:
        lo, hi = (window[0] - 1, window[-1] + 1) if window[0] == window[-1] else (window[0], window[-1])
        off, scl = np.polynomial.polyutils.mapparms((lo, hi), (-1, 1))
        V = np.polynomial.polynomial.polyvander(off + scl * window, 2)
        norms = np.sqrt(np.square(V).sum(axis=0))
        norms[norms == 0] = 1
        lhs.append(V / norms)
    lhs = np.array(lhs)
    rcond = 5 * np.finfo(float).eps
    solutions, ranks = linalg._lstsq_rows(lhs, y, rcond)
    expected = [np.linalg.lstsq(a, b, rcond) for a, b in zip(lhs, y)]
    assert solutions.tobytes() == np.array([e[0] for e in expected]).tobytes()
    assert ranks.tolist() == [e[2] for e in expected]
    # the fit warns once per short-rank row and equals Polynomial.fit row by row
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef, domain, fit_ranks = wk._polyfit_rows(x, y, 2)
    assert [w.category for w in caught] == [np.exceptions.RankWarning] * sum(e[2] != 3 for e in expected)
    assert fit_ranks.tolist() == [e[2] for e in expected]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        fits = [np.polynomial.Polynomial.fit(window, values, 2) for window, values in zip(x, y)]
    assert coef.tobytes() == np.array([f.coef for f in fits]).tobytes()
    assert domain.tobytes() == np.array([f.domain for f in fits]).tobytes()


def test_squared_moduli_equal_the_numpy_scalar_loop():
    rng = np.random.default_rng(5)
    tiny = np.finfo(float).smallest_subnormal
    special = [0, -0.0, complex(0, -0.0), complex(-0.0, 0), tiny, complex(tiny, -3 * tiny), 1e-310 + 2e-311j,
               1e150, -1.2e150j, 1e-150, complex(1e-150, 1e-150), 1e-160 + 1e-161j]
    scales = 10.0 ** rng.uniform(-160, 150, 5000)
    draws = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) * scales
    for z in (np.array(special, dtype=complex), draws.reshape(10, 50, 10)):
        numpy_scalars = np.array([abs(v) ** 2 for v in z.ravel()]).reshape(z.shape)
        assert wk._squared_moduli(z).tobytes() == numpy_scalars.tobytes()
        assert wk._squared_moduli(z).shape == z.shape


class KeyedRng:
    """A generator that remembers the key it was seeded with."""

    def __init__(self, rng, key):
        self.rng = rng
        self.key = key

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_sweep_raises_the_first_failing_trials_error(monkeypatch):
    # seed 3: trials 3 and 5 are 2 x 2, trial 4 is 2 x 5, so trial 5's shape
    # group runs before trial 4's; both get a near-orthogonal postselection
    tilt = {(3, 4): 1e-7, (3, 5): 2e-7}
    real_rng, real_draws = np.random.default_rng, wk._draws
    monkeypatch.setattr(np.random, "default_rng", lambda key: KeyedRng(real_rng(key), key))

    def draws(rng, dim, n_out):
        eps = tilt.get(rng.key)
        for *head, psi_i, psi_f in real_draws(rng, dim, n_out):
            if eps is not None:
                u = psi_f - np.vdot(psi_i, psi_f) * psi_i
                psi_f = np.sqrt(1 - eps**2) * u / np.linalg.norm(u) + eps * psi_i
            yield (*head, psi_i, psi_f)

    monkeypatch.setattr(wk, "_draws", draws)
    assert [wk._trial_shape(real_rng((3, t)), None, None) for t in (3, 4, 5)] == [(2, 2), (2, 5), (2, 2)]
    alone = {}
    for t in tilt:
        with pytest.raises(OrthogonalPostselection) as err:
            wk.conjecture_trial(*t)
        alone[t] = str(err.value)
        # the per-trial ladder with numpy's fit raises the same
        rng = np.random.default_rng(t)
        inst = wk.generate_linear_commuting_instance(rng, *wk._trial_shape(rng, None, None))
        F = cx.build_F(inst.povm, inst.observable)
        sol = cx.solve_grid(F, wk.limit_grid(inst.povm.g_max))
        with pytest.raises(OrthogonalPostselection) as err:
            oracle_spectral_weak_limit(F.basis, sol, inst.povm.g_max, inst.observable, inst.psi_i, inst.psi_f)
        assert str(err.value) == alone[t]
    assert alone[3, 4] != alone[3, 5]
    with pytest.raises(OrthogonalPostselection) as err:
        wk.conjecture_sweep(3, 8)
    assert str(err.value) == alone[3, 4]
    # without trial 4, trial 5 fails first
    del tilt[3, 4]
    with pytest.raises(OrthogonalPostselection) as err:
        wk.conjecture_sweep(3, 8)
    assert str(err.value) == alone[3, 5]


def test_sweep_hot_path_shape(count_calls, monkeypatch):
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
            (np.polynomial.Polynomial, "fit"),
            (np.linalg, "lstsq"),
            (np.linalg, "eigh"),
            (np.linalg, "eigvalsh"),
            (wk, "_ladders"),
            (linalg, "_lstsq_rows"),
        ]
    }
    groups = []  # the (dim, n_out) shapes of each stacked solve
    solve = wk._solve_draws
    monkeypatch.setattr(
        wk, "_solve_draws", lambda draws: groups.append({d[2].shape for d in draws}) or solve(draws)
    )
    wk.conjecture_sweep(7, 10)
    n = {name: c[0] for name, c in counts.items()}
    assert n["psd_sqrt"] == 0
    assert n["eigh"] == 0  # every generated family is diagonal
    assert n["eigvalsh"] == 0  # the weak value needs no effect spectrum
    assert n["convert"] == 0  # no trial reads its fit coefficients
    assert n["fit"] == 0  # the ladder repeats Polynomial.fit's steps itself
    # one stacked least-squares call per ladder stack, none per trial
    assert n["lstsq"] == 0
    assert n["_lstsq_rows"] == n["_ladders"] < 10
    assert n["conditioned_average"] == 0
    assert n["exact_cv_exists"] == 0
    # no draw of this sweep has a near-tie in a, so F is read off every
    # draw, and each round solves every candidate of a shape together
    assert n["build_F"] == 0
    assert n["solve_grid"] == 0
    assert len(groups) >= 1 and all(len(g) == 1 for g in groups)
    # one pinv call per (round, chunk), not one per draw or coupling
    assert n["pinv_and_rank"] == len(groups)


def test_sweep_ladders_each_solve_stack_as_it_comes(count_calls):
    counts = {
        name: count_calls(module, name)
        for module, name in [
            (wk, "_solve_draws"),
            (wk, "_ladders"),
            (cx.GridSolution, "__getitem__"),
            (linalg, "check_state"),
            (pv, "check_coupling"),
        ]
    }
    wk.conjecture_sweep(7, 100)
    n = {name: c[0] for name, c in counts.items()}
    # one ladder stack per solve stack; only the one solve with a refused
    # draw (in round one) takes its exact members out of the stack
    assert n["_solve_draws"] == n["_ladders"] == 10
    assert n["__getitem__"] == 1
    # the draws are checked where they are made: no state or coupling guard runs
    assert n["check_state"] == n["check_coupling"] == 0


def record_fields(r):
    """Every field of a TrialRecord but the instance, floats as their exact hex."""
    floats = (r.g_min, r.extrapolated, r.traditional, r.discrepancy)
    return (r.seed, r.trial, r.dim, r.n_out, *(float(x).hex() for x in floats), r.passed, r.instance is None)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_equals_lone_trial_oracle(seed):
    records = wk.conjecture_sweep(seed, 100)
    assert [record_fields(r) for r in records] == [
        record_fields(oracle_conjecture_trial(seed, t)) for t in range(100)
    ]


def test_sweep_equals_oracle_at_a_fixed_shape():
    records = wk.conjecture_sweep(4, 30, dim=3, n_out=4)
    assert [record_fields(r) for r in records] == [
        record_fields(oracle_conjecture_trial(4, t, dim=3, n_out=4)) for t in range(30)
    ]


def test_sweep_equals_oracle_across_block_edges():
    block = wk._SWEEP_BLOCK
    oracle = [record_fields(oracle_conjecture_trial(2, t)) for t in range(block + 1)]
    for trials in (block - 1, block, block + 1):
        assert [record_fields(r) for r in wk.conjecture_sweep(2, trials)] == oracle[:trials]


def test_sweep_equals_oracle_when_large_shapes_are_chunked(monkeypatch, count_calls):
    pinvs = count_calls(linalg, "pinv_and_rank")
    whole = wk.conjecture_sweep(5, 40)
    unchunked = pinvs[0]
    # a cap of 24 entries splits each shape group into chunks of one draw
    # (dim * n_out >= 13) to six draws (2 x 2)
    monkeypatch.setattr(wk, "_STACK_ENTRIES", 24)
    stacks = []  # (members, dim, n_out) of each _ladders call
    ladders = wk._ladders
    monkeypatch.setattr(
        wk, "_ladders", lambda bases, sol, *rest: stacks.append(sol.F_g.shape[:1] + sol.F_g.shape[2:])
        or ladders(bases, sol, *rest)
    )
    records = wk.conjecture_sweep(5, 40)
    assert pinvs[0] - unchunked > unchunked
    # the ladders keep the solves' chunks
    assert sum(k for k, _, _ in stacks) == 40
    assert all(k <= max(1, 24 // (d * n)) for k, d, n in stacks)
    oracle = [record_fields(oracle_conjecture_trial(5, t)) for t in range(40)]
    assert [record_fields(r) for r in records] == oracle == [record_fields(r) for r in whole]


def test_sweep_keeps_a_draw_just_inside_the_exactness_tolerance():
    # seed 20, trial 5: the first draw's worst residual is 9.926e-10, just
    # under EXACT_CV_TOL, so its F(g) layout decides whether it is accepted
    rng = np.random.default_rng((20, 5))
    draw = next(wk._draws(rng, *wk._trial_shape(rng, None, None)))
    exact, _, sol = wk._solve_draws([draw])
    assert exact.tolist() == [True]
    assert 9.9e-10 < sol.residuals.max() <= cx.EXACT_CV_TOL
    record = wk.conjecture_sweep(20, 6)[5]
    assert record.g_min == 1.6606013560701914e-06
    assert record_fields(record) == record_fields(oracle_conjecture_trial(20, 5))


class TiedRng:
    """A generator whose first draw of a (the first uniform vector) has an exact tie."""

    def __init__(self, rng):
        self.rng = rng
        self.tied = False

    def uniform(self, low, high, size):
        x = self.rng.uniform(low, high, size)
        if isinstance(size, int) and not self.tied:
            x[1], self.tied = x[0], True
        return x

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_near_tie_in_a_takes_F_from_build_F(monkeypatch):
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: TiedRng(real(key)) if key == (3, 2) else real(key))
    oracle = [record_fields(oracle_conjecture_trial(3, t)) for t in range(4)]
    built = []
    build = cx.build_F
    monkeypatch.setattr(wk, "build_F", lambda povm, A: built.append(build(povm, A)) or built[-1])
    records = wk.conjecture_sweep(3, 4)
    assert [record_fields(r) for r in records] == oracle
    # one build_F call, for trial 2's tied draw, whose tie-break permutes rows
    assert len(built) == 1
    a_vec, basis = built[0].a_vec, built[0].basis
    assert len(set(a_vec)) < len(a_vec)
    assert not np.array_equal(basis, np.eye(len(a_vec)))
    # the solve of that draw takes build_F's basis and solves build_F's F
    rng = np.random.default_rng((3, 2))
    draw = next(wk._draws(rng, *wk._trial_shape(rng, None, None)))
    exact, bases, sol = wk._solve_draws([draw])
    assert bases[0].tobytes() == basis.tobytes()
    fresh = cx.solve_grid(built[0], wk.limit_grid(draw[3]))
    assert sol[0].alpha.tobytes() == fresh.alpha.tobytes() and exact[0] == fresh.exact


def test_solve_draws_equals_build_F_and_solve_grid():
    rng = np.random.default_rng(13)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        stream = wk._draws(rng, dim, int(rng.integers(dim, 6)))
        draws = [next(stream) for _ in range(3)]
        exact, bases, sol = wk._solve_draws(draws)
        for m, (a, w, Q, g_max, _, _) in enumerate(draws):
            # F is read off the draw, and is build_F's bit for bit
            F = cx.build_F(wk._povm(w, Q, g_max), np.diag(a))
            fresh = cx.solve_grid(F, wk.limit_grid(g_max))
            for name in ["g_grid", "F_g", "alpha", "residuals", "ranks"]:
                assert getattr(sol[m], name).tobytes() == getattr(fresh, name).tobytes()
            assert exact[m] == fresh.exact
            assert bases[m].tobytes() == F.basis.tobytes()


def test_conjecture_trial_equals_weak_limit_on_its_instance():
    records = wk.conjecture_sweep(7, 100)
    for t, rec in enumerate(records):
        inst = trial_instance(7, t)
        rep = wk.weak_limit(inst.povm, inst.observable, inst.psi_i, inst.psi_f)
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
    for *_, A, psi_i, psi_f, rep in seen:
        oracle = mixed_weak_value(A, projector(psi_i), projector(psi_f))
        assert rep.traditional_value == oracle
