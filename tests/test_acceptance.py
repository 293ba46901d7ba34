"""Acceptance suite: one test per headline requirement.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Every test pins its tolerance and asserts its own wall-clock
budget, so a pass here certifies both the numbers and the cost.
"""

from __future__ import annotations

import time

import numpy as np
import numpy.testing as npt

from weaklab.asymptotics import (
    pinv_pole_order,
    proof_claim_check,
    svd_curve,
    truncation_svd_commutator,
)
from weaklab.contextual import (
    build_F,
    exact_cv_exists,
    pseudoinverse_cv,
    truncated_cv_check,
    truncation_grid,
)
from weaklab.linalg import pinv_and_rank
from weaklab.meter import (
    compose_isometry,
    meter_expectation,
    outcome_probabilities,
    positive_family,
)
from weaklab.montecarlo import McConfig, sample_run
from weaklab.registry import get_instance
from weaklab.weak import (
    conditioned_average,
    conjecture_trial,
    limit_grid,
    weak_limit,
)

from oracles import cv_residual, minimum_nonzero_order


def test_flagship_singular_values_match_closed_form_and_det():
    # sigma_pm(g) = sqrt(g^2 + 2 +- 2 sqrt(g^2 + 1)); the minus branch is
    # evaluated as g^2 / sigma_plus, algebraically identical because
    # (g^2 + 2)^2 - 4 (g^2 + 1) = g^4, and immune to the cancellation that
    # would otherwise eat nine digits at g = 0.01.
    t0 = time.perf_counter()
    fam = get_instance("eq70").fmatrix
    for g in (0.1, 0.01):
        s_plus = np.sqrt(g * g + 2 + 2 * np.sqrt(g * g + 1))
        s_minus = g * g / s_plus
        sig = np.linalg.svd(fam(g), compute_uv=False)
        npt.assert_allclose(sig, [s_plus, s_minus], rtol=1e-9)
        assert abs(np.linalg.det(fam(g)) - g * g) < 1e-14
    assert time.perf_counter() - t0 < 1.0


def test_flagship_pole_orders_for_both_probes():
    t0 = time.perf_counter()
    fam = get_instance("eq70").fmatrix
    grid = limit_grid()
    est_sym = pinv_pole_order(fam, np.array([1.0, 1.0]), grid)
    est_alt = pinv_pole_order(fam, np.array([1.0, -1.0]), grid)
    assert abs(est_sym.exponent - 2.0) <= 0.05
    assert abs(est_alt.exponent - 1.0) <= 0.05
    assert est_sym.reliable and est_alt.reliable
    assert time.perf_counter() - t0 < 1.0


def test_flagship_refutes_first_order_claim():
    t0 = time.perf_counter()
    fam = get_instance("eq70").fmatrix
    rep = proof_claim_check(fam)
    assert rep.counterexample_found is True
    assert rep.claim_holds is False
    assert rep.zero_trajectories == []
    assert time.perf_counter() - t0 < 1.0


def test_truncation_does_not_commute_with_singular_values():
    t0 = time.perf_counter()
    fam = get_instance("eq70").fmatrix
    rep = truncation_svd_commutator(fam, 1)
    assert rep.commute is False
    # expanding the singular values first and truncating gives (2, 0):
    # the smaller trajectory is invisible at first order
    npt.assert_allclose(rep.right_series[0], [2.0, 0.0], atol=1e-6)
    npt.assert_allclose(rep.right_series[1], [0.0, 0.0], atol=1e-6)
    # truncating the family first leaves it unchanged (it is linear), and
    # its second singular value is strictly positive at every coupling
    assert np.all(rep.left[:, 1] > 0)
    assert time.perf_counter() - t0 < 1.0


def test_weak_limit_recovers_traditional_value():
    t0 = time.perf_counter()
    spec = get_instance("qubit-linear")
    rep = weak_limit(
        spec.povm, spec.observable, spec.psi_i, spec.psi_f, limit_grid(0.1)
    )
    target = np.sqrt(2.0) - 1.0
    assert abs(rep.extrapolated_limit - target) <= 1e-4
    assert abs(rep.traditional_value - target) <= 1e-12
    # the raw conditioned average is already this close at g = 0.01
    F = build_F(spec.povm, spec.observable)
    alpha = pseudoinverse_cv(F, 0.01).alpha
    raw, _ = conditioned_average(F, alpha, spec.psi_i, spec.psi_f, 0.01)
    assert abs(raw - rep.extrapolated_limit) <= 2e-4
    assert time.perf_counter() - t0 < 1.0


def test_conjecture_sweep_hundred_random_families_converge():
    t0 = time.perf_counter()
    records = [conjecture_trial(7, trial=t) for t in range(100)]
    failures = [r for r in records if not r.passed]
    assert failures == []
    assert max(r.discrepancy for r in records) <= 1e-3
    for r in records:
        assert 2 <= r.dim <= 4
        assert r.n_out <= 5
        # the ladder bottoms out at min(0.1, g_max) * 2**-12, so every
        # trial probes couplings at least as small as 2.45e-5
        assert 0.0 < r.g_min <= 0.1 * 2.0**-12 * (1 + 1e-12)
    assert time.perf_counter() - t0 < 30.0


def test_quadratic_instance_solvable_only_before_truncation():
    t0 = time.perf_counter()
    spec = get_instance("quad-cx")
    assert minimum_nonzero_order(spec.povm).n == 2
    rep = truncated_cv_check(spec.povm, spec.observable, 1, truncation_grid(0.5))
    assert rep.full_residuals.max() <= 1e-10
    assert rep.truncated_residuals.min() >= 0.1
    assert not rep.truncated_solvable
    assert time.perf_counter() - t0 < 2.0


def test_pseudoinverse_satisfies_penrose_identities_at_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(1000):
        m, n = rng.integers(1, 7, size=2)
        if i % 3 == 0:
            r = int(rng.integers(0, min(m, n) + 1))
            left = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            right = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            M = left @ right if r else np.zeros((m, n), dtype=complex)
        else:
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        P = pinv_and_rank(M)[0]
        worst = max(
            worst,
            np.abs(M @ P @ M - M).max(),
            np.abs(P @ M @ P - P).max(),
            np.abs((M @ P).conj().T - M @ P).max(),
            np.abs((P @ M).conj().T - P @ M).max(),
        )
    assert worst <= 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_monte_carlo_matches_analytic_and_reproduces():
    t0 = time.perf_counter()
    spec = get_instance("qubit-linear")
    F = build_F(spec.povm, spec.observable)
    alpha = pseudoinverse_cv(F, 0.1).alpha
    config = McConfig(trials=1_000_000, seed=1, g=0.1)
    res = sample_run(F, alpha, spec.psi_i, spec.psi_f, config)
    analytic, _ = conditioned_average(F, alpha, spec.psi_i, spec.psi_f, 0.1)
    assert abs(res.empirical_value - analytic) <= 3.0 * res.stderr
    again = sample_run(F, alpha, spec.psi_i, spec.psi_f, config)
    assert again.empirical_value == res.empirical_value
    assert again.stderr == res.stderr
    assert again.successes == res.successes
    npt.assert_array_equal(again.per_outcome_draws, res.per_outcome_draws)
    npt.assert_array_equal(again.per_outcome_counts, res.per_outcome_counts)
    assert time.perf_counter() - t0 < 10.0


def test_meter_dilation_reproduces_probabilities_and_averages():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    from weaklab.weak import generate_linear_commuting_instance

    for _ in range(100):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(dim + 1, 6))
        inst = generate_linear_commuting_instance(rng, dim, n_out)
        povm = inst.povm
        F = build_F(povm, inst.observable)

        def alpha_fn(j: int):
            return lambda g: float(pseudoinverse_cv(F, g).alpha[j])

        model = compose_isometry(
            positive_family(povm),
            povm.n_out,
            povm.g_max,
            meter_eigenvalues=[alpha_fn(j) for j in range(povm.n_out)],
        )
        g = 0.7 * povm.g_max
        p = outcome_probabilities(model, inst.psi_i, g)
        direct = np.array(
            [
                np.real(np.vdot(inst.psi_i, e(g) @ inst.psi_i))
                for e in povm.elements
            ]
        )
        npt.assert_allclose(p, direct, atol=1e-12)
        pointer = meter_expectation(model, inst.psi_i, g)
        expected = float(np.real(np.vdot(inst.psi_i, inst.observable @ inst.psi_i)))
        assert abs(pointer - expected) <= 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_flat_family_has_no_exact_contextual_values():
    t0 = time.perf_counter()
    spec = get_instance("flat")
    F = build_F(spec.povm, spec.observable)
    grid = np.geomspace(1e-3, spec.povm.g_max, 12)
    assert exact_cv_exists(F, grid) is False
    sol = pseudoinverse_cv(F, 0.3)
    npt.assert_allclose(sol.alpha, [0.0, 0.0], atol=1e-12)
    assert abs(cv_residual(sol) - np.sqrt(2.0)) <= 1e-12
    assert time.perf_counter() - t0 < 1.0
