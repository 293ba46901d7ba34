from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import asymptotics as ay
from weaklab import cli
from weaklab import contextual as cx
from weaklab import linalg
from weaklab import povm as pv
from weaklab import weak as wk
from weaklab.errors import NotLinear, NotPositiveSamples
from weaklab.povm import ParamPovm, PolyMatrix
from weaklab.registry import REGISTRY, get_instance


def eq70_family():
    """Linear 2x2 family [[1+g, 1], [-1, -1+g]] with determinant g^2."""
    return PolyMatrix([np.array([[1.0, 1.0], [-1.0, -1.0]]), np.eye(2)])


def registry_family(name):
    """(F, povm) of a registry instance: F raw or from build_F, povm None if raw."""
    spec = get_instance(name)
    if spec.fmatrix is not None:
        return spec.fmatrix, None
    return cx.build_F(spec.povm, spec.observable).poly, spec.povm


def grid_families():
    """(F, povm) for every registry instance, then 30 raw real families of any
    shape and degree 0-2 and 30 rotated linear commuting measurements."""
    families = [registry_family(name) for name in REGISTRY]
    rng = np.random.default_rng(67)
    for _ in range(30):
        rows, cols, degree = rng.integers(1, 5), rng.integers(1, 6), rng.integers(0, 3)
        coeffs = [rng.standard_normal((rows, cols)) for _ in range(degree + 1)]
        families.append((PolyMatrix(coeffs), None))
    for _ in range(30):
        d = int(rng.integers(2, 5))
        inst = wk.generate_linear_commuting_instance(rng, d, int(rng.integers(d, 6)))
        U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rotated = tuple(
            PolyMatrix([U @ c @ U.conj().T for c in e.coefficients]) for e in inst.povm.elements
        )
        poly = cx.build_F(inst.povm, inst.observable).poly
        families.append((poly, ParamPovm(elements=rotated, g_max=inst.povm.g_max)))
    return families


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
        est = ay.leading_order_fit(g, 4.2 * g**p)
        npt.assert_allclose(est.exponent, p, atol=1e-10)
        npt.assert_allclose(est.coefficient, 4.2, rtol=1e-8)
        assert est.reliable


def test_leading_order_fit_rejects_nonpositive():
    g = np.geomspace(1e-3, 1e-1, 8)
    with pytest.raises(NotPositiveSamples):
        ay.leading_order_fit(g, np.zeros_like(g))


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
    grid = np.sort(wk.limit_grid())
    sig = ay.svd_curve(F, grid)
    assert sig.shape == (13, 2)
    assert np.all(sig[:, 0] >= sig[:, 1])
    big, small = eq70_singulars(grid)
    npt.assert_allclose(sig[:, 0], big, rtol=1e-10)
    npt.assert_allclose(sig[:, 1], small, rtol=1e-6, atol=1e-18)
    # the stacked SVD equals a per-coupling SVD bit for bit
    for fam, _ in grid_families():
        point = np.stack([np.linalg.svd(fam(g), compute_uv=False) for g in grid])
        assert np.array_equal(ay.svd_curve(fam, grid), point)


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
    # the degree n + 3 series behind the right side fits every trajectory
    full = ay.svd_curve(eq70_family(), rep.g_grid)
    for sigma in full.T:
        fit = np.polynomial.Polynomial.fit(rep.g_grid, sigma, rep.n + 3)
        assert np.abs(fit(rep.g_grid) - sigma).max() <= 1e-6 * np.abs(sigma).max()


def test_truncation_svd_commute_for_diagonal_family():
    # sigma_1 = 1 + g and sigma_2 = g are already polynomial, so both
    # orderings agree
    F = PolyMatrix([np.diag([1.0, 0.0]), np.eye(2)])
    rep = ay.truncation_svd_commutator(F, 1)
    assert rep.commute
    npt.assert_allclose(rep.right_series[0], [1.0, 1.0], atol=1e-7)
    npt.assert_allclose(rep.right_series[1], [0.0, 1.0], atol=1e-7)


@pytest.mark.parametrize("n", [10, 12])
def test_truncation_order_past_the_ladder_is_refused(n, capsys):
    # the degree n + 3 fit would no longer be of degree n + 3 (n = 10, 11) or would
    # interpolate all 13 couplings and truncate nothing (n >= 12): refused, not answered
    with pytest.raises(ValueError, match=f"truncation order must be at most 9, got {n}"):
        ay.truncation_svd_commutator(eq70_family(), n)
    assert cli.main(["svd-asymptotics", "--instance", "eq70", "--n", str(n)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --n: must be below 10, got {n}\n")


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


@pytest.mark.parametrize("delta, zero", [(9e-12, [1]), (1.1e-11, [])])
def test_zero_trajectory_tolerance_is_1e_12_of_the_largest_singular_value(delta, zero):
    # sigma = (1, delta g) on the ladder topped at 0.1: sigma_2 peaks at 9e-13 (zero)
    # or 1.1e-12 (first order), either side of 1e-12 times sigma_1's 1
    F = PolyMatrix([np.diag([1.0, 0.0]), np.diag([0.0, delta])])
    rep = ay.proof_claim_check(F, 0.5)
    assert rep.zero_trajectories == zero
    assert (rep.orders[1] is None) == (zero == [1])
    if not zero:
        assert rep.orders[1].exponent == pytest.approx(1.0, abs=1e-12)
    assert rep.claim_holds and not rep.counterexample_found


@pytest.mark.parametrize("eps, order, holds", [(3e-6, "1.015899", True), (5e-5, "1.23663328", False)])
def test_first_order_tolerance_is_1_05(eps, order, holds):
    # F(g) = [[g, eps], [0, g]]: sigma_2 = g**2 / sigma_1 bends from order 1 (g >> eps) towards
    # order 2 (g << eps), so its fit over the six smallest couplings lands either side of 1.05
    F = PolyMatrix([np.array([[0.0, eps], [0.0, 0.0]]), np.eye(2)])
    rep = ay.proof_claim_check(F, 0.5)
    assert rep.zero_trajectories == []
    assert f"{rep.orders[1].exponent:.9g}" == order
    assert (rep.claim_holds, rep.counterexample_found) == (holds, not holds)


# ------------------------------------------------ the svd-asymptotics report


def test_svd_asymptotics_report_is_its_analyses_bit_for_bit():
    F = eq70_family()
    rep = ay.svd_asymptotics(F, 1.0, 1)
    grid = np.sort(wk.limit_grid(1.0))
    assert rep.g_grid.tobytes() == grid.tobytes()
    sig = ay.svd_curve(F, grid)
    assert rep.singular_values.tobytes() == sig.tobytes()
    dets = np.abs(np.linalg.det(F(grid[:, None, None])))
    assert rep.abs_det.tobytes() == dets.tobytes()
    prods = np.prod(sig, axis=1)
    assert rep.det_deviation == np.max(np.abs(dets - prods) / prods)
    assert rep.det_nonfinite_g is None
    assert [a.tolist() for a in rep.probes] == [[1.0, 1.0], [1.0, -1.0]]
    for a, est in zip(rep.probes, rep.poles):
        alone = ay.pinv_pole_order(F, a, grid)
        assert (est.exponent, est.coefficient, est.fit_r2) == (alone.exponent, alone.coefficient, alone.fit_r2)
        assert est.alpha_sup.tobytes() == alone.alpha_sup.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning)
        tsc = ay.truncation_svd_commutator(F, 1, 1.0)
    assert rep.truncation.right.tobytes() == tsc.right.tobytes()
    assert (rep.truncation.commute, rep.truncation.reliable) == (tsc.commute, tsc.reliable)
    assert rep.claim == ay.proof_claim_check(F, 1.0)
    assert rep.claim.counterexample_found


def test_svd_asymptotics_skips_what_does_not_apply():
    # quad-cx is quadratic: no claim audit; a 2 x 3 family has no determinant
    spec = get_instance("quad-cx")
    rep = ay.svd_asymptotics(cx.build_F(spec.povm, spec.observable).poly, spec.g_max, 1)
    assert rep.claim is None
    assert rep.abs_det is not None
    wide = PolyMatrix([np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.eye(2, 3)])
    rep = ay.svd_asymptotics(wide, 0.5, 1)
    assert rep.abs_det is None and rep.det_deviation is None and rep.det_nonfinite_g is None
    assert rep.singular_values.shape == (wk.LIMIT_GRID_POINTS, 2)
    assert [a.tolist() for a in rep.probes] == [[1.0, 1.0], [1.0, -1.0]]
    assert rep.claim is not None


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


@pytest.mark.parametrize("k", [-60, -40, -38, -35, 0, 20, 40])
def test_claim_verdict_is_scale_covariant(k):
    # 2**k rescales every singular value exactly; "identically zero" is
    # relative to the largest, and only an exactly zero coefficient is
    # trimmed, so neither the verdict nor the degree can depend on k
    F = PolyMatrix([2.0**k * c for c in eq70_family().coefficients])
    assert F.max_degree == 1
    rep = ay.proof_claim_check(F)
    assert rep.zero_trajectories == []
    assert rep.counterexample_found
    npt.assert_allclose([est.exponent for est in rep.orders], [0.0, 2.0], atol=0.05)
    assert not ay.truncation_svd_commutator(F, 1).commute


# ------------------------------------------------------------ pole orders


def test_pinv_pole_orders_for_eq70():
    F, grid = eq70_family(), wk.limit_grid()
    est = ay.pinv_pole_order(F, np.array([1.0, 1.0]), grid)
    assert abs(est.exponent - 2.0) <= 0.05
    assert est.reliable
    est = ay.pinv_pole_order(F, np.array([1.0, -1.0]), grid)
    assert abs(est.exponent - 1.0) <= 0.05
    assert est.reliable


def test_pinv_pole_order_zero_target():
    est = ay.pinv_pole_order(eq70_family(), np.zeros(2), wk.limit_grid())
    assert est.alpha_zero
    assert est.exponent == 0.0
    assert est.reliable


def test_pole_order_is_scale_covariant_in_the_target():
    # alpha = pinv(F) a scales with a, so alpha_zero is judged against max|a|
    fam, _ = registry_family("qubit-linear")
    ests = [
        ay.pinv_pole_order(fam, 2.0**k * np.array([1.0, -1.0]), wk.limit_grid())
        for k in (-70, 0, 70)
    ]
    assert [est.alpha_zero for est in ests] == [False] * 3
    assert abs(ests[1].exponent - 1.0) <= 0.05
    npt.assert_allclose([est.exponent for est in ests], ests[1].exponent, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [0, 40, 70, 80, 1000])
def test_pole_order_is_scale_covariant_in_the_family(k):
    # ||alpha(g)|| shrinks as F grows, so alpha_zero weighs it by max|F(g)|: by max|a| alone,
    # a = [1, -1] read zero from k = 70 on and a = [1, 1] from k = 80
    F = PolyMatrix(eq70_family().coefficients * 2.0**k)
    ests = [ay.pinv_pole_order(F, np.array(a), wk.limit_grid()) for a in ([1.0, 1.0], [1.0, -1.0])]
    assert [est.alpha_zero for est in ests] == [False, False]
    exponents = [est.exponent for est in ests]
    if k < 1000:
        assert [f"{x:.8f}" for x in exponents] == ["1.99989894", "1.00000006"]
    else:  # within 1e-7 of the above: LAPACK rescales inputs this large
        assert [f"{x:.8f}" for x in exponents] == ["1.99989892", "1.00000004"]


def test_rank_drop_makes_the_pole_order_unreliable():
    zero = np.zeros((2, 2))
    F = PolyMatrix([np.diag([1.0, 0.0]), zero, zero, zero, np.diag([0.0, 1.0])])
    est = ay.pinv_pole_order(F, np.ones(2), wk.limit_grid())
    assert est.fit_r2 == pytest.approx(1.0)  # a clean fit of the wrong curve
    npt.assert_array_equal(est.ranks, [2] * 7 + [1] * 6)
    assert est.rank_changes and not est.reliable


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_ranks_are_constant_on_the_pole_grid(name):
    fam, _ = registry_family(name)
    rows, grid = fam.shape[0], wk.limit_grid()
    for a in (np.ones(rows), (-1.0) ** np.arange(rows)):
        est = ay.pinv_pole_order(fam, a, grid)
        npt.assert_array_equal(est.g_grid, grid)
        assert not est.rank_changes


# ----------------------------------------------- one stacked call per grid


def test_pole_norms_and_validate_eigenvalues_match_per_point_loops(monkeypatch):
    fitted = []
    fit = ay.leading_order_fit
    monkeypatch.setattr(ay, "leading_order_fit", lambda g, v: fitted.append((g, v)) or fit(g, v))
    grid = wk.limit_grid()
    for fam, povm in grid_families():
        rows = fam.shape[0]
        for a in [np.ones(rows), (-1.0) ** np.arange(rows)]:
            norms = np.array([np.abs(linalg.pinv_and_rank(fam(g))[0] @ a).max() for g in grid])
            fitted.clear()
            est = ay.pinv_pole_order(fam, a, grid)
            scale = max(np.abs(fam(g).real).max() for g in grid)
            if norms.max() * scale <= ay.ZERO_TRAJECTORY_TOL * np.abs(a).max():
                assert est.alpha_zero and not fitted
            else:
                assert np.array_equal(fitted[0][0], grid)
                assert np.array_equal(fitted[0][1], norms)
        if povm is None:
            continue
        report = pv.validate(povm)
        mins = np.empty((povm.n_out, len(report.grid)))
        for j, e in enumerate(povm.elements):
            for i, g in enumerate(report.grid):
                E = e(g)
                mins[j, i] = np.linalg.eigvalsh(0.5 * (E + E.conj().T))[0]
        assert np.array_equal(report.min_eigenvalues, mins)


@pytest.mark.parametrize("name", ["eq70", "quad-cx", "flat"])
def test_one_stacked_lapack_call_per_grid(name, count_calls):
    fam, povm = registry_family(name)
    svd = count_calls(np.linalg, "svd")
    ay.svd_curve(fam, wk.limit_grid())
    assert svd[0] == 1
    solves = count_calls(linalg, "pinv_and_rank")
    ay.pinv_pole_order(fam, np.ones(fam.shape[0]), wk.limit_grid())
    assert solves[0] == 1
    if povm is not None:
        eig = count_calls(np.linalg, "eigvalsh")
        pv.validate(povm)
        assert eig[0] == 1


# ------------------------------- lean fits: numpy's own steps, bit for bit


def caught_warnings(fn):
    """fn()'s result, or the LinAlgError it raised, and the (category, message) of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn()
        except np.linalg.LinAlgError as err:
            result = str(err)
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def fit_problems(draw):
    """(x, y, deg) for _polyfit_rows: degree 0-12 on 1-13 couplings, x shared
    (n,) or one row per fit (k, n).  Couplings are a limit_grid ladder, sorted
    floats, one repeated value (a zero-width domain) or a coarse grid whose
    repeats make the rank fall short; a row of y may be all zeros."""
    deg, n, k = draw(st.integers(0, 12)), draw(st.integers(1, 13)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ladder", "sorted", "flat", "coarse"]))

    def couplings():
        if kind == "ladder":
            return wk.limit_grid(draw(st.floats(1e-4, 0.5)))[:n]
        if kind == "flat":
            return np.full(n, draw(st.floats(-2.0, 2.0)))
        if kind == "coarse":
            return np.sort(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))) / 7.0
        return np.sort(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))) / 1e5

    x = couplings() if draw(st.booleans()) else np.array([couplings() for _ in range(k)])
    values = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n) | st.just([0.0] * n)
    y = np.array([draw(values) for _ in range(k)])
    return x, y, deg


@settings(max_examples=150, deadline=None)
@given(fit_problems())
def test_lean_fit_convert_and_polyval_equal_numpy_polynomial(problem):
    x, y, deg = problem
    xs = np.broadcast_to(x, y.shape)
    (coef, domain, ranks), lean_warned = caught_warnings(lambda: wk._polyfit_rows(x, y, deg))
    fits, numpy_warned = caught_warnings(lambda: [np.polynomial.Polynomial.fit(a, b, deg) for a, b in zip(xs, y)])
    # one RankWarning per short-rank row, with numpy's category and message, and numpy's rank
    # (which a full fit reports, without the warning)
    assert lean_warned == numpy_warned
    assert coef.shape == (len(y), deg + 1)
    full = [np.polynomial.Polynomial.fit(a, b, deg, full=True)[1] for a, b in zip(xs, y)]
    assert ranks.tolist() == [int(info[1]) for info in full]
    for m, fit in enumerate(fits):
        row_domain = domain if x.ndim == 1 else domain[m]
        assert coef[m].tobytes() == fit.coef.tobytes()
        assert row_domain.tobytes() == fit.domain.tobytes()
        series = wk._power_series(coef[m], row_domain)
        converted = fit.convert().coef
        assert len(series) == len(converted) and series.tobytes() == converted.tobytes()
        assert wk._polyval(xs[m], series).tobytes() == np.polynomial.polynomial.polyval(xs[m], series).tobytes()


# coefficients and domains whose products underflow to zero, so that every
# trim of convert's Horner steps shows, beside zeros of either sign
series_values = st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e-300]) | st.floats(-1e3, 1e3)
domain_ends = st.sampled_from([0.0, 1e-300, 1e-12, 1e12, 1e300]) | st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(st.lists(series_values, min_size=1, max_size=13), st.lists(domain_ends, min_size=2, max_size=2, unique=True))
def test_power_series_equals_polynomial_convert(c, ends):
    c, domain = np.array(c), np.sort(ends)
    with np.errstate(all="ignore"):
        lean = wk._power_series(c, domain)
        converted = np.polynomial.Polynomial(c, domain=domain).convert().coef
    assert len(lean) == len(converted) and lean.tobytes() == converted.tobytes()


# six couplings, some equal (all equal leaves the log-log matrix rank one)
loglog_points = st.one_of(
    st.lists(st.floats(1e-6, 1.0), min_size=6, max_size=9),
    st.floats(1e-6, 1.0).map(lambda g: [g] * 6),
    st.lists(st.integers(1, 3), min_size=6, max_size=8).map(lambda i: [v / 10 for v in i]),
)


@settings(max_examples=150, deadline=None)
@given(loglog_points, st.data())
def test_leading_order_fit_equals_numpy_polyfit(g, data):
    g = np.array(g)
    v = np.array(data.draw(st.lists(st.floats(1e-12, 1e6), min_size=len(g), max_size=len(g))))
    order = np.argsort(g)[: ay.FIT_POINTS]
    lean = caught_warnings(lambda: ay.leading_order_fit(g, v))
    numpy_fit = caught_warnings(lambda: np.polyfit(np.log(g[order]), np.log(v[order]), 1))
    if isinstance(numpy_fit[0], np.ndarray):  # else both fail alike: the couplings are all 1
        slope, intercept = numpy_fit[0]
        numpy_fit = (float(slope).hex(), float(np.exp(intercept)).hex()), numpy_fit[1]
        lean = (float(lean[0].exponent).hex(), float(lean[0].coefficient).hex()), lean[1]
    assert lean == numpy_fit


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
def test_truncation_series_equal_numpy_polynomial_on_every_registry_family(n):
    for name in REGISTRY:
        fam, _ = registry_family(name)
        g_max = get_instance(name).g_max
        rep, lean_warned = caught_warnings(lambda: ay.truncation_svd_commutator(fam, n, g_max))
        full = ay.svd_curve(fam, rep.g_grid)
        deg = min(n + 3, len(rep.g_grid) - 1)
        fits, numpy_warned = caught_warnings(
            lambda: [np.polynomial.Polynomial.fit(rep.g_grid, sigma, deg) for sigma in full.T]
        )
        assert lean_warned == numpy_warned
        # the report is reliable exactly where every fit has full rank, so where none warned
        ranks = [int(np.polynomial.Polynomial.fit(rep.g_grid, sigma, deg, full=True)[1][1]) for sigma in full.T]
        assert rep.reliable == (ranks == [deg + 1] * len(ranks)) == (not numpy_warned)
        series = [fit.convert().coef[: n + 1] for fit in fits]
        assert [s.tobytes() for s in rep.right_series] == [s.tobytes() for s in series]
        right = np.stack([np.polynomial.polynomial.polyval(rep.g_grid, s) for s in series], axis=-1)
        assert rep.right.tobytes() == right.tobytes()


@pytest.mark.parametrize(
    "argv, stacks",
    [
        (["svd-asymptotics", "--instance", "eq70"], 1),
        (["svd-asymptotics", "--instance", "quad-cx", "--n", "2"], 1),
        (["proof-claim", "--instance", "eq70"], 0),
        (["weak-limit", "--instance", "qubit-linear", "--theta-f", "0.3926990817"], 1),
    ],
)
def test_fit_hot_path_shape(argv, stacks, count_calls):
    counts = {
        name: count_calls(module, name)
        for module, name in [
            (np.polynomial.Polynomial, "fit"),
            (np.polynomial.Polynomial, "convert"),
            (np, "polyfit"),
            (np.linalg, "lstsq"),
            (wk, "_polyfit_rows"),
            (linalg, "_lstsq_rows"),
        ]
    }
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    n = {name: c[0] for name, c in counts.items()}
    assert n["fit"] == n["convert"] == n["polyfit"] == n["lstsq"] == 0
    # one fit of every trajectory or ladder in one stack; log-log fits solve one row each
    assert n["_polyfit_rows"] == stacks
    assert n["_lstsq_rows"] > 0
