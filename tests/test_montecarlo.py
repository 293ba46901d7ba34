from __future__ import annotations

import contextlib
import dataclasses
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklab import cli
from weaklab import contextual as cx
from weaklab import linalg
from weaklab import montecarlo as mc
from weaklab import povm as pv
from weaklab import weak as wk
from weaklab.errors import NoSuccesses, OrthogonalPostselection, ValidationError, WeakLabError
from weaklab.povm import ParamPovm, PolyMatrix
from weaklab.files import load_instance
from weaklab.registry import REGISTRY, get_instance

from oracles import oracle_joint_probabilities, oracle_sample_run

DATA = Path(__file__).resolve().parent / "data"
ROTATED = ("qubit-linear-rotated", "quad-cx-rotated-permuted")
I2 = np.eye(2)
Z = np.diag([1.0, -1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def qubit_linear():
    return ParamPovm(
        elements=(PolyMatrix([I2 / 2, Z / 2]), PolyMatrix([I2 / 2, -Z / 2])),
        g_max=0.9,
    )


def spectral(povm):
    """F of a diagonal qubit family, with Z as its observable."""
    return cx.build_F(povm, Z)


def pip_alpha(F, g):
    return cx.pseudoinverse_cv(F, g).alpha


def final_state(theta):
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def test_config_rejects_empty_run():
    with pytest.raises(ValueError):
        mc.McConfig(trials=0, seed=1, g=0.1)


def states_families():
    """(povm, F, psi_i, psi_f) of each registry POVM with both states, and of the two rotated files."""
    specs = [get_instance(name) for name in REGISTRY]
    specs += [load_instance(DATA / f"{name}.json") for name in ROTATED]
    for spec in specs:
        if spec.povm is not None and spec.psi_f is not None:
            yield spec.povm, cx.build_F(spec.povm, spec.observable), spec.psi_i, spec.psi_f


def test_joint_probabilities():
    F = spectral(qubit_linear())
    p, q = mc.joint_probabilities(F, PLUS, final_state(np.pi / 8), 0.1)
    npt.assert_allclose(p.sum(), 1.0, atol=1e-12)
    npt.assert_allclose(p, [0.5, 0.5], atol=1e-12)
    assert np.all((0 <= q) & (q <= 1))
    # total acceptance equals the analytic success probability
    _, success = wk.conditioned_average(F, pip_alpha(F, 0.1), PLUS, final_state(np.pi / 8), 0.1)
    npt.assert_allclose(p @ q, success, atol=1e-12)
    # p from F's spectra and q = w / p agree with <psi_i|E_j psi_i> and the
    # normalized post-measurement overlap to rounding, in every basis
    checked = 0
    for povm, F, psi_i, psi_f in states_families():
        for g in np.linspace(0.05, 1.0, 7) * povm.g_max:
            p, q = mc.joint_probabilities(F, psi_i, psi_f, g)
            want_p, want_q = oracle_joint_probabilities(povm, psi_i, psi_f, g)
            npt.assert_allclose(p, want_p, rtol=1e-14, atol=0)
            npt.assert_allclose(q, want_q, rtol=1e-14, atol=0)
            checked += 1
    assert checked == 4 * 7


def test_raw_family_is_refused_before_any_arithmetic(monkeypatch):
    # a raw F (no basis) has no measurement operators to postselect with
    raw = cx.FMatrix(PolyMatrix([np.full((2, 2), 0.5), [[0.5, -0.5], [-0.5, 0.5]]]), [1, -1])
    monkeypatch.setattr(PolyMatrix, "__call__", lambda self, g: pytest.fail("F(g) evaluated"))
    alpha = np.array([1.0, -1.0])
    calls = [
        lambda: wk.conditioned_average(raw, alpha, PLUS, final_state(0.3), 0.1),
        lambda: mc.joint_probabilities(raw, PLUS, final_state(0.3), 0.1),
        lambda: mc.sample_run(raw, alpha, PLUS, final_state(0.3), mc.McConfig(trials=10, seed=1, g=0.1)),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.code == "NoBasis"


def test_rerun_is_bit_identical():
    F = spectral(qubit_linear())
    cfg = mc.McConfig(trials=20_000, seed=42, g=0.2)
    alpha = pip_alpha(F, 0.2)
    r1 = mc.sample_run(F, alpha, PLUS, final_state(0.3), cfg)
    r2 = mc.sample_run(F, alpha, PLUS, final_state(0.3), cfg)
    assert r1.empirical_value == r2.empirical_value
    assert r1.stderr == r2.stderr
    assert r1.successes == r2.successes
    npt.assert_array_equal(r1.per_outcome_counts, r2.per_outcome_counts)
    npt.assert_array_equal(r1.per_outcome_draws, r2.per_outcome_draws)


def test_empirical_value_tracks_analytic():
    F = spectral(qubit_linear())
    g = 0.1
    alpha = pip_alpha(F, g)
    psi_f = final_state(np.pi / 8)
    analytic, _ = wk.conditioned_average(F, alpha, PLUS, psi_f, g)
    res = mc.sample_run(F, alpha, PLUS, psi_f, mc.McConfig(trials=10**5, seed=5, g=g))
    assert abs(res.empirical_value - analytic) < 3 * res.stderr
    # alpha = +-10 with near-even weights: stderr ~ 10/sqrt(successes)
    assert 0.02 < res.stderr < 0.05
    assert res.successes == res.per_outcome_counts.sum()
    assert res.trials == res.per_outcome_draws.sum()


def test_outcome_draws_follow_the_povm():
    F = spectral(qubit_linear())
    g = 0.4
    psi = np.array([1.0, 0.0])  # p = ((1+g)/2, (1-g)/2) exactly
    res = mc.sample_run(
        F, np.array([1.0, -1.0]), psi, psi, mc.McConfig(trials=10**5, seed=9, g=g)
    )
    p, q = mc.joint_probabilities(F, psi, psi, g)
    assert q.max() <= 1.0  # w / p is 1 here, and sqrt(F)^2 may round above F
    n = res.trials
    for j in range(2):
        sd = np.sqrt(n * p[j] * (1 - p[j]))
        assert abs(res.per_outcome_draws[j] - n * p[j]) < 4 * sd
        mean_acc = res.per_outcome_draws[j] * q[j]
        sd_acc = np.sqrt(res.per_outcome_draws[j] * q[j] * (1 - q[j]) + 1e-12)
        assert abs(res.per_outcome_counts[j] - mean_acc) < 4 * sd_acc + 1e-9


def test_result_scalars_are_python_numbers():
    cfg = mc.McConfig(trials=20_000, seed=42, g=0.2)
    F = spectral(qubit_linear())
    res = mc.sample_run(F, pip_alpha(F, 0.2), PLUS, final_state(0.3), cfg)
    assert type(res.empirical_value) is float
    assert type(res.stderr) is float
    assert type(res.successes) is int and type(res.trials) is int


def test_constant_weights_have_zero_spread():
    res = mc.sample_run(
        spectral(qubit_linear()),
        np.array([2.5, 2.5]),
        PLUS,
        final_state(0.2),
        mc.McConfig(trials=5000, seed=13, g=0.3),
    )
    assert res.empirical_value == 2.5
    assert res.stderr == 0.0


def test_impossible_postselection_raises():
    # psi_i = e0 keeps every branch on e0, orthogonal to psi_f = e1
    with pytest.raises(NoSuccesses):
        mc.sample_run(
            spectral(qubit_linear()),
            np.array([1.0, -1.0]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            mc.McConfig(trials=1000, seed=3, g=0.2),
        )


def test_three_stderr_coverage_across_seeds():
    # the 3-sigma interval should cover the analytic value for ~99.7% of
    # seeds; over 100 independent seeds even 97 hits would be a fluke floor
    F = spectral(qubit_linear())
    g = 0.1
    alpha = pip_alpha(F, g)
    psi_f = final_state(np.pi / 8)
    analytic, _ = wk.conditioned_average(F, alpha, PLUS, psi_f, g)
    hits = 0
    for seed in range(100):
        res = mc.sample_run(
            F, alpha, PLUS, psi_f, mc.McConfig(trials=10**4, seed=seed, g=g)
        )
        if abs(res.empirical_value - analytic) <= 3 * res.stderr:
            hits += 1
    assert hits >= 97


# ------------------------------------------------ bit identity with the oracle


def many_outcomes(pairs):
    """A diagonal qubit family of 2 pairs + 1 outcomes, with weights of every sign and size.

    Pair k is w_k (I +- g t_k Z), and the last outcome is the identity's
    remainder, so the completeness holds for every g.
    """
    rng = np.random.default_rng(pairs)
    w = rng.uniform(0.5, 1.5, pairs) / (2.5 * pairs)
    tilt = w * rng.uniform(-1.0, 1.0, pairs)
    elements = [PolyMatrix([w_k * I2, s * t_k * Z]) for w_k, t_k in zip(w, tilt) for s in (1, -1)]
    elements.append(PolyMatrix([(1.0 - 2.0 * w.sum()) * I2, 0.0 * Z]))
    alpha = rng.normal(size=2 * pairs + 1) * 10.0 ** rng.integers(-3, 4, 2 * pairs + 1)
    return spectral(ParamPovm(elements=tuple(elements), g_max=0.9)), alpha


def oracle_families():
    """(F, alpha, psi_i, psi_f, g): n_out 1-17 and 257, null outcomes, a null postselection."""
    rng = np.random.default_rng(17)
    for dim, n_out in ((2, 2), (2, 3), (3, 4), (4, 5), (3, 9), (2, 17)):
        inst = wk.generate_linear_commuting_instance(rng, dim, n_out)
        F = cx.build_F(inst.povm, inst.observable)
        g = 0.5 * inst.povm.g_max
        alpha = cx.pseudoinverse_cv(F, g).alpha
        yield F, alpha, inst.psi_i, inst.psi_f, g
    # from e0, the P1 outcome never fires: as the middle outcome it makes the
    # cumulative bounds (a, a, 1), as the first outcome it makes them (0, a, 1)
    P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    null = PolyMatrix([P1, 0 * P1])
    half_up, half_down = PolyMatrix([P0 / 2, P0 / 2]), PolyMatrix([P0 / 2, -P0 / 2])
    for elements in ((half_up, null, half_down), (null, half_up, half_down)):
        F = spectral(ParamPovm(elements=elements, g_max=0.9))
        yield F, np.array([1.0, -2.0, 3.0]), np.array([1.0, 0.0]), final_state(0.3), 0.4
    yield spectral(qubit_linear()), np.array([1.0, -1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.2
    trivial = ParamPovm(elements=(PolyMatrix([I2]),), g_max=0.9)  # no bound, no search level
    yield spectral(trivial), np.array([2.0]), np.array([1.0, 0.0]), final_state(0.3), 0.4
    F, alpha = many_outcomes(128)  # 257 outcomes: two-byte codes
    yield F, alpha, PLUS, final_state(0.3), 0.4


def agrees_with_oracle(F, alpha, psi_i, psi_f, config):
    """Assert every McResult field equals the oracle's; say whether any trial survived."""
    try:
        want = oracle_sample_run(F, alpha, psi_i, psi_f, config)
    except NoSuccesses:
        with pytest.raises(NoSuccesses):
            mc.sample_run(F, alpha, psi_i, psi_f, config)
        return "none"
    got = mc.sample_run(F, alpha, psi_i, psi_f, config)
    for f in dataclasses.fields(mc.McResult):
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            npt.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name
    return "ok"


BLOCK = mc._BLOCK


@pytest.mark.parametrize(
    "trials",
    # the block edges between them leave trials % 4 at 3, 0, 1, 2 and 3, so
    # the acceptance stream starts at every offset within a Philox step
    [1, 2, 7, 100_003, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 3],
)
def test_sampler_is_bit_identical_to_the_oracle(trials):
    seen = set()
    for F, alpha, psi_i, psi_f, g in oracle_families():
        for seed in (0, 1, 2**64 + 5, 2**128 - 1):
            config = mc.McConfig(trials=trials, seed=seed, g=g)
            seen.add(agrees_with_oracle(F, alpha, psi_i, psi_f, config))
    assert seen == {"ok", "none"}


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(trials=st.integers(1, 3 * BLOCK), seed=st.integers(0, 2**128 - 1))
def test_sampler_matches_the_oracle_for_any_length_and_seed(trials, seed):
    for F, alpha, psi_i, psi_f, g in oracle_families():
        config = mc.McConfig(trials=trials, seed=seed, g=g)
        agrees_with_oracle(F, alpha, psi_i, psi_f, config)


KEYS = (0, 1, 2**64 + 5, 2**128 - 1)
EDGE_WORDS = np.array([0, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("key", KEYS)
def test_philox_doubles_are_raw_words_shifted(key):
    # the sampler compares k = word >> 11 where numpy's Philox Generator gives
    # the double k 2**-53, and skips to the acceptance words by advance; a
    # numpy that forms its doubles or moves its stream otherwise fails here
    for n in [*range(1, 10), BLOCK + 1]:
        doubles = np.random.Generator(np.random.Philox(key=key)).random(n)
        words = np.random.Philox(key=key).random_raw(n)
        assert doubles.tobytes() == ((words >> 11) * 2.0**-53).tobytes()
    for t in (BLOCK, BLOCK + 1, BLOCK + 2, BLOCK + 3):  # t % 4 = 0, 1, 2, 3
        rng = np.random.Generator(np.random.Philox(key=key))
        rng.random(t)
        bits = np.random.Philox(key=key).advance(t // 4)
        bits.random_raw(t % 4)
        assert rng.random(9).tobytes() == ((bits.random_raw(9) >> 11) * 2.0**-53).tobytes()


def test_integer_thresholds_decide_as_the_uniforms_would():
    # every bound a run compares against, with the k 2**-53 on and beside its threshold
    checked = 0
    for F, alpha, psi_i, psi_f, g in oracle_families():
        p, q = mc.joint_probabilities(F, psi_i, psi_f, g)
        cum = np.cumsum(p)
        cum /= cum[-1]
        bounds = np.concatenate([cum, q, [0.0, 1.0, np.inf]])
        thresholds = mc._thresholds(bounds)
        assert thresholds.dtype == np.uint64
        assert thresholds[-2] == thresholds[-1] == 2**53  # reached by no k
        k = thresholds[:, None].astype(np.int64) + np.arange(-2, 3)
        k = k.clip(0, 2**53 - 1).astype(np.uint64)
        u = k * 2.0**-53  # exact: k has at most 53 bits
        npt.assert_array_equal(k >= thresholds[:, None], u >= bounds[:, None])
        npt.assert_array_equal(k < thresholds[:, None], u < bounds[:, None])
        checked += bounds.size
    assert checked == 645  # 2 n_out + 3 for each of the 11 families


def words_near(x):
    """Words whose k = word >> 11 is ceil(x 2**53) - 1, itself and + 1, low 11 bits clear and set.

    Only k from 0 to 2**53 - 1 is kept: no other comes from a real stream.
    """
    k = np.ceil(np.asarray(x) * 2.0**53).astype(np.int64)[:, None] + np.arange(-1, 2)
    words = k[(k >= 0) & (k < 2**53)].astype(np.uint64) << np.uint64(11)
    return np.concatenate([words, words | np.uint64(2**11 - 1)])


def test_uniforms_on_a_bound_agree_with_the_oracle(monkeypatch):
    # a Philox word lands on a threshold with probability about 2**-53, so the
    # words are forced: on and beside each outcome bound's threshold, and each
    # acceptance probability's threshold on a trial of its own outcome; 0 and
    # 2**64 - 1.  The oracle reads the same words as the doubles k 2**-53.
    real_philox = np.random.Philox

    class Forced:
        """Hands out forced[i] wherever the real stream would hand out its word i.

        The real words locate each read in the stream, so however the
        sampler splits and skips its reads, it gets the forced outcome words
        from the first `trials` words and the forced acceptance words from
        the next `trials`, and every read is recorded.
        """

        def __init__(self, key):
            self.real = real_philox(key=key)

        def advance(self, delta):
            self.real.advance(delta)
            return self

        def random_raw(self, size):
            drawn = self.real.random_raw(size)
            at = order[np.searchsorted(stream, drawn, sorter=order).clip(max=stream.size - 1)]
            assert np.array_equal(stream[at], drawn), "read beyond 2 * trials words"
            reads.append(at)
            return forced[at]

    class AsDoubles:
        """The oracle's Generator: each word it reads becomes the double (word >> 11) 2**-53."""

        def __init__(self, bit_generator):
            self.bits = bit_generator

        def random(self, size):
            return (self.bits.random_raw(size) >> 11) * 2.0**-53

    def read_once_each(extra):
        """Was each word read once, and each of `extra` once more?"""
        at = np.concatenate(reads)
        reads.clear()
        return np.array_equal(np.sort(at), np.sort(np.concatenate([np.arange(forced.size), extra])))

    filler = np.random.default_rng(23)
    monkeypatch.setattr(np.random, "Philox", Forced)
    monkeypatch.setattr(np.random, "Generator", AsDoubles)
    reads = []
    for F, alpha, psi_i, psi_f, g in oracle_families():
        p, q = mc.joint_probabilities(F, psi_i, psi_f, g)
        cum = np.cumsum(p)
        cum /= cum[-1]
        ends = np.ceil(cum * 2.0**53).astype(np.uint64)  # outcome j draws k below ends[j]
        starts = np.concatenate([np.zeros(1, np.uint64), ends[:-1]])
        reachable = np.flatnonzero(starts < ends)
        # outcome trials: the words near each bound, with filler acceptance words;
        # acceptance trials: the words near q_j, after the lowest word of outcome j;
        # then the trials (0, 0) and (2**64 - 1, 2**64 - 1)
        on_bounds = words_near(cum[:-1])
        near_q = [words_near(q[[j]]) for j in reachable]
        lowest = [np.full(w.size, starts[j] << np.uint64(11)) for j, w in zip(reachable, near_q)]
        outcome_words = np.concatenate([on_bounds, *lowest, EDGE_WORDS])
        accept_words = np.concatenate([*near_q, EDGE_WORDS])
        m = outcome_words.size
        # the forced trials alone, then the same trials straddling a block edge
        for trials, first in ((m, 0), (BLOCK + m, BLOCK - m // 2)):
            words = filler.integers(0, 2**64, (2, trials), dtype=np.uint64)
            words[0, first : first + m] = outcome_words
            words[1, first + on_bounds.size : first + m] = accept_words
            forced = words.ravel()
            stream = real_philox(key=0).random_raw(forced.size)
            order = np.argsort(stream)
            assert np.unique(stream).size == stream.size
            config = mc.McConfig(trials=trials, seed=0, g=g)
            # the acceptance generator reads and drops the outcome words that
            # share its first Philox step, trials % 4 of them
            skipped = np.arange(trials - trials % 4, trials)
            for run, extra in ((oracle_sample_run, []), (mc.sample_run, skipped)):
                with contextlib.suppress(NoSuccesses):
                    run(F, alpha, psi_i, psi_f, config)
                assert read_once_each(extra), run.__name__
            agrees_with_oracle(F, alpha, psi_i, psi_f, config)
            reads.clear()


def million_draws():
    """A 1M-draw run's arguments, once a first run has imported numpy.random and filled the caches."""
    spec = get_instance("qubit-linear")
    g = 0.1
    F = cx.build_F(spec.povm, spec.observable)
    args = F, pip_alpha(F, g), spec.psi_i, spec.psi_f, mc.McConfig(trials=10**6, seed=1, g=g)
    mc.sample_run(*args)
    return args


def test_million_draws_peak_below_2_mib():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic:
    # one byte a trial for the kept codes, and a block's buffers on top
    args = million_draws()
    tracemalloc.start()
    try:
        mc.sample_run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_a_run_leaves_nothing_for_the_collector():
    # with the collector off, a buffer that a reference cycle held would stay
    # allocated after the run: the codes' 1 MiB, or a 128 KiB leaf of the
    # sums.  numpy's own wrappers leave a few hundred bytes of garbage for
    # the collector, far below either.
    args = million_draws()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = mc.sample_run(*args)
        del result
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 2**16


@pytest.mark.parametrize(
    "n", [1, 7, 8, 9, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 10**6 + 7]
)
def test_sums_follow_numpys_own_pairwise_tree(n):
    # weights spanning 16 decades round differently under any other order of
    # additions, so a numpy that splits its pairwise sum elsewhere fails here
    rng = np.random.default_rng(n)
    weights = rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, 300)
    codes = rng.integers(0, 300, n).astype(np.uint16)
    values = weights.take(codes)
    total = mc._pairwise_sum(weights, codes)
    assert type(total) is np.float64
    assert total == np.add.reduce(values)
    mean, spread = mc._mean_and_spread(weights, codes)
    assert mean == values.mean()
    assert spread == (values.std(ddof=1) if n > 1 else 0.0)


def test_mc_run_takes_no_psd_sqrt_or_eigh(count_calls, capsys):
    # qubit-linear is diagonal: the amplitudes are read off build_F's permutation basis
    sqrts = count_calls(linalg, "psd_sqrt")
    eighs = count_calls(np.linalg, "eigh")
    bases = count_calls(linalg, "common_eigenbasis")
    roots = count_calls(pv, "measurement_operators")
    argv = ["mc-run", "--instance", "qubit-linear", "--g", "0.1", "--trials", "1000", "--seed", "3"]
    assert cli.main(argv) == 0
    assert "successes  = " in capsys.readouterr().out
    assert sqrts[0] == 0
    assert eighs[0] == 0
    assert bases[0] == 1  # build_F's, which every later step reads
    assert roots[0] == 0


# ------------------------------------------------------------------ mc_run


def test_mc_run_is_sample_run_beside_its_conditioned_average():
    spec = get_instance("qubit-linear")
    config = mc.McConfig(trials=20_000, seed=3, g=0.1)
    res = mc.mc_run(spec.povm, spec.observable, spec.psi_i, spec.psi_f, config)
    F = cx.build_F(spec.povm, spec.observable)
    alpha = cx.solve_grid(F, [0.1]).alpha[0]
    alone = mc.sample_run(F, alpha, spec.psi_i, spec.psi_f, config)
    for field in dataclasses.fields(mc.McResult):
        assert np.asarray(getattr(res, field.name)).tobytes() == np.asarray(
            getattr(alone, field.name)
        ).tobytes(), field.name
    analytic, success = wk.conditioned_average(F, alpha, spec.psi_i, spec.psi_f, 0.1)
    assert type(res.analytic_value) is float and type(res.success_probability) is float
    assert res.analytic_value.hex() == analytic.hex()
    assert res.success_probability.hex() == success.hex()


def test_mc_run_error_order():
    spec = get_instance("qubit-linear")
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    ket0, ket1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def error(A, psi_i, psi_f, g):
        with pytest.raises(WeakLabError) as err:
            mc.mc_run(spec.povm, A, psi_i, psi_f, mc.McConfig(trials=1000, seed=1, g=g))
        return type(err.value).__name__, str(err.value)

    # the coupling's range first, then build_F's refusal of X, then the solve at g = 0
    assert error(X, 2 * ket0, ket1, 5.0)[0] == "OutOfValidityRange"
    assert error(X, 2 * ket0, ket1, 0.1)[0] == "NotCommuting"
    assert error(Z, 2 * ket0, ket1, 0.0) == (
        "NoExactCv", "no exact contextual values at g = 0 (residual 1.414e+00)"
    )
    # then sample_run's own: a state off unit norm, then no success, before the
    # analytic value's OrthogonalPostselection
    assert error(Z, 2 * ket0, ket1, 0.1) == ("InvalidState", "state vector norm 2.0 is not 1")
    assert error(Z, ket0, ket1, 0.1)[0] == "NoSuccesses"
    with pytest.raises(OrthogonalPostselection):
        wk.conditioned_average(cx.build_F(spec.povm, Z), [1.0, -1.0], ket0, ket1, 0.1)
