from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import contextual as cx
from weaklab import linalg
from weaklab import meter as mt
from weaklab import povm as pv
from weaklab import registry
from weaklab import weak as wk
from weaklab.errors import DimensionError, NotIsometry, NotPositive, OutOfValidityRange
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
    roots = mt.positive_family(povm)
    return mt.compose_isometry(roots, povm.n_out, povm.g_max, meter_eigenvalues=eigenvalues)


def scale_first(roots, factor):
    """roots with outcome 0's operator scaled by factor(g), g one coupling or an array of them."""
    def scaled(g):
        factors = np.stack(np.broadcast_arrays(factor(g), 1.0), axis=-1)  # (..., 2)
        return roots(g) * factors[..., None, None]
    return scaled


def test_probabilities_match_povm_expectations():
    povm = qubit_linear()
    model = build_model(povm)
    rng = np.random.default_rng(29)
    for _ in range(50):
        s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s /= np.linalg.norm(s)
        g = float(rng.uniform(0, 0.9))
        p = mt.outcome_probabilities(model, s, g)
        direct = [np.vdot(s, e(g) @ s).real for e in povm.elements]
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
    roots = scale_first(mt.positive_family(povm), lambda g: 1.1)
    with pytest.raises(NotIsometry):
        mt.compose_isometry(roots, 2, povm.g_max)


def test_meter_eigenvalues_must_be_separated():
    povm = qubit_linear()
    roots = mt.positive_family(povm)
    with pytest.raises(ValueError):
        mt.compose_isometry(roots, 2, povm.g_max, meter_eigenvalues=(lambda g: 1.0, lambda g: 1.0))


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


def entangling():
    """Degree 0, with a zeroth order not proportional to the identity."""
    return ParamPovm(
        elements=(PolyMatrix([np.diag([0.9, 0.3])]), PolyMatrix([np.diag([0.1, 0.7])])), g_max=0.5
    )


def test_weak_coupling_check_detects_entanglement():
    # a family whose zeroth order is not proportional to the identity
    # entangles system and meter already at g = 0
    model = build_model(entangling())
    ok, gap = weak_coupling_check(model, plus_state())
    assert not ok
    assert gap > 0.1


# ------------------------------------------------------- eigenbasis dilation


def dilate(povm, F, roots=None):
    """The acceptance test's dilation: per-outcome pseudoinverse eigenvalues."""
    eigs = [lambda g, j=j: float(cx.pseudoinverse_cv(F, g).alpha[j]) for j in range(povm.n_out)]
    roots = mt.positive_family(povm) if roots is None else roots
    return mt.compose_isometry(roots, povm.n_out, povm.g_max, eigs)


def test_dilation_hot_path_shape(count_calls):
    inst = wk.generate_linear_commuting_instance(np.random.default_rng(3), 3, 4)
    povm = inst.povm
    sqrts = count_calls(linalg, "psd_sqrt")
    solves = count_calls(linalg, "pinv_and_rank")
    svds = count_calls(linalg, "_svd")  # LAPACK's thin SVD, at the one seam that binds it
    wrappers = count_calls(np.linalg, "svd")
    eighs = count_calls(np.linalg, "eigh")
    stacks = count_calls(pv, "clamp_psd")  # one per root stack
    roots, reads = mt.positive_family(povm), []
    model = dilate(povm, cx.build_F(povm, inst.observable), lambda g: reads.append(g) or roots(g))
    grid = pv.default_grid(povm.g_max)
    # one read, of the whole grid: no probe at g = 0
    assert len(reads) == 1 and reads[0].tobytes() == grid.tobytes()
    g = 0.7 * povm.g_max
    mt.outcome_probabilities(model, inst.psi_i, g)
    assert len(reads) == 2  # isometry_at reads the stack once
    mt.meter_expectation(model, inst.psi_i, g)
    assert reads[1:] == [g, g]
    assert sqrts[0] == 0
    assert eighs[0] == 0  # both eigenbases of a diagonal family are permutations
    # one stacked solve of the whole grid and one at g, not one per coupling or outcome,
    # each one SVD, which pinv_and_rank takes from the gufunc the seam bound, not through np.linalg.svd
    assert solves[0] == svds[0] == 2
    assert wrappers[0] == 0
    # one root stack for the whole grid and one per read at g, shared by every outcome
    assert stacks[0] == 3


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


#: the couplings of the benchmark's mc-run workload
MC_GS = (0.05, 0.1, 0.2, 0.4)


def test_eigenbasis_roots_equal_psd_sqrt():
    rng = np.random.default_rng(8)
    families = [qubit_linear()]  # degenerate zeroth order
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(dim, 6))
        povm = wk.generate_linear_commuting_instance(rng, dim, n_out).povm
        families += [povm, rotated_povm(povm, haar(rng, dim), rng.permutation(n_out))]
    for povm in families:
        roots = mt.positive_family(povm)
        for g in np.linspace(0.0, povm.g_max, 7):
            for root, e in zip(roots(g), povm.elements, strict=True):
                npt.assert_allclose(root, linalg.psd_sqrt(e(g)), rtol=0, atol=1e-12)

    # bit for bit where psd_sqrt diagonalizes a diagonal matrix: every registry
    # family and generated diagonal ones, on default_grid and at mc's couplings
    exact = [spec.povm for spec in map(registry.get_instance, registry.REGISTRY) if spec.povm]
    exact += families[1::2]  # the generated families, before rotation
    assert len(exact) == 23
    for povm in exact:
        grid = [*pv.default_grid(povm.g_max), *(g for g in MC_GS if g <= povm.g_max)]
        for g in grid:
            roots = np.array([linalg.psd_sqrt(e(g)) for e in povm.elements])
            assert pv.measurement_operators(povm, g).tobytes() == roots.tobytes()


def test_eigenbasis_roots_follow_the_clamp_rule():
    # (I -+ g Z)/2 has eigenvalue (1 - g)/2, negative past g = 1
    wide = ParamPovm(elements=qubit_linear().elements, g_max=2.0)
    roots = mt.positive_family(wide)
    edge = 1.0 + 2e-13  # a relative -1e-13 is clamped to zero
    npt.assert_allclose(roots(edge)[1], linalg.psd_sqrt(wide.elements[1](edge)), atol=1e-15)
    with pytest.raises(NotPositive) as point:
        linalg.psd_sqrt(wide.elements[1](1.2))
    # both outcomes have eigenvalue (1 - g)/2 = -0.1 at g = 1.2, and the stack is refused whole
    for _ in range(2):  # a refused read raises every time
        with pytest.raises(NotPositive) as err:
            roots(1.2)
        assert str(err.value) == str(point.value)


def noncommuting():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    return ParamPovm(
        elements=tuple(PolyMatrix([I2 / 4, s * P / 4]) for P in (Z, X) for s in (1, -1)),
        g_max=0.9,
    )


def test_noncommuting_family_still_dilates(count_calls):
    povm = noncommuting()
    sqrts = count_calls(linalg, "psd_sqrt")
    model = build_model(povm)
    assert sqrts[0] > 0  # the psd_sqrt fallback
    s = plus_state()
    for g in (0.0, 0.3, 0.9):
        direct = [np.vdot(s, e(g) @ s).real for e in povm.elements]
        npt.assert_allclose(mt.outcome_probabilities(model, s, g), direct, atol=1e-12)


def test_noncommuting_roots_are_psd_sqrt_bit_for_bit(count_calls):
    povm = noncommuting()
    sqrts = count_calls(linalg, "psd_sqrt")
    for g in (0.0, *pv.default_grid(povm.g_max)):
        roots = np.array([linalg.psd_sqrt(e(g)) for e in povm.elements])
        assert pv.measurement_operators(povm, g).tobytes() == roots.tobytes()
        assert mt.positive_family(povm)(g).tobytes() == roots.tobytes()
    # per coupling: the oracle's four, measurement_operators' four, and positive_family's
    # four, one stack for every outcome
    assert sqrts[0] == 3 * 4 * 21


def test_stacked_root_read_equals_per_coupling_reads(count_calls):
    rng = np.random.default_rng(12)
    families = [spec.povm for spec in map(registry.get_instance, registry.REGISTRY) if spec.povm]
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(dim, 6))
        povm = wk.generate_linear_commuting_instance(rng, dim, n_out).povm
        # the diagonal path and the general eigenbasis path
        families += [povm, rotated_povm(povm, haar(rng, dim), rng.permutation(n_out))]
    families += [entangling(), noncommuting()]
    assert sum(povm.max_degree == 0 for povm in families) == 2  # flat and entangling
    sqrts = count_calls(linalg, "psd_sqrt")
    for povm in families:
        roots = mt.positive_family(povm)
        grid = pv.default_grid(povm.g_max)
        stacked = roots(grid)
        assert stacked.shape == (len(grid), povm.n_out, povm.dim, povm.dim)
        assert not stacked.flags.writeable
        assert stacked.tobytes() == np.array([roots(g) for g in grid]).tobytes()
    # only the non-commuting family: one psd_sqrt per coupling and outcome, in either form
    assert sqrts[0] == 2 * 20 * 4


def test_stacked_root_read_names_the_first_refused_coupling():
    # (I -+ g Z)/2 has eigenvalue (1 - g)/2, negative past g = 1, inside this grid
    wide = ParamPovm(elements=qubit_linear().elements, g_max=2.0)
    roots = mt.positive_family(wide)
    grid = pv.default_grid(wide.g_max)
    first = None
    for g in grid:
        try:
            roots(g)
        except NotPositive as err:
            first = str(err)
            break
    assert first is not None and g > 1
    with pytest.raises(NotPositive) as err:
        roots(grid)
    assert str(err.value) == first


def test_psd_clamp_rel_is_pinned_from_both_sides():
    # on (I -+ g Z)/2 just past g = 1 the relative eigenvalue is (1 - g)/(1 + g)
    roots = mt.positive_family(ParamPovm(elements=qubit_linear().elements, g_max=2.0))
    stack = roots(1 + 1e-10)  # about -5e-11: clamped to zero
    assert stack[0, 1, 1] == stack[1, 0, 0] == 0
    with pytest.raises(NotPositive, match=r"eigenvalue -2\.000e-10 \(scale 1\.000e\+00\)$"):
        roots(1 + 4e-10)  # about -2e-10


def test_isometry_tol_is_pinned_from_both_sides():
    # outcome 0 scaled by f deviates by (f^2 - 1) |E_0(g)| = (f^2 - 1) (1 + g) / 2
    povm = qubit_linear()
    grid = pv.default_grid(povm.g_max)
    roots = mt.positive_family(povm)
    mt.compose_isometry(scale_first(roots, lambda g: 1 + 2.6e-11), 2, povm.g_max)  # at most 5e-11
    with pytest.raises(NotIsometry, match=rf"by 2\.00\de-10 at g={grid[0]:.6g}$"):
        mt.compose_isometry(scale_first(roots, lambda g: 1 + 2e-10), 2, povm.g_max)  # about 2e-10


def test_eigenvalue_gap_tol_is_pinned_from_both_sides():
    # constant meter eigenvalues 0 and delta: 1.1e-9 apart they pass, 9e-10 apart they collide
    povm = qubit_linear()
    roots = mt.positive_family(povm)
    model = mt.compose_isometry(roots, 2, povm.g_max, meter_eigenvalues=(lambda g: 0.0, lambda g: 1.1e-9))
    assert model.meter_eigenvalues[1](0.5) == 1.1e-9
    with pytest.raises(ValueError, match=r"^meter eigenvalues collide \(gap 9\.000e-10\) at g=0\.0009$"):
        mt.compose_isometry(roots, 2, povm.g_max, meter_eigenvalues=(lambda g: 0.0, lambda g: 9e-10))


@pytest.mark.parametrize("read", [mt.outcome_probabilities, mt.meter_expectation])
def test_readouts_refuse_a_state_of_the_wrong_dimension(read):
    roots, reads = mt.positive_family(qubit_linear()), []
    model = mt.compose_isometry(
        lambda g: reads.append(g) or roots(g), 2, 0.9, meter_eigenvalues=(lambda g: 1.0, lambda g: -1.0)
    )
    with pytest.raises(DimensionError, match=r"^state has dimension 3, not the system's 2$"):
        read(model, np.array([1, 0, 0.0]), 0.1)
    assert len(reads) == 1  # no root read at g = 0.1


@pytest.mark.parametrize("make", [qubit_linear, noncommuting])
def test_root_stacks_are_read_only(make):
    povm = make()
    stack = pv.measurement_operators(povm, 0.3)
    assert stack.shape == (povm.n_out, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mt.positive_family(povm)(0.2)[1, 0, 0] = 1.0
    assert pv.measurement_operators(povm, 0.3).tobytes() == stack.tobytes()


def test_compose_isometry_refuses_infinite_g_max():
    roots = mt.positive_family(qubit_linear())
    with pytest.raises(OutOfValidityRange, match="positive and finite, got inf"):
        mt.compose_isometry(roots, 2, float("inf"))


def test_stacked_checks_name_the_first_failing_coupling():
    povm = qubit_linear()
    grid = pv.default_grid(povm.g_max)
    roots = scale_first(mt.positive_family(povm), lambda g: np.where(g >= grid[5], 1.1, 1.0))
    with pytest.raises(NotIsometry, match=f"at g={grid[5]:.6g}$"):
        mt.compose_isometry(roots, 2, povm.g_max)
    # a NaN deviation fails too
    blank = lambda g: np.where(g > 0, np.nan, 0.5)[..., None, None, None] * np.ones((2, 2, 2))
    with pytest.raises(NotIsometry, match=f"by nan at g={grid[0]:.6g}$"):
        mt.compose_isometry(blank, 2, povm.g_max)
    eigs = (lambda g: 1.0, lambda g: 1.0 if g >= grid[7] else 2.0)
    with pytest.raises(ValueError, match=rf"gap 0\.000e\+00\) at g={grid[7]:.6g}$"):
        mt.compose_isometry(mt.positive_family(povm), 2, povm.g_max, meter_eigenvalues=eigs)


@pytest.mark.parametrize(
    "stack, message",
    [
        (lambda roots, g: roots(g), r"shape \(20, 3, d, d\), got shape \(20, 2, 2, 2\)$"),  # 2 outcomes
        (lambda roots, g: np.eye(3) / 3, r"got shape \(3, 3\)$"),  # a matrix, not a stack
        (lambda roots, g: np.zeros((len(g), 3, 2, 3)), r"got shape \(20, 3, 2, 3\)$"),  # not square
        (lambda roots, g: np.zeros((len(g) - 1, 3, 2, 2)), r"got shape \(19, 3, 2, 2\)$"),  # a coupling short
    ],
)
def test_compose_refuses_misshapen_stacks(stack, message):
    roots = mt.positive_family(qubit_linear())
    with pytest.raises(DimensionError, match=message):
        mt.compose_isometry(lambda g: stack(roots, g), 3, 0.9)


@pytest.mark.parametrize("dim", [1, 2])
def test_isometry_at_returns_a_new_writable_array(dim):
    # at dim 1 the swapped stack reshapes without a copy, so isometry_at copies it itself
    povm = ParamPovm(
        elements=tuple(PolyMatrix([np.eye(dim) / 2, s * np.eye(dim) / 2]) for s in (1, -1)),
        g_max=0.9,
    )
    model = build_model(povm)
    U = mt.isometry_at(model, 0.3)
    expected = U.copy()
    U[...] = 0.0
    assert mt.isometry_at(model, 0.3).tobytes() == expected.tobytes()
