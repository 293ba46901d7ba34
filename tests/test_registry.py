from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from weaklab import registry
from weaklab.contextual import build_F, exact_cv_exists, pseudoinverse_cv
from weaklab.povm import minimum_nonzero_order, validate


def test_registry_lists_four_instances():
    assert sorted(registry.REGISTRY) == ["eq70", "flat", "quad-cx", "qubit-linear"]
    for name, entry in registry.REGISTRY.items():
        assert entry.name == name
        assert entry.summary


def test_unknown_name_lists_known():
    with pytest.raises(KeyError, match="quad-cx"):
        registry.get_instance("does-not-exist")


def test_qubit_linear_coefficients():
    spec = registry.get_instance("qubit-linear")
    e0, e1 = spec.povm.elements
    npt.assert_array_equal(e0.coefficient(0), np.eye(2) / 2)
    npt.assert_array_equal(e0.coefficient(1), np.diag([0.5, -0.5]))
    npt.assert_array_equal(e1.coefficient(1), np.diag([-0.5, 0.5]))
    assert spec.povm.g_max == 0.9
    assert validate(spec.povm).passed
    npt.assert_allclose(spec.psi_f, [np.cos(np.pi / 8), np.sin(np.pi / 8)])


def test_flat_has_no_exact_cvs():
    spec = registry.get_instance("flat")
    fam = build_F(spec.povm, spec.observable)
    grid = np.geomspace(1e-3, 0.9, 10)
    assert not exact_cv_exists(fam, grid)
    sol = pseudoinverse_cv(fam, 0.3)
    npt.assert_allclose(sol.alpha, [0.0, 0.0], atol=1e-12)


def test_eq70_is_raw_family():
    spec = registry.get_instance("eq70")
    assert spec.povm is None
    F = spec.fmatrix(0.2)
    npt.assert_allclose(F, [[1.2, 1.0], [-1.0, -0.8]])
    npt.assert_allclose(np.linalg.det(F), 0.04, rtol=1e-12)


def test_quad_cx_certificates():
    spec = registry.get_instance("quad-cx")
    assert minimum_nonzero_order(spec.povm).n == 2
    assert validate(spec.povm).passed
    # determinant certificate: |det F(g)| = (3/4) g^2 (1 - 3 g^2 / 4);
    # the sign depends on the descending-eigenvalue row order
    for g in (0.05, 0.2, 0.5):
        F = build_F(spec.povm, spec.observable).at(g)
        npt.assert_allclose(
            abs(np.linalg.det(F)), 0.75 * g**2 * (1 - 0.75 * g**2), rtol=1e-10
        )


def test_quad_cx_grid_frozen():
    npt.assert_allclose(registry.QUAD_CX_GRID, np.geomspace(0.01, 0.5, 12))
    assert registry.QUAD_CX_GRID[0] == pytest.approx(0.01)


def test_instances_are_rebuilt_fresh():
    a = registry.get_instance("qubit-linear")
    b = registry.get_instance("qubit-linear")
    assert a is not b
    assert a.povm.elements[0].coefficient(0) is not b.povm.elements[0].coefficient(0)
