"""Built-in instances exercising the interesting regimes.

  qubit-linear  two-outcome qubit family (I +- g sigma_z)/2: exact contextual
                values with a first-order pole, the canonical weak-value setup
  flat          both outcomes I/2: no information at any coupling, so no
                exact contextual values for a traceless observable
  eq70          raw 2x2 linear family with determinant g^2: both singular
                values vanish nowhere yet one is second order, refuting the
                first-order claim, and truncation does not commute with
                taking singular values
  quad-cx       derived 3x3 diagonal family, quadratic in g: exact contextual
                values at every coupling, none after truncating to first order

Building an instance does no linear algebra; the test suite certifies each
instance's designed properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .files import InstanceSpec
from .povm import ParamPovm, PolyMatrix

SIGMA_Z = np.diag([1.0, -1.0])

#: grid on which the tests check quad-cx's designed properties; starts at 0.01
#: so the full-family pseudoinverse solve stays well-conditioned enough for a 1e-10 residual
QUAD_CX_GRID = np.geomspace(0.01, 0.5, 12)


def _qubit_linear() -> InstanceSpec:
    eye = np.eye(2)
    elements = (
        PolyMatrix([eye / 2, SIGMA_Z / 2]),
        PolyMatrix([eye / 2, -SIGMA_Z / 2]),
    )
    theta = np.pi / 8
    return InstanceSpec(
        name="qubit-linear",
        povm=ParamPovm(elements=elements, g_max=0.9),
        observable=SIGMA_Z.astype(complex),
        psi_i=np.array([1.0, 1.0]) / np.sqrt(2),
        psi_f=np.array([np.cos(theta), np.sin(theta)]),
        notes="two-outcome qubit family (I +- g Z)/2 with observable Z",
    )


def _flat() -> InstanceSpec:
    eye = np.eye(2)
    elements = (PolyMatrix([eye / 2]), PolyMatrix([eye / 2]))
    return InstanceSpec(
        name="flat",
        povm=ParamPovm(elements=elements, g_max=0.9),
        observable=SIGMA_Z.astype(complex),
        psi_i=np.array([1.0, 1.0]) / np.sqrt(2),
        notes="uninformative family: both outcomes I/2 at every coupling",
    )


def _eq70() -> InstanceSpec:
    c0 = np.array([[1.0, 1.0], [-1.0, -1.0]])
    c1 = np.eye(2)
    return InstanceSpec(
        name="eq70",
        fmatrix=PolyMatrix([c0, c1]),
        notes=(
            "linear 2x2 family [[1+g, 1], [-1, -1+g]] with determinant g^2; "
            "its smaller singular value is second order although neither "
            "vanishes identically"
        ),
        fmatrix_g_max=0.5,
    )


def _quad_cx() -> InstanceSpec:
    # diagonal family E_j(g) = diag(P[:, j]) + g^2 diag(Q[:, j]):
    # P is rank two with its first two rows equal, so the constant part
    # cannot reproduce the observable, while det F(g) = (3/4) g^2 (1 - 3g^2/4)
    # makes the full family exactly solvable at every nonzero coupling.
    P = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    Q = 0.25 * np.array(
        [
            [1.0, -2.0, 1.0],
            [-2.0, 1.0, 1.0],
            [1.0, 1.0, -2.0],
        ]
    )
    zero = np.zeros((3, 3))
    elements = tuple(
        PolyMatrix([np.diag(P[:, j]), zero, np.diag(Q[:, j])]) for j in range(3)
    )
    return InstanceSpec(
        name="quad-cx",
        povm=ParamPovm(elements=elements, g_max=0.5),
        observable=np.diag([1.0, -1.0, 0.0]).astype(complex),
        psi_i=np.array([1.0, 1.0, 1.0]) / np.sqrt(3),
        psi_f=np.array([1.0, 0.0, 1.0]) / np.sqrt(2),
        notes=(
            "quadratic 3x3 diagonal family: exact contextual values for the "
            "full family on the check grid, none for its first-order truncation"
        ),
    )


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    summary: str
    build: Callable[[], InstanceSpec]


REGISTRY: dict[str, RegistryEntry] = {
    "qubit-linear": RegistryEntry(
        name="qubit-linear",
        summary="qubit family (I +- g Z)/2: contextual values +-1/g, weak-value limit",
        build=_qubit_linear,
    ),
    "flat": RegistryEntry(
        name="flat",
        summary="uninformative family E_1 = E_2 = I/2: no exact contextual values for Z",
        build=_flat,
    ),
    "eq70": RegistryEntry(
        name="eq70",
        summary="linear 2x2 family with det g^2: counterexample to the first-order claim",
        build=_eq70,
    ),
    "quad-cx": RegistryEntry(
        name="quad-cx",
        summary="quadratic diagonal family: solvable in full, unsolvable after truncation",
        build=_quad_cx,
    ),
}


def get_instance(name: str) -> InstanceSpec:
    """Build a fresh copy of a registry instance; KeyError lists the known names."""
    try:
        entry = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown instance {name!r} (known: {known})") from None
    return entry.build()
