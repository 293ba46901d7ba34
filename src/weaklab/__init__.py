"""Numerical workbench for contextual-value weak measurement.

Core objects: matrix families polynomial in a coupling strength g
(PolyMatrix), complete positive outcome families built from them
(ParamPovm), their spectral matrices and contextual values (FMatrix),
dilation meter models, conditioned averages and weak limits, and
small-coupling asymptotics of singular values and pseudoinverse solutions.
"""

__version__ = "0.1.0"
