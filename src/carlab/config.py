"""Numeric caps and tolerances shared by every module in the package.

Matrices are dense complex128 throughout.  The dimension cap (4096 =
2**12 factors) keeps eigen-decompositions trustworthy and memory
bounded; everything above it is rejected rather than approximated.
"""

MAX_DIM = 4096
MAX_LEVEL = 12
UNITARY_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
CONTRACTION_SLACK = 1e-9
WITNESS_STRICTNESS = 1e-12
