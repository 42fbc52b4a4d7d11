"""Numeric caps and tolerances shared by every module in the package.

Matrices are dense complex128 where they are formed; chains and pairs of
vector states keep their tensor structure and form none of full
dimension.  The caps (dimension 4096, level 12) keep eigen-decompositions
trustworthy and memory bounded; everything above them is rejected rather
than approximated.
"""

MAX_DIM = 4096
MAX_LEVEL = 12
UNITARY_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
CONTRACTION_SLACK = 1e-9
WITNESS_STRICTNESS = 1e-12
