"""Numeric caps and tolerances shared by every module in the package.

Matrices are dense complex128 where they are formed; chains and pairs of
vector states keep their tensor structure and form none of full
dimension.  Every cap is compared here (level 12, so dimension 2^12;
2^24 array entries; 128 MB of net elements): past one, a request is
refused with a SizeLimitError.  Blocked kernels work in BLOCK_BYTES.
The seed range, the oracle budget floor, the phase policies and the
oracle dimensions are here too, so the parser checks them without numpy.
"""

import sys

from .errors import InvalidInputError, SizeLimitError

MAX_LEVEL = 12
MAX_DIM = 1 << MAX_LEVEL
UNITARY_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
CONTRACTION_SLACK = 1e-9
CONSTRUCTION_TOL = 1e-9  # a built unitary's miss of unitarity or of its carried vector
WITNESS_STRICTNESS = 1e-12
DISTANCE_STRICTNESS = 1e-9  # margin by which a witness's distance must clear 2
MAX_COUNT = 1 << 24
# Of complex128 unitary or test-net elements, 2,000,000 at dim 2.  It caps
# an exhaustive net's element count as if the net were formed whole, though
# only its phases and SU(2) grid are held.
MAX_NET_BYTES = 128_000_000
# One working array of a blocked kernel, a few of which fit a 2 MiB L2
# cache together: a drawn block of Haar unitaries or test contractions, a
# block of net elements checked for unitarity, a float (probes x
# elements) tile of the nearest-element scan or a slice of its exact-norm
# pairs, or the stacked polls of a block of search trials.
BLOCK_BYTES = 1 << 18
# phase policies of a chain's steps, the first the default; `intertwiner.POLICY_TABLE` defines each
PHASE_POLICIES = ("none", "eigenvalue-one")
# vector dimensions the search oracles run at
ORACLE_DIMS = (2, 3, 4)


def block_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` bytes that fit one working block, at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def check_count(count: int, what: str) -> int:
    """`count`, refused past MAX_COUNT: the longest array (128 MiB of float64) a count forms."""
    if count > MAX_COUNT:
        raise SizeLimitError(f"{what} {count} exceeds the cap {MAX_COUNT}", estimated_size=count)
    return count


def check_dim(dim: int, what: str) -> int:
    """`dim`, refused past MAX_DIM: the widest vector or matrix side formed (2^MAX_LEVEL)."""
    if dim > MAX_DIM:
        raise SizeLimitError(f"{what} {dim} exceeds the cap {MAX_DIM}", estimated_size=dim)
    return dim


def pow2(n: int) -> int | float:
    """2^n for n >= 0, or inf past the float range: a size never too long to print or report."""
    return 1 << n if n < sys.float_info.max_exp else float("inf")


def check_seed(seed: int) -> int:
    """`seed` if it is a root seed of the stream, an integer in [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise InvalidInputError(f"seed {seed} is outside [0, 2^64)")
    return seed


def check_budget(budget: int) -> int:
    """`budget`, refused below 1000 objective evaluations per pair: too few to converge."""
    if budget < 1000:
        raise InvalidInputError("oracle budget must be at least 1000")
    return budget
