"""Finite truncations of the infinite tensor power of 2x2 matrices.

Level n means the 2^n-dimensional full matrix algebra; lower levels embed
unitally by a -> a (x) I.  Tensor factor order is fixed left to right:
factor 1 is the outermost block of the Kronecker layout, so embeddings
and the intertwiner chains agree on indexing.  Every Kronecker product of
factor vectors in the package is formed here.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from itertools import accumulate

import numpy as np

from .config import check_dim, pow2
from .errors import LevelError
from .linalg import as_square_matrix
from .sequences import validate_angles


def check_level(n: int) -> int:
    """A truncation level: negative is a LevelError, a dimension 2^n past the cap a size limit."""
    n = int(n)
    if n < 0:
        raise LevelError(f"level {n} is negative")
    check_dim(pow2(n), f"level {n}: dimension")
    return n


def level_of_dim(dim: int) -> int:
    """The level whose truncation has the given dimension."""
    dim = int(dim)
    if dim >= 1 and dim & (dim - 1) == 0:
        return check_level(dim.bit_length() - 1)
    raise LevelError(f"dimension {dim} is not a power of two")


def embed(a, n: int) -> np.ndarray:
    """Embed a level-m element into level n >= m as a (x) I.

    Norm-preserving and multiplicative; embedding twice equals embedding
    once to the final level.
    """
    a = as_square_matrix(a)
    m = level_of_dim(a.shape[0])
    n = check_level(n)
    if m > n:
        raise LevelError(f"cannot embed level {m} into lower level {n}")
    if m == n:
        return a
    return np.kron(a, np.eye(1 << (n - m), dtype=np.complex128))


def angle_vectors(angles: np.ndarray) -> np.ndarray:
    """The (k, 2) complex stack of factor vectors (cos a_j, sin a_j)."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.complex128)


def kron_prefixes(factors: np.ndarray) -> Iterator[np.ndarray]:
    """f_1, f_1 (x) f_2, ... for a (k, 2) stack of factor vectors, each from the one before."""
    return accumulate(factors, np.kron)


def kron_vectors(factors: np.ndarray) -> np.ndarray:
    """f_1 (x) ... (x) f_k for a (k, 2) stack of factor vectors, factor 1 outermost."""
    return reduce(np.kron, factors)


def product_vector(angles) -> np.ndarray:
    """Kronecker product of the 2-vectors (cos a_j, sin a_j).

    A unit vector of dimension 2^len(angles).
    """
    arr = validate_angles(angles)
    if arr.size == 0:
        raise LevelError("need at least one angle")
    check_level(arr.size)
    return kron_vectors(angle_vectors(arr))
