"""Finite truncations of the infinite tensor power of 2x2 matrices.

Level n means the 2^n-dimensional full matrix algebra; lower levels embed
unitally by a -> a (x) I.  Tensor factor order is fixed left to right:
factor 1 is the outermost block of the Kronecker layout, so embeddings
and the intertwiner chains agree on indexing.
"""

from __future__ import annotations

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


def product_vector(angles) -> np.ndarray:
    """Kronecker product of the 2-vectors (cos a_j, sin a_j).

    A unit vector of dimension 2^len(angles); slicing the angle list first
    gives the tail vectors used in the separation experiments.
    """
    arr = validate_angles(angles)
    if arr.size == 0:
        raise LevelError("need at least one angle")
    check_level(arr.size)
    out = np.ones(1, dtype=np.complex128)
    for a in arr:
        out = np.kron(out, np.array([np.cos(a), np.sin(a)], dtype=np.complex128))
    return out
