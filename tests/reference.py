"""Reference helpers that only the tests use.

Dense or scalar constructions the package itself never needs: rank-one
projectors and parametrized rotations to build expected values from, the
test-set gap sup_a |phi(a) - psi(u a u*)| the witness search is checked
against, the writer of the angle-file format the package reads, and the
level-to-dimension map.  Each keeps the validation it had in the package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from carlab.config import CONTRACTION_SLACK
from carlab.errors import DomainError, InvalidInputError
from carlab.linalg import as_square_matrix, as_unit_vector, operator_norm
from carlab.sequences import validate_angles
from carlab.states import VectorState
from carlab.truncation import check_level


def projector(v) -> np.ndarray:
    """Rank-one orthogonal projection onto the span of a unit vector."""
    v = as_unit_vector(v)
    return np.outer(v, v.conj())


def rotation_unitary(t: float) -> np.ndarray:
    """The 2x2 real rotation with first column (t, sqrt(1-t^2)).

    Maps (1, 0) to (t, sqrt(1-t^2)) and satisfies ||I - u||^2 = 2 - 2t.
    """
    t = float(t)
    if not np.isfinite(t) or abs(t) > 1.0:
        raise DomainError(f"rotation parameter {t!r} outside [-1, 1]")
    s = np.sqrt(max(1.0 - t * t, 0.0))
    return np.array([[t, -s], [s, t]], dtype=np.complex128)


def sup_gap(
    phi: VectorState,
    psi: VectorState,
    u,
    test_set: Sequence[np.ndarray],
) -> float:
    """max over the test set of |phi(a) - psi(u a u*)|.

    Test elements must be contractions; the gap over any such finite set is
    dominated by the functional norm ||phi - psi o Ad u||.
    """
    u = as_square_matrix(u)
    if phi.dim != psi.dim or u.shape[0] != phi.dim:
        raise InvalidInputError("state and unitary dimensions must agree")
    pulled = u.conj().T @ psi.vector
    worst = 0.0
    for a in test_set:
        a = as_square_matrix(a)
        if operator_norm(a) > 1.0 + CONTRACTION_SLACK:
            raise InvalidInputError("test elements must be contractions")
        gap = abs(complex(np.vdot(phi.vector, a @ phi.vector))
                  - complex(np.vdot(pulled, a @ pulled)))
        worst = max(worst, gap)
    return worst


def write_angle_file(path, values) -> None:
    """Write the plain-text sequence format: one decimal angle per line."""
    arr = validate_angles(values)
    Path(path).write_text("".join(format(float(v), ".17g") + "\n" for v in arr))


def level_dim(n: int) -> int:
    """Dimension 2^n of the level-n truncation."""
    return 1 << check_level(n)
