"""Vector states on matrix algebras.

A state is represented by its defining unit vector, never by a density
matrix.  This keeps purity exact and makes unitary pullback a single
matrix-vector product; quantities of a pair of states are computed on
their span, whatever the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import (
    as_square_matrix,
    as_unit_vector,
    is_unitary,
    operator_norm,
    trace_norm,
    unit_vector_pair,
)


@dataclass(frozen=True)
class VectorState:
    """The pure state a -> <a v, v> defined by a unit vector v."""

    vector: np.ndarray

    def __post_init__(self):
        v = as_unit_vector(self.vector)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def pullback(state: VectorState, u) -> VectorState:
    """The state a -> state(u a u*), i.e. the vector state of u* v."""
    u = as_square_matrix(u)
    if u.shape[0] != state.dim:
        raise InvalidInputError(
            f"unitary dimension {u.shape[0]} != state dimension {state.dim}"
        )
    if not is_unitary(u):
        raise InvalidInputError("pullback needs a unitary")
    return VectorState(u.conj().T @ state.vector)


def _on_span(xi, eta) -> tuple[np.ndarray, ...]:
    """P_xi - P_eta, xi and eta in an orthonormal basis of span{xi, eta}.

    The R factor of a QR of the d x 2 matrix [xi eta] holds the coordinates
    in the columns of Q; exact also for colinear pairs and d = 1.
    """
    xi, eta = unit_vector_pair(xi, eta)
    x, y = np.linalg.qr(np.stack([xi, eta], axis=1), mode="r").T
    return np.outer(x, x.conj()) - np.outer(y, y.conj()), x, y


def state_distance(phi: VectorState, psi: VectorState) -> float:
    """Norm of the functional difference, as a trace-norm of projections.

    Equals 2 sqrt(1 - |<v_phi|v_psi>|^2) for vector states.
    """
    return trace_norm(_on_span(phi.vector, psi.vector)[0])


@dataclass(frozen=True)
class SeparationWitness:
    """Expectations, norm and trace norm (the states' distance) of P_xi - P_eta."""

    first_value: float
    second_value: float
    norm: float
    distance: float


def separation_witness(xi, eta) -> SeparationWitness:
    """The observable P_xi - P_eta that pulls the two states apart.

    With c = |<xi|eta>| the expectations are 1 - c^2 in the first state and
    c^2 - 1 in the second, and the observable has norm sqrt(1 - c^2): close
    to orthogonality it almost realizes the full functional distance 2.
    """
    a, x, y = _on_span(xi, eta)
    return SeparationWitness(
        first_value=float(np.vdot(x, a @ x).real),
        second_value=float(np.vdot(y, a @ y).real),
        norm=operator_norm(a),
        distance=trace_norm(a),
    )
