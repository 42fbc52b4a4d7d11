"""Minimum distance from the identity to unitaries carrying one vector
state onto another: closed forms plus independent search oracles.

The two constraint modes are deliberately distinct code paths.  The exact
mode insists u xi = eta; the state mode only requires equality of the
induced vector states, which frees a global phase on the image.  The gap
between the modes is precisely where the question about the product-state
constant lives, so neither is allowed to borrow the other's answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import MAX_DIM
from .errors import DomainError, InvalidInputError, SizeLimitError
from .linalg import (
    as_unit_vector,
    expi_hermitian,
    hermitian_from_params,
    operator_norm,
    two_plane_unitary,
)

_ORACLE_DIMS = (2, 3, 4)
_MAX_RESTARTS = 8
_STEP_INIT = 0.5
_STEP_MIN = 1e-6


@dataclass(frozen=True)
class OverlapReport:
    """Overlap of two unit vectors and the closed-form minimum distance."""

    overlap: complex
    abs_overlap: float
    closed_form_distance: float


def min_distance_closed_form(xi, eta) -> OverlapReport:
    """Closed form sqrt(2 (1 - |<xi|eta>|)) with the overlap that feeds it."""
    xi = as_unit_vector(xi)
    eta = as_unit_vector(eta)
    if xi.shape != eta.shape:
        raise InvalidInputError(
            f"dimension mismatch: {xi.shape[0]} vs {eta.shape[0]}"
        )
    t = complex(np.vdot(xi, eta))
    a = min(abs(t), 1.0)
    return OverlapReport(
        overlap=t,
        abs_overlap=a,
        closed_form_distance=float(np.sqrt(2.0 * (1.0 - a))),
    )


def _stabilizer_frame(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection onto C*eta and an orthonormal basis of its complement."""
    d = eta.shape[0]
    q = np.linalg.qr(eta.reshape(d, 1), mode="complete")[0][:, 1:]
    return np.outer(eta, eta.conj()), q


def _coordinate_descent(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    f0: float,
    budget: int,
) -> tuple[float, int]:
    """Deterministic coordinate descent with a halving step schedule."""
    x, fx = x0.copy(), f0
    evals = 0
    step = _STEP_INIT
    while step >= _STEP_MIN and evals < budget:
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    return fx, evals
                y = x.copy()
                y[i] += sign * step
                fy = f(y)
                evals += 1
                if fy < fx:
                    x, fx = y, fy
                    improved = True
        if not improved:
            step *= 0.5
    return fx, evals


def _search_minimum(
    objective: Callable[[np.ndarray], float],
    n_params: int,
    budget: int,
    seed: int,
) -> float:
    """Identity start plus seeded random restarts, all budget-capped."""
    rng = np.random.default_rng(seed)
    used = 0
    best = np.inf
    for restart in range(_MAX_RESTARTS):
        if restart == 0:
            x0 = np.zeros(n_params)
        else:
            x0 = rng.normal(scale=1.0, size=n_params)
        if used >= budget:
            break
        f0 = objective(x0)
        used += 1
        best = min(best, f0)
        fx, evals = _coordinate_descent(objective, x0, f0, budget - used)
        used += evals
        best = min(best, fx)
    return best


def _check_oracle_inputs(xi, eta, budget: int) -> tuple[np.ndarray, np.ndarray]:
    xi = as_unit_vector(xi)
    eta = as_unit_vector(eta)
    if xi.shape != eta.shape:
        raise InvalidInputError(
            f"dimension mismatch: {xi.shape[0]} vs {eta.shape[0]}"
        )
    if xi.shape[0] not in _ORACLE_DIMS:
        raise DomainError(
            f"search oracle supports dimensions {_ORACLE_DIMS}, got {xi.shape[0]}"
        )
    if budget < 1000:
        raise InvalidInputError("oracle budget must be at least 1000")
    return xi, eta


def min_distance_bruteforce(xi, eta, budget: int = 10_000, seed: int = 0) -> float:
    """Search minimum of ||I - u|| over unitaries with u xi = eta exactly.

    Every such unitary factors as (rotation carrying xi to eta) followed by
    an element of the stabilizer of eta, so the search runs over the
    stabilizer: exp of a Hermitian generator on the orthogonal complement
    of eta.  Seeded random restarts feed a deterministic coordinate
    descent.  The result can never fall below ||xi - eta||, which the
    closed form equals when <xi|eta> >= 0.
    """
    xi, eta = _check_oracle_inputs(xi, eta, budget)
    d = xi.shape[0]
    k = d - 1
    proj, q = _stabilizer_frame(eta)
    base = two_plane_unitary(xi, eta)
    eye = np.eye(d, dtype=np.complex128)

    def objective(x: np.ndarray) -> float:
        w = expi_hermitian(hermitian_from_params(x, k))
        u = (proj + q @ w @ q.conj().T) @ base
        return operator_norm(eye - u)

    return _search_minimum(objective, k * k, budget, seed)


def state_min_distance_bruteforce(
    xi, eta, budget: int = 10_000, seed: int = 0
) -> float:
    """Search minimum of ||I - u|| over unitaries with u xi = (phase) eta.

    The constraint is equality of the induced vector states, not of the
    vectors, so one extra search parameter carries the free phase on the
    image line; the rest of the parametrization is the stabilizer, exactly
    as in the exact-image oracle.
    """
    xi, eta = _check_oracle_inputs(xi, eta, budget)
    d = xi.shape[0]
    k = d - 1
    proj, q = _stabilizer_frame(eta)
    eye = np.eye(d, dtype=np.complex128)

    def objective(x: np.ndarray) -> float:
        target = np.exp(1j * x[0]) * eta
        base = two_plane_unitary(xi, target)
        w = expi_hermitian(hermitian_from_params(x[1:], k))
        u = (proj + q @ w @ q.conj().T) @ base
        return operator_norm(eye - u)

    return _search_minimum(objective, 1 + k * k, budget, seed)


@dataclass(frozen=True)
class ProductDistanceReport:
    """Two rival closed forms for the product-state minimum distance.

    `distance_single` is sqrt(2 (1 - p)) with p the product of factor
    overlap moduli; it agrees with the one-factor closed form.
    `distance_doubled` carries a leading factor 2.  The doubled value
    cannot be attained once p < 1/2 (no unitary is farther than 2 from the
    identity), so callers treat `distance_single` as authoritative after
    the search oracle has adjudicated; the doubled value is reported, never
    asserted.
    """

    overlap_product: float
    distance_single: float
    distance_doubled: float


def product_min_distance(xis: Sequence, etas: Sequence) -> ProductDistanceReport:
    """Closed-form candidates for tensor products of vector states.

    The overlap of the product vectors factorizes, so only the product of
    the per-factor overlap moduli enters.
    """
    if len(xis) != len(etas) or not xis:
        raise InvalidInputError("need equally many nonempty factor lists")
    total = 1
    log_p = 0.0
    for x, e in zip(xis, etas):
        x = as_unit_vector(x)
        e = as_unit_vector(e)
        if x.shape != e.shape or x.shape[0] < 2:
            raise InvalidInputError("factors must be same-dimension vectors, dim >= 2")
        total *= x.shape[0]
        if total > MAX_DIM:
            raise SizeLimitError(
                f"product dimension exceeds cap {MAX_DIM}",
                estimated_size=total,
            )
        with np.errstate(divide="ignore"):
            log_p += float(np.log(min(abs(np.vdot(x, e)), 1.0)))
    p = float(np.exp(log_p))
    root = float(np.sqrt(2.0 * (1.0 - p)))
    return ProductDistanceReport(
        overlap_product=p,
        distance_single=root,
        distance_doubled=2.0 * root,
    )
