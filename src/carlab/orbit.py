"""Minimum distance from the identity to unitaries carrying one vector
state onto another: closed forms plus independent search oracles.

The two constraint modes are deliberately distinct code paths.  The exact
mode insists u xi = eta; the state mode only requires equality of the
induced vector states, which frees a global phase on the image.  The gap
between the modes is precisely where the question about the product-state
constant lives, so neither is allowed to borrow the other's answer.
Both oracles run the same compass search, whose polls are evaluated as
one stacked call through the batched `linalg` layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import MAX_DIM
from .errors import DomainError, InvalidInputError, SizeLimitError
from .linalg import (
    expi_hermitian,
    hermitian_from_params,
    operator_norms,
    two_plane_unitary,
    unit_vector_pair,
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
    xi, eta = unit_vector_pair(xi, eta)
    t = complex(np.vdot(xi, eta))
    a = min(abs(t), 1.0)
    return OverlapReport(
        overlap=t,
        abs_overlap=a,
        closed_form_distance=float(np.sqrt(2.0 * (1.0 - a))),
    )


@dataclass(frozen=True)
class SearchResult:
    """Least ||I - u|| a search oracle found, and how its search ended.

    `evals_used` never exceeds the budget, and `budget_exhausted` holds iff
    it reached it.  `final_step` is the poll step the last restart ended
    with: below the step floor iff that restart converged rather than
    being cut off by the budget.  Spare restarts spend the budget after a
    converged one, so `converged_restarts` counts the restarts that ended
    below the floor and `best_step` is the last step of the one that found
    `distance`.
    """

    distance: float
    evals_used: int
    final_step: float
    budget_exhausted: bool
    converged_restarts: int
    best_step: float


def _stabilizer(eta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Stabilizer elements of eta from rows of (d-1)^2 real parameters.

    Each row is a Hermitian generator on the orthogonal complement of eta;
    its element is the identity on C*eta and exp(iH) on the complement.
    """
    d = eta.shape[0]
    q = np.linalg.qr(eta.reshape(d, 1), mode="complete")[0][:, 1:]
    proj = np.outer(eta, eta.conj())

    def elements(x: np.ndarray) -> np.ndarray:
        w = expi_hermitian(hermitian_from_params(x, d - 1))
        return proj + q @ w @ q.conj().T

    return elements


def _pattern_search(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    f0: float,
    budget: int,
) -> tuple[float, int, float]:
    """Compass search with a complete poll and a halving step schedule.

    Each iteration evaluates all 2P moves x +/- step e_i, ordered +e_0,
    -e_0, +e_1, ..., as one (2P, P) stack; it moves to the best poll point
    if that improves on fx and halves the step otherwise (Kolda, Lewis &
    Torczon, SIAM Review 45, 2003).  A poll is cut to its first moves when
    the budget runs short.  Returns the best value, the evaluations used
    and the final step.
    """
    n = x0.size
    moves = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    x, fx = x0, f0
    evals = 0
    step = _STEP_INIT
    while step >= _STEP_MIN and evals < budget:
        poll = x + step * moves[: budget - evals]
        fy = f(poll)
        evals += poll.shape[0]
        best = int(np.argmin(fy))
        if fy[best] < fx:
            x, fx = poll[best], float(fy[best])
        elif evals < budget:
            step *= 0.5
    return fx, evals, step


def _search_minimum(
    objective: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    budget: int,
    seed: int,
) -> SearchResult:
    """Identity start plus seeded random restarts, run in turn on one budget."""
    rng = np.random.default_rng(seed)
    used = 0
    best = np.inf
    step = best_step = _STEP_INIT
    converged = 0
    for restart in range(_MAX_RESTARTS):
        if restart == 0:
            x0 = np.zeros(n_params)
        else:
            x0 = rng.normal(scale=1.0, size=n_params)
        if used >= budget:
            break
        f0 = float(objective(x0[None])[0])
        used += 1
        fx, evals, step = _pattern_search(objective, x0, f0, budget - used)
        used += evals
        converged += step < _STEP_MIN
        if fx < best:
            best, best_step = fx, step
    return SearchResult(
        distance=best,
        evals_used=used,
        final_step=step,
        budget_exhausted=used >= budget,
        converged_restarts=converged,
        best_step=best_step,
    )


def _check_oracle_inputs(xi, eta, budget: int) -> tuple[np.ndarray, np.ndarray]:
    xi, eta = unit_vector_pair(xi, eta)
    if xi.shape[0] not in _ORACLE_DIMS:
        raise DomainError(
            f"search oracle supports dimensions {_ORACLE_DIMS}, got {xi.shape[0]}"
        )
    if budget < 1000:
        raise InvalidInputError("oracle budget must be at least 1000")
    return xi, eta


def _exact_image_objective(xi: np.ndarray, eta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """||I - u|| for each parameter row, u = (stabilizer element) (xi -> eta)."""
    stabilizer = _stabilizer(eta)
    base = two_plane_unitary(xi, eta)
    eye = np.eye(xi.shape[0], dtype=np.complex128)

    def objective(x: np.ndarray) -> np.ndarray:
        return operator_norms(eye - stabilizer(x) @ base)

    return objective


def _state_objective(xi: np.ndarray, eta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """||I - u|| for each parameter row, u = (stabilizer element) (xi -> e^{i x_0} eta).

    Column 0 is the phase on the image line, the rest the stabilizer
    generator.  A poll moves the phase only along +/-e_0, so it holds at
    most three distinct phases and builds one carrier for each.
    """
    stabilizer = _stabilizer(eta)
    eye = np.eye(xi.shape[0], dtype=np.complex128)

    def objective(x: np.ndarray) -> np.ndarray:
        phases, which = np.unique(x[:, 0], return_inverse=True)
        bases = np.stack([two_plane_unitary(xi, np.exp(1j * p) * eta) for p in phases])
        return operator_norms(eye - stabilizer(x[:, 1:]) @ bases[which])

    return objective


def min_distance_bruteforce(xi, eta, budget: int = 10_000, seed: int = 0) -> SearchResult:
    """Search minimum of ||I - u|| over unitaries with u xi = eta exactly.

    Every such unitary factors as (rotation carrying xi to eta) followed by
    an element of the stabilizer of eta, so the search runs over the
    stabilizer: exp of a Hermitian generator on the orthogonal complement
    of eta.  Seeded random restarts feed a deterministic compass search.
    The result can never fall below ||xi - eta||, which the closed form
    equals when <xi|eta> >= 0.
    """
    xi, eta = _check_oracle_inputs(xi, eta, budget)
    k = xi.shape[0] - 1
    return _search_minimum(_exact_image_objective(xi, eta), k * k, budget, seed)


def state_min_distance_bruteforce(
    xi, eta, budget: int = 10_000, seed: int = 0
) -> SearchResult:
    """Search minimum of ||I - u|| over unitaries with u xi = (phase) eta.

    The constraint is equality of the induced vector states, not of the
    vectors, so one extra search parameter carries the free phase on the
    image line; the rest of the parametrization is the stabilizer, exactly
    as in the exact-image oracle.
    """
    xi, eta = _check_oracle_inputs(xi, eta, budget)
    k = xi.shape[0] - 1
    return _search_minimum(_state_objective(xi, eta), 1 + k * k, budget, seed)


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
        x, e = unit_vector_pair(x, e)
        if x.shape[0] < 2:
            raise InvalidInputError("factors must be vectors of dimension >= 2")
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
