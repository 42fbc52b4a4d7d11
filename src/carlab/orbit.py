"""Minimum distance from the identity to unitaries carrying one vector
state onto another: the closed forms, from the angles between factor
lines through `sequences`, plus independent search oracles.

The two constraint modes are deliberately distinct code paths.  The exact
mode insists u xi = eta; the state mode only requires equality of the
induced vector states, which frees a global phase on the image.  The gap
between the modes is precisely where the question about the product-state
constant lives, so neither is allowed to borrow the other's answer.
Both oracles run the same compass search on many pairs at once.  Trials
run in lockstep: each iteration evaluates the poll of every trial, and
the start point of each trial whose fx is still inf, as one stacked call
through the batched `linalg` layer, while each trial's restarts stay
sequential on its own budget, so a trial's result does not depend on the
others.  A finished trial keeps its slot with no budget left and adds no
rows.  The single-pair oracles are the one-trial case.  Both objectives
are evaluated in eta's frame, where a stabilizer element is
diag(1, exp(iH)) and a trial's carrier is the three constant matrices of
`linalg.two_plane_terms` combined with the image phase, so a row costs
one exp(iH) and one operator norm of a d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import ORACLE_DIMS, block_rows, check_budget, check_dim
from .errors import DomainError, InvalidInputError
from .linalg import (
    expi_hermitian,
    hermitian_from_params,
    operator_norms,
    overlap_residuals,
    two_plane_terms,
    unit_vector_pair,
)
from .sequences import chord_distances, cosine_products

_MAX_RESTARTS = 8
_STEP_INIT = 0.5
_STEP_MIN = 1e-6


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


def _frame(xis: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trial's carrier xi -> z eta in eta's frame, as A + z M1 + conj(z) M2.

    With E = [eta | Q], Q the QR complement of eta, a stabilizer element
    S = P_eta + Q W Q* is E diag(1, W) E*, and ||I - S B|| = ||S* - B||
    for unitary S.  So each objective row is ||diag(1, W*) - E* B E||, where
    B = two_plane_unitary(xi, z eta) and E* B E = two_plane_unitary(v, z e_0),
    v = E* xi: the `two_plane_terms` of (v, e_0), as (trials, d, d) stacks.
    """
    q = np.linalg.qr(etas[:, :, None], mode="complete")[0]
    frame = np.concatenate([etas[:, :, None], q[:, :, 1:]], axis=2)
    v = np.einsum("tji,tj->ti", frame.conj(), xis)
    return two_plane_terms(v, np.broadcast_to(np.eye(xis.shape[1])[0], v.shape))


def _frame_norms(carriers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||diag(1, W*) - carrier|| per row, W = exp(iH) from the row's generator in x."""
    # W* = exp(-iH)
    w = expi_hermitian(hermitian_from_params(-x, carriers.shape[-1] - 1))
    gap = -carriers
    gap[:, 0, 0] += 1.0
    gap[:, 1:, 1:] += w
    return operator_norms(gap)


def _lockstep_search(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_params: int,
    budget: int,
    seeds: Sequence[int],
) -> list[SearchResult]:
    """Compass search with restarts, every trial advanced in lockstep.

    Trial k runs the identity start and then seeded restarts from
    `default_rng(seeds[k])` in turn, on its own budget.  Each restart is a
    compass search with a complete poll and a halving step schedule: all 2P
    moves x +/- step e_i, ordered +e_0, -e_0, +e_1, ..., are evaluated, the
    search moves to the best poll point if that improves on fx and halves
    the step otherwise (Kolda, Lewis & Torczon, SIAM Review 45, 2003).  A
    poll is cut to its first moves when the budget runs short.

    Each iteration stacks the rows of every trial into one
    `objective(x, trial)` call whose `trial` column names the trial of each
    row.  fx = inf marks a start point not yet evaluated; that iteration
    evaluates it along with the first poll around it.  A finished trial
    keeps its slot with no budget left, so it adds no rows.  Trials are
    independent and a row's value does not depend on the rest of the
    stack, so each result is the one its trial gets alone.
    """
    p, n = n_params, len(seeds)
    # move 0 stays put: it evaluates a pending start point
    compass = np.stack([np.eye(p), -np.eye(p)], axis=1).reshape(2 * p, p)
    moves = np.concatenate([np.zeros((1, p)), compass])
    cols = np.arange(2 * p + 1)
    every = np.arange(n)
    # state that changes every iteration
    x = np.zeros((n, p))
    fx = np.full(n, np.inf)
    step = np.full(n, _STEP_INIT)
    left = np.full(n, budget)
    # state that changes only when a restart ends
    rngs = [np.random.default_rng(seed) for seed in seeds]
    restarts = [0] * n
    best = [np.inf] * n
    best_step = [_STEP_INIT] * n
    converged = [0] * n
    results: list[SearchResult] = [None] * n
    unfinished = n
    while unfinished:
        cand = x[:, None, :] + step[:, None, None] * moves
        # a trial's columns: its start point while pending, then its poll,
        # as many as the budget left; none once it is finished
        pending = fx == np.inf
        keep = cols <= (left - pending)[:, None]
        keep[:, 0] = pending
        trial, move = np.nonzero(keep)
        # column 0 holds fx, or the start point's value while pending, so
        # the first least column is the poll's best strict improvement
        fy = np.full(keep.shape, np.inf)
        fy[:, 0] = fx
        fy[trial, move] = objective(cand[trial, move], trial)
        live = left > 0
        left -= keep.sum(axis=1)
        pick = fy.argmin(axis=1)
        x = cand[every, pick]
        fx = fy[every, pick]
        spent = left <= 0
        step = np.where((pick > 0) | spent, step, 0.5 * step)
        for k in np.flatnonzero(live & (spent | (step < _STEP_MIN))).tolist():
            # restart r > 0 starts from the trial's r-th normal draw, as
            # long as the trial has budget left for it
            converged[k] += bool(step[k] < _STEP_MIN)
            if fx[k] < best[k]:
                best[k], best_step[k] = float(fx[k]), float(step[k])
            restarts[k] += 1
            if restarts[k] < _MAX_RESTARTS and not spent[k]:
                x[k] = rngs[k].normal(scale=1.0, size=p)
                fx[k] = np.inf
                step[k] = _STEP_INIT
                continue
            results[k] = SearchResult(
                distance=best[k],
                evals_used=int(budget - left[k]),
                final_step=float(step[k]),
                budget_exhausted=bool(spent[k]),
                converged_restarts=converged[k],
                best_step=best_step[k],
            )
            left[k] = 0
            unfinished -= 1
    return results


def _check_oracle_inputs(xis, etas, budget: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of unit vectors of one supported dimension, one seed per pair."""
    if not len(xis) or not len(xis) == len(etas) == len(seeds):
        raise InvalidInputError("need equally many pairs and seeds, at least one")
    pairs = [unit_vector_pair(xi, eta) for xi, eta in zip(xis, etas)]
    dims = {xi.shape[0] for xi, _ in pairs}
    if len(dims) > 1:
        raise InvalidInputError(f"pairs of one dimension expected, got {sorted(dims)}")
    dim = dims.pop()
    if dim not in ORACLE_DIMS:
        raise DomainError(f"search oracle supports dimensions {ORACLE_DIMS}, got {dim}")
    check_budget(budget)
    return np.stack([xi for xi, _ in pairs]), np.stack([eta for _, eta in pairs])


def _searches(build, extra_params: int, xis, etas, budget: int, seeds) -> list[SearchResult]:
    """One search per pair, over extra + (d-1)^2 parameters.

    Trials run in blocks, each as one lockstep search, so that the full
    polls of a block (2P d x d complex matrices per trial) stay within
    the byte cap.
    """
    seeds = list(seeds)
    xis, etas = _check_oracle_inputs(xis, etas, budget, seeds)
    d = xis.shape[1]
    n_params = extra_params + (d - 1) ** 2
    per_block = block_rows(2 * n_params * 16 * d * d)
    results = []
    for lo in range(0, len(seeds), per_block):
        block = slice(lo, lo + per_block)
        results += _lockstep_search(build(xis[block], etas[block]), n_params, budget, seeds[block])
    return results


def _exact_image_objective(
    xis: np.ndarray, etas: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """||I - u|| for each parameter row, u = (stabilizer element) (xi -> eta) of its trial.

    Evaluated in eta's frame (`_frame`), where the carrier xi -> eta of a
    trial is the fixed matrix A + M1 + M2.
    """
    carriers = sum(_frame(xis, etas))

    def objective(x: np.ndarray, trial: np.ndarray) -> np.ndarray:
        return _frame_norms(carriers[trial], x)

    return objective


def _state_objective(
    xis: np.ndarray, etas: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """||I - u|| for each parameter row, u = (stabilizer element) (xi -> e^{i x_0} eta).

    xi, eta and the stabilizer are those of the row's trial.  Column 0 is
    the phase on the image line, the rest the stabilizer generator.  In
    eta's frame (`_frame`) the carrier of a row is A + z M1 + conj(z) M2
    with z = e^{i x_0}, so each row's carrier costs a few elementwise
    products of its trial's constants.
    """
    a, m1, m2 = _frame(xis, etas)

    def objective(x: np.ndarray, trial: np.ndarray) -> np.ndarray:
        z = np.exp(1j * x[:, :1, None])
        return _frame_norms(a[trial] + z * m1[trial] + np.conj(z) * m2[trial], x[:, 1:])

    return objective


def min_distance_searches(xis, etas, budget: int, seeds: Sequence[int]) -> list[SearchResult]:
    """Search minimum of ||I - u|| over unitaries with u xi = eta exactly, for each pair.

    Every such unitary factors as (rotation carrying xi to eta) followed by
    an element of the stabilizer of eta, so the search runs over the
    stabilizer: exp of a Hermitian generator on the orthogonal complement
    of eta.  Seeded random restarts feed a deterministic compass search;
    pair k's restarts draw from `seeds[k]` and spend its own `budget`.
    A result can never fall below ||xi - eta||, which the closed form
    equals when <xi|eta> >= 0.
    """
    return _searches(_exact_image_objective, 0, xis, etas, budget, seeds)


def state_min_distance_searches(xis, etas, budget: int, seeds: Sequence[int]) -> list[SearchResult]:
    """Search minimum of ||I - u|| over unitaries with u xi = (phase) eta, for each pair.

    The constraint is equality of the induced vector states, not of the
    vectors, so one extra search parameter carries the free phase on the
    image line; the rest of the parametrization is the stabilizer, exactly
    as in the exact-image oracle.
    """
    return _searches(_state_objective, 1, xis, etas, budget, seeds)


def min_distance_bruteforce(xi, eta, budget: int = 10_000, seed: int = 0) -> SearchResult:
    """`min_distance_searches` on the single pair (xi, eta)."""
    return min_distance_searches([xi], [eta], budget, [seed])[0]


def state_min_distance_bruteforce(
    xi, eta, budget: int = 10_000, seed: int = 0
) -> SearchResult:
    """`state_min_distance_searches` on the single pair (xi, eta)."""
    return state_min_distance_searches([xi], [eta], budget, [seed])[0]


@dataclass(frozen=True)
class ProductDistanceReport:
    """Two rival closed forms for the product-state minimum distance.

    `distance_single` is sqrt(2 (1 - p)) with p the product of factor
    overlap moduli; on one factor it is the closed form 2 sin(theta / 2)
    for lines at angle theta.  `distance_doubled` carries a leading
    factor 2.  The doubled value cannot be attained once p < 1/2 (no
    unitary is farther than 2 from the identity), so callers treat
    `distance_single` as authoritative after the search oracle has
    adjudicated; the doubled value is reported, never asserted.
    """

    overlap_product: float
    distance_single: float
    distance_doubled: float


def product_min_distance(xis: Sequence, etas: Sequence) -> ProductDistanceReport:
    """Closed-form candidates for tensor products of vector states.

    The overlap of the product vectors factorizes, so only the product of
    the per-factor overlap moduli cos theta enters, each from the angle
    theta = atan2(s, |c|) between the factor's lines.
    """
    if len(xis) != len(etas) or not xis:
        raise InvalidInputError("need equally many nonempty factor lists")
    total = 1
    angles = []
    for x, e in zip(xis, etas):
        x, e = unit_vector_pair(x, e)
        if x.shape[0] < 2:
            raise InvalidInputError("factors must be vectors of dimension >= 2")
        total = check_dim(total * x.shape[0], "product dimension")
        c, _, s = overlap_residuals(x[None], e[None])
        angles.append(np.arctan2(s[0, 0], abs(c[0, 0])))
    signs, logs = cosine_products(angles)
    root = float(chord_distances(signs[-1], logs[-1]))
    return ProductDistanceReport(
        overlap_product=float(np.exp(logs[-1])),
        distance_single=root,
        distance_doubled=2.0 * root,
    )
