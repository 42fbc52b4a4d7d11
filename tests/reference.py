"""Reference helpers that only the tests use.

Dense or scalar constructions the package itself never needs: rank-one
projectors, parametrized rotations, and the explicit two-plane unitary
and the vector pairs it is tested on, to build expected values from; a
vector state's value <a v, v> on one element, the test-set gap
sup_a |phi(a) - psi(u a u*)| the witness search is checked against, the
nearest net element to a single unitary, the exhaustive net formed
whole, each phase times the grid, and a net holding a bare stack, the writer of the angle-file
format the package reads, the level-to-dimension map, the sequential per-pair compass search the
lockstep oracle search is checked against, the whole-chunk witness
scan the growing-block scan is checked against, the one-step-at-a-time
splitmix64 loop the vectorized seed stream is checked against, the
one-at-a-time draw of random test elements and the concatenated column
layout the batched witness kernels are checked against, and the
separation rows with every tail rebuilt from its angles, one scalar
factor at a time, and the step unitaries and their eigenphase pairs
built one factor at a time, as the policy table's stacks are checked
against.  Each keeps the validation it had in the package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from carlab.config import CONTRACTION_SLACK, PHASE_POLICIES, WITNESS_STRICTNESS
from carlab.errors import DomainError, InvalidInputError
from carlab.intertwiner import SeparationRow
from carlab.linalg import (
    as_square_matrix,
    as_unit_vector,
    operator_norm,
    random_unit_vector,
    unit_vector_pair,
)
from carlab.orbit import _MAX_RESTARTS, _STEP_INIT, _STEP_MIN, SearchResult
from carlab.seeding import check_seed
from carlab.sequences import cosine_products, paired_angles, trace_distances, validate_angles
from carlab.states import VectorState, separation_witness, state_distance
from carlab.truncation import check_level
from carlab.witness import (
    TestElementNet,
    UnitaryNet,
    WitnessResult,
    _nearest,
    _su2_grid,
    exhaustive_net_plan,
)


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


def two_plane_reference(xi, eta) -> np.ndarray:
    """Unitary sending xi to eta, identity off their span, written out.

    u = I + (eta - xi) xi* + (-s xi + conj(c) zeta - zeta) zeta* with
    c = <xi|eta>, zeta the unit residual of eta against xi and s its norm;
    for colinear inputs (residual norm at most 1e-12) u = I + (c - 1) xi xi*.
    The package's `two_plane_terms` is checked against it, so it shares no
    code with that kernel.
    """
    xi, eta = unit_vector_pair(xi, eta)
    c = np.vdot(xi, eta)
    resid = eta - c * xi
    # a second Gram-Schmidt pass, for nearly colinear inputs
    resid -= np.vdot(xi, resid) * xi
    s = np.linalg.norm(resid)
    u = np.eye(xi.shape[0], dtype=np.complex128)
    if s <= 1e-12:
        return u + (c - 1.0) * np.outer(xi, xi.conj())
    zeta = resid / s
    u += np.outer(eta - xi, xi.conj())
    u += np.outer(-s * xi + np.conj(c) * zeta - zeta, zeta.conj())
    return u


def two_plane_pair(kind: str, log_s: float, dim: int, rng: np.random.Generator):
    """A "random", exactly "colinear" or "near"ly colinear pair of unit vectors.

    A near pair is eta = c xi + s w with s = 10^log_s, w a unit vector
    orthogonal to xi and |c|^2 + s^2 = 1.
    """
    xi = random_unit_vector(dim, rng)
    if kind == "random":
        return xi, random_unit_vector(dim, rng)
    if kind == "colinear":
        return xi, np.exp(1j * rng.uniform(0, 2 * np.pi)) * xi
    s = 10.0**log_s
    w = random_unit_vector(dim, rng)
    w -= np.vdot(xi, w) * xi
    w -= np.vdot(xi, w) * xi
    w /= np.linalg.norm(w)
    return xi, np.sqrt(1.0 - s * s) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * xi + s * w


def evaluate(state: VectorState, a) -> complex:
    """Value of the state on an algebra element: <a v, v>."""
    a = as_square_matrix(a)
    if a.shape[0] != state.dim:
        raise InvalidInputError(
            f"element dimension {a.shape[0]} != state dimension {state.dim}"
        )
    return complex(np.vdot(state.vector, a @ state.vector))


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


def nearest_net_element(net: UnitaryNet, u) -> tuple[int, float]:
    """Index and operator-norm distance of the closest net element."""
    u = as_square_matrix(u)
    if u.shape[0] != net.dim:
        raise InvalidInputError("dimension mismatch with net")
    index, dist = _nearest(net, u[None])
    return int(index[0]), float(dist[0])


def exhaustive_net_by_products(dim: int, epsilon: float, first: int = 0, last: int | None = None):
    """Elements of phases first..last-1 of `enumerate_net(dim, epsilon)`, formed whole.

    Each phase times every grid point, in one broadcast product, as the
    package formed its exhaustive nets before it held them as phases and
    grid: `(phases[:, None, None, None] * grid).reshape(-1, d, d)`.
    """
    n, m, _ = exhaustive_net_plan(dim, epsilon)
    phases = np.exp(2j * np.pi * np.arange(m) / (dim * m))[first:last]
    grid = _su2_grid(n) if dim == 2 else np.ones((1, 1, 1), dtype=np.complex128)
    return (phases[:, None, None, None] * grid).reshape(-1, dim, dim)


def stack_net(elements: np.ndarray) -> UnitaryNet:
    """A random-mode net of a (k, d, d) stack as it stands: phase 1 times the stack."""
    return UnitaryNet(dim=elements.shape[-1], resolution=0.4, mode="random",
                      phases=np.ones(1, dtype=np.complex128), base=elements)


def write_angle_file(path, values) -> None:
    """Write the plain-text sequence format: one decimal angle per line."""
    arr = validate_angles(values)
    Path(path).write_text("".join(format(float(v), ".17g") + "\n" for v in arr))


def derive_seeds_by_loop(root: int, count: int) -> list[int]:
    """The first `count` splitmix64 outputs from state `root`, one step at a time."""
    mask = (1 << 64) - 1
    state = check_seed(root)
    seeds = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        seeds.append(z ^ (z >> 31))
    return seeds


def level_dim(n: int) -> int:
    """Dimension 2^n of the level-n truncation."""
    return 1 << check_level(n)


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


def search_minimum(
    objective: Callable[[np.ndarray], np.ndarray],
    n_params: int,
    budget: int,
    seed: int,
) -> SearchResult:
    """Identity start plus seeded random restarts, run in turn on one budget.

    The sequential search of one pair, one stacked objective call per poll,
    that the lockstep search of many pairs must reproduce field by field.
    """
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


def witness_search_by_chunks(
    phi: VectorState,
    psi: VectorState,
    net: UnitaryNet,
    test_net: TestElementNet,
) -> WitnessResult | None:
    """First enumerated u with max_a |phi(a) - psi(u a u*)| < 1, if any.

    The scan computes the gap of every row of the net, as one chunk, in one
    matrix product before it looks for the first hit, which is what the
    package's growing-block scan must reproduce, index and gap bit for bit.
    """
    if phi.dim != psi.dim or phi.dim != net.dim or net.dim != test_net.dim:
        raise InvalidInputError("state, net, and test-net dimensions must agree")
    threshold = 1.0 - WITNESS_STRICTNESS
    # a state's value on each test element a is <v v*, a>: one GEMM
    # against the flattened test elements for all the net's vectors
    flat = test_net.elements.reshape(len(test_net.elements), -1).T
    phi_vals = np.outer(phi.vector.conj(), phi.vector).reshape(-1) @ flat
    # the pulled-back vectors u* psi, conjugated: psi^H u, row by row
    conj_pulled = psi.vector.conj() @ net.elements
    outer = conj_pulled[:, :, None] * conj_pulled.conj()[:, None, :]
    gaps = np.max(np.abs(outer.reshape(len(net), -1) @ flat - phi_vals), axis=1)
    hits = np.nonzero(gaps < threshold)[0]
    if not hits.size:
        return None
    i = int(hits[0])
    return WitnessResult(index=i, unitary=net.elements[i], gap=float(gaps[i]))


def random_test_elements_by_loop(dim: int, n_random: int, seed: int) -> np.ndarray:
    """Matrix units, then `n_random` Hermitian contractions drawn one at a time.

    Each draw takes a real, then an imaginary, normal (dim, dim) block from
    the stream and divides h = (g + g*)/2 by its operator norm, or is the
    identity where that norm is below 1e-12.
    """
    rng = np.random.default_rng(seed)
    elements = [np.eye(dim * dim, dtype=np.complex128).reshape(dim * dim, dim, dim)]
    for _ in range(n_random):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2.0
        nrm = operator_norm(h)
        elements.append((np.eye(dim, dtype=np.complex128) if nrm < 1e-12 else h / nrm)[None])
    return np.concatenate(elements)


def _tail_vector(angles) -> np.ndarray:
    """Kronecker product of the 2-vectors (cos a, sin a), one scalar factor at a time."""
    out = np.ones(1, dtype=np.complex128)
    for a in angles:
        out = np.kron(out, np.array([np.cos(a), np.sin(a)], dtype=np.complex128))
    return out


def separation_rows_by_rebuild(alpha, beta, start: int, stop: int) -> list[SeparationRow]:
    """Separation rows with each level's tails formed from scratch and the
    span of each pair formed twice, for the distance and for the witness."""
    a, b = paired_angles(alpha, beta)
    check_level(stop - start + 1)
    signs, logs = cosine_products(a[start - 1 : stop] - b[start - 1 : stop])
    rows = []
    for n in range(start, stop + 1):
        xi, eta = _tail_vector(a[start - 1 : n]), _tail_vector(b[start - 1 : n])
        dist = state_distance(VectorState(xi), VectorState(eta))
        if abs(dist - trace_distances(logs[n - start])) > 1e-8:
            raise AssertionError(f"distance/overlap duality fails at n={n}")
        wit = separation_witness(xi, eta)
        rows.append(
            SeparationRow(
                n=n,
                overlap=float(signs[n - start] * np.exp(logs[n - start])),
                state_distance=dist,
                witness_first=wit.first_value,
                witness_second=wit.second_value,
                witness_norm=wit.norm,
            )
        )
    return rows


def step_unitary(alpha_j: float, beta_j: float, phase_policy: str = "none") -> np.ndarray:
    """2x2 unitary carrying (cos a, sin a) to (cos b, sin b).

    "none" is the bare plane rotation by b - a; "eigenvalue-one"
    multiplies it by e^{i (a - b)}, so the unitary fixes a vector.
    """
    if phase_policy not in PHASE_POLICIES:
        raise InvalidInputError(f"unknown phase policy {phase_policy!r}")
    angle = float(beta_j) - float(alpha_j)
    c, s = np.cos(angle), np.sin(angle)
    u = np.array([[c, -s], [s, c]], dtype=np.complex128)
    if phase_policy == "eigenvalue-one":
        u = u * np.exp(1j * (float(alpha_j) - float(beta_j)))
    return u


def step_phase_pair(theta: float, phase_policy: str) -> tuple[float, float]:
    """Eigenphases of the step unitary for angle gap theta = alpha - beta."""
    if phase_policy == "none":
        return (theta, -theta)
    return (0.0, 2.0 * theta)


def su2_grid_by_stacking(n: int) -> np.ndarray:
    """`witness._su2_grid(n)` as the package first formed it.

    Per-face meshgrids, stacked and concatenated into one (K, 4) array of
    quaternions, normalized by `np.linalg.norm`, and the four entries of
    each matrix as complex sums of the four component arrays.
    """
    ticks = np.array([0] + [s * k for k in range(1, n // 2 + 1) for s in (1, -1)]) * 2.0 / n
    faces = [
        np.meshgrid(*[ticks[:-2]] * axis, [sign], *[ticks] * (3 - axis), indexing="ij")
        for axis in range(4)
        for sign in (1.0, -1.0)
    ]
    q = np.concatenate([np.stack(face, axis=-1).reshape(-1, 4) for face in faces])
    a, b, c, d = q.T / np.linalg.norm(q, axis=1)
    return np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b], axis=1).reshape(-1, 2, 2)
