"""Truncated product states and the rotation chains that intertwine them.

Each 2x2 factor gets the plane rotation carrying one angle vector to the
other, phased as `POLICY_TABLE` says; their tensor products form a chain
of unitaries, stored as the stack of its 2x2 factors: no 2^n x 2^n
unitary, of a level or of a block, is ever formed.  Every gap is a block
gap, the per-step gap included as the span-1 block (n - 1, n).  It is
measured from the spectra of the block's factors, computed in closed
form from eigenphase sign patterns, and compared against the
overlap-product bound sqrt(2 (1 - prod cos)), which is reported
honestly, never asserted: it fails for long blocks.  That bound and the
tail-state distances 2 sqrt(1 - P^2) are `sequences` maps of the cosine
products, kept in log space from the half angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import CONSTRUCTION_TOL, MAX_LEVEL, PHASE_POLICIES
from .errors import InvalidInputError, LevelError, NumericalInvariantError
from .linalg import as_square_matrix, operator_norms, phase_combination_norm
from .sequences import chord_distances, cosine_products, paired_angles, trace_distances
from .states import separation_witness
from .truncation import (
    angle_vectors,
    check_level,
    kron_prefixes,
    kron_vectors,
    level_of_dim,
    product_vector,
)


def _rotations(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(k, 2, 2) rotations by beta - alpha, each carrying (cos a, sin a) to (cos b, sin b)."""
    c, s = np.cos(beta - alpha), np.sin(beta - alpha)
    return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2).astype(np.complex128)


@dataclass(frozen=True)
class PhasePolicy:
    """One phase policy: its steps, their eigenphases and its carrier check, from angle arrays."""

    steps: Callable[[np.ndarray, np.ndarray], np.ndarray]  # alpha, beta -> (k, 2, 2) steps
    eigenphases: Callable[[np.ndarray], np.ndarray]  # theta = alpha - beta -> (k, 2) pairs
    exact: bool  # a step carries alpha's factor vector onto beta's exactly, not up to a phase


# "none" steps are the bare rotations, with eigenvalues e^{+-i theta};
# "eigenvalue-one" multiplies each by e^{i theta}, so that it fixes a
# vector, which changes how gaps accumulate across tensor products
POLICY_TABLE = {
    "none": PhasePolicy(_rotations, lambda t: np.stack([t, -t], axis=1), exact=True),
    "eigenvalue-one": PhasePolicy(
        lambda a, b: _rotations(a, b) * np.exp(1j * (a - b))[:, None, None],
        lambda t: np.stack([np.zeros_like(t), 2.0 * t], axis=1),
        exact=False,
    ),
}


@dataclass(frozen=True)
class IntertwinerChain:
    """Tensor chain v_n = u_1 (x) ... (x) u_n, stored as its step factors.

    `factors` is the (levels, 2, 2) stack of steps, u_n at row n - 1; every
    gap of the chain is read from slices of it by `block_gap`.
    """

    alpha: np.ndarray
    beta: np.ndarray
    phase_policy: str
    factors: np.ndarray


def build_chain(
    alpha,
    beta,
    levels: int,
    phase_policy: str = PHASE_POLICIES[0],
) -> IntertwinerChain:
    """Build the chain of tensor products of step unitaries up to `levels`.

    Each level is verified, from its factors, to be unitary and to carry
    the prefix product vector of alpha onto that of beta (exactly for the
    bare rotations, up to the accumulated phase otherwise).
    """
    a, b = paired_angles(alpha, beta)
    if levels < 1:
        raise LevelError(f"a chain needs at least 1 level, got {levels}")
    if levels > a.size:
        raise InvalidInputError(f"levels {levels} exceed the {a.size} angle pairs given")
    check_level(levels)
    if phase_policy not in POLICY_TABLE:
        raise InvalidInputError(f"unknown phase policy {phase_policy!r}")
    factors = POLICY_TABLE[phase_policy].steps(a[:levels], b[:levels])
    chain = IntertwinerChain(alpha=a, beta=b, phase_policy=phase_policy, factors=factors)
    _verify_chain(chain)
    return chain


def _verify_chain(chain: IntertwinerChain) -> None:
    """Check level by level, from the factors alone, unitarity and then the carried vector.

    With e_j = ||u_j*u_j - I||, level n is off unitarity by at most drift_n =
    prod_{j<=n} (1 + e_j) - 1 and, as ||u_j x_j|| <= sqrt(1 + e_j), misses
    (x)_j y_j by at most (1 + drift_n) sum_{j<=n} ||u_j x_j - y_j||, or up to
    a phase by exactly |1 - prod_{j<=n} |<u_j x_j, y_j>||, for x_j, y_j the
    factor vectors of alpha and beta.
    """
    levels = len(chain.factors)
    grams = chain.factors.conj().transpose(0, 2, 1) @ chain.factors
    drift = np.cumprod(1.0 + operator_norms(grams - np.eye(2))) - 1.0
    images = np.einsum("nij,nj->ni", chain.factors, angle_vectors(chain.alpha[:levels]))
    targets = angle_vectors(chain.beta[:levels])
    if POLICY_TABLE[chain.phase_policy].exact:
        misses = (1.0 + drift) * np.cumsum(np.linalg.norm(images - targets, axis=1))
    else:
        misses = np.abs(1.0 - np.cumprod(np.abs(np.sum(images.conj() * targets, axis=1))))
    for n, (off, miss) in enumerate(zip(drift, misses), start=1):
        if off > CONSTRUCTION_TOL:
            raise NumericalInvariantError(f"chain level {n} is not unitary")
        if miss > CONSTRUCTION_TOL:
            raise NumericalInvariantError(
                f"chain level {n} misses its carrier vector by {miss:.3e}"
            )


def intertwining_gap(
    chain: IntertwinerChain,
    n: int,
    test_elements: Sequence[np.ndarray],
) -> float:
    """max |phi_alpha(a) - phi_beta(v_n a v_n*)| over embedded test elements.

    Exact in exact arithmetic because the chain carries one prefix product
    vector onto the other; v_n* eta_n is formed factorwise, and a (x) I
    acts on each vector X reshaped to 2^m x 2^(n-m) as tr(a X X*).
    """
    top = len(chain.factors)
    if not 1 <= n <= top:
        raise LevelError(f"chain holds levels 1..{top}, asked {n}")
    xi = product_vector(chain.alpha[:n])
    pulled = kron_vectors(
        np.einsum("nji,nj->ni", chain.factors[:n].conj(), angle_vectors(chain.beta[:n]))
    )
    worst = 0.0
    for a in test_elements:
        a = as_square_matrix(a)
        m = level_of_dim(a.shape[0])
        if m > n:
            raise LevelError(f"cannot embed level {m} into lower level {n}")
        x = xi.reshape(a.shape[0], -1)
        y = pulled.reshape(a.shape[0], -1)
        worst = max(worst, abs(np.vdot(x, a @ x) - np.vdot(y, a @ y)))
    return float(worst)


@dataclass(frozen=True)
class BlockGap:
    """Measured vs closed-form gap of one chain block, with the bound flag."""

    start: int
    end: int
    measured: float
    eigenphase_norm: float
    overlap_bound: float
    exceeds_bound: bool


def block_gap(chain: IntertwinerChain, m: int, n: int) -> BlockGap:
    """Compare ||v_m (x) I - v_n|| against its closed form and the bound.

    m = 0 is allowed: v_0 = 1 is the unit of M_1 = C, so the span-1 block
    (n - 1, n) is the gap ||v_{n-1} (x) I - v_n|| = ||I - u_n|| between
    consecutive levels.  The gap is ||I - W||, as v_n = v_m (x) W with
    W = u_{m+1} (x) ... (x) u_n and v_m (x) I unitary.  W is unitary, hence
    normal, so `measured` is max |1 - lambda| over its 2^(n-m) eigenvalues:
    the products of one eigenvalue of each built factor.  It reads the
    factors, not the angles, so it stays independent of `eigenphase_norm`,
    the sign-pattern formula over the block's angle gaps.  The bound is
    sqrt(2 (1 - prod cos)) over the same factors and is flagged, not
    asserted, whenever the measurement exceeds it.
    """
    if not 0 <= m < n <= len(chain.factors):
        raise LevelError(f"need 0 <= m < n <= {len(chain.factors)}")
    eigenvalues = np.linalg.eigvals(chain.factors[m:n])
    measured = float(np.max(np.abs(1.0 - kron_vectors(eigenvalues))))
    thetas = chain.alpha[m:n] - chain.beta[m:n]
    spectral = phase_combination_norm(POLICY_TABLE[chain.phase_policy].eigenphases(thetas))
    bound = float(chord_distances(*cosine_products(thetas))[-1])
    return BlockGap(
        start=m,
        end=n,
        measured=measured,
        eigenphase_norm=spectral,
        overlap_bound=bound,
        exceeds_bound=bool(measured > bound + 1e-12),
    )


def block_gaps(chain: IntertwinerChain, max_span: int = 6) -> list[BlockGap]:
    """All block gaps from start 1 with span at most max_span, in (start, end) order."""
    top = len(chain.factors)
    spans = ((m, n) for m in range(1, top) for n in range(m + 1, min(m + max_span, top) + 1))
    return [block_gap(chain, m, n) for m, n in spans]


@dataclass(frozen=True)
class SeparationRow:
    """Tail-state data at one level of the separation experiment."""

    n: int
    overlap: float
    state_distance: float
    witness_first: float
    witness_second: float
    witness_norm: float


def separation_rows(
    alpha,
    beta,
    start: int = 1,
    stop: int | None = None,
) -> list[SeparationRow]:
    """Tail product vectors over factors start..n, their overlap, distance
    and separating witness, for each n up to `stop` (1-based, inclusive).

    Each tail is formed from the one before by one Kronecker product, and
    each pair's span once, for its distance and its witness alike.  The
    measured distance must match 2 sqrt(1 - overlap^2) within 1e-8 at
    every level; a violation is an invariant error, not a data point.
    """
    a, b = paired_angles(alpha, beta)
    if stop is None:
        stop = min(a.size, start + MAX_LEVEL - 1)
    if not 1 <= start <= stop <= a.size:
        raise InvalidInputError(f"bad window [{start}, {stop}] for length {a.size}")
    check_level(stop - start + 1)
    a, b = a[start - 1 : stop], b[start - 1 : stop]
    # the cosine product equals <xi|eta> (checked elsewhere to 1e-10) and
    # stays exact where the vector inner product would cancel
    signs, logs = cosine_products(a - b)
    tails = zip(kron_prefixes(angle_vectors(a)), kron_prefixes(angle_vectors(b)))
    rows = []
    for k, (xi, eta) in enumerate(tails):
        wit = separation_witness(xi, eta)
        off = abs(wit.distance - trace_distances(logs[k]))
        if off > 1e-8:
            raise NumericalInvariantError(
                f"distance/overlap duality off by {off:.3e} at n={start + k}"
            )
        rows.append(
            SeparationRow(
                n=start + k,
                overlap=float(signs[k] * np.exp(logs[k])),
                state_distance=wit.distance,
                witness_first=wit.first_value,
                witness_second=wit.second_value,
                witness_norm=wit.norm,
            )
        )
    return rows


def distance_crossing_level(
    alpha,
    beta,
    threshold: float = 1.9,
    start: int = 1,
    limit: int = 64,
) -> int | None:
    """First n with tail-state distance 2 sqrt(1 - P_n^2) above threshold.

    Runs on partial products alone, so it can scan far beyond the matrix
    cap; returns None when no level in start..min(len, limit) crosses.  The
    distance lies in [0, 2], so a threshold outside [0, 2) is refused: none
    would cross 2, and every level would cross a negative one.  An empty
    window is refused too, as its None would read as "never crosses".
    """
    if not 0.0 <= threshold < 2.0:
        raise InvalidInputError(f"distance threshold {threshold} outside [0, 2)")
    a, b = paired_angles(alpha, beta)
    stop = min(a.size, limit)
    if not 1 <= start <= stop:
        raise InvalidInputError(f"empty search window [{start}, {stop}] for length {a.size}")
    _, logs = cosine_products(a[start - 1 : stop] - b[start - 1 : stop])
    hits = np.nonzero(trace_distances(logs) > threshold)[0]
    if hits.size == 0:
        return None
    return int(start + hits[0])
