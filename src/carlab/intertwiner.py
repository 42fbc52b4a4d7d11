"""Truncated product states and the rotation chains that intertwine them.

Each 2x2 factor gets the plane rotation carrying one angle vector to the
other; their tensor products form a chain of unitaries, stored as the
stack of its 2x2 factors: no 2^n x 2^n unitary, of a level or of a block,
is ever formed.  Every gap is a block gap, the per-step gap included as
the span-1 block (n - 1, n).  It is measured from the spectra of the
block's factors, computed in closed form from eigenphase sign patterns,
and compared against the overlap-product bound sqrt(2 (1 - prod cos)),
which is reported honestly, never asserted: it fails for long blocks.
That bound and the tail-state distances 2 sqrt(1 - P^2) are `sequences`
maps of the cosine products, kept in log space from the half angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .config import CONSTRUCTION_TOL, MAX_LEVEL
from .errors import InvalidInputError, LevelError, NumericalInvariantError
from .linalg import (
    as_square_matrix,
    operator_norm,
    phase_combination_norm,
    plane_rotation,
)
from .sequences import chord_distances, cosine_products, paired_angles, trace_distances
from .states import VectorState, separation_witness, state_distance
from .truncation import check_level, level_of_dim, product_vector

PHASE_POLICIES = ("none", "eigenvalue-one")


def step_unitary(alpha_j: float, beta_j: float, phase_policy: str = "none") -> np.ndarray:
    """2x2 unitary carrying (cos a, sin a) to (cos b, sin b).

    "none" is the bare plane rotation; "eigenvalue-one" multiplies by a
    phase so the unitary fixes a vector, which changes how gaps accumulate
    across tensor products.
    """
    if phase_policy not in PHASE_POLICIES:
        raise InvalidInputError(f"unknown phase policy {phase_policy!r}")
    u = plane_rotation(float(beta_j) - float(alpha_j))
    if phase_policy == "eigenvalue-one":
        u = u * np.exp(1j * (float(alpha_j) - float(beta_j)))
    return u


def _step_phase_pair(theta: float, phase_policy: str) -> tuple[float, float]:
    """Eigenphases of the step unitary for angle gap theta = alpha - beta."""
    if phase_policy == "none":
        return (theta, -theta)
    return (0.0, 2.0 * theta)


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

    @property
    def thetas(self) -> np.ndarray:
        return self.alpha - self.beta


def build_chain(
    alpha,
    beta,
    levels: int,
    phase_policy: str = "none",
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
    factors = np.array([step_unitary(a[j], b[j], phase_policy) for j in range(levels)])
    chain = IntertwinerChain(alpha=a, beta=b, phase_policy=phase_policy, factors=factors)
    _verify_chain(chain)
    return chain


def _factorwise_image(factors: np.ndarray, angles) -> np.ndarray:
    """(x)_j f_j (cos a_j, sin a_j), without forming the product of the f_j."""
    out = np.ones(1, dtype=np.complex128)
    for f, a in zip(factors, angles):
        out = np.kron(out, f @ np.array([np.cos(a), np.sin(a)]))
    return out


def _verify_chain(chain: IntertwinerChain) -> None:
    drift = 1.0  # bounds ||(x)_j u_j*u_j - I|| by prod_j (1 + ||u_j*u_j - I||) - 1
    for n, u in enumerate(chain.factors, start=1):
        drift *= 1.0 + operator_norm(u.conj().T @ u - np.eye(2))
        if drift - 1.0 > CONSTRUCTION_TOL:
            raise NumericalInvariantError(f"chain level {n} is not unitary")
        image = _factorwise_image(chain.factors[:n], chain.alpha)
        eta = product_vector(chain.beta[:n])
        if chain.phase_policy == "none":
            err = np.linalg.norm(image - eta)
        else:
            err = abs(1.0 - abs(np.vdot(image, eta)))
        if err > CONSTRUCTION_TOL:
            raise NumericalInvariantError(
                f"chain level {n} misses its carrier vector by {err:.3e}"
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
    pulled = _factorwise_image(chain.factors[:n].conj().transpose(0, 2, 1), chain.beta)
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
    measured = float(np.max(np.abs(1.0 - reduce(np.kron, eigenvalues))))
    thetas = chain.thetas[m:n]
    spectral = phase_combination_norm(
        [_step_phase_pair(float(t), chain.phase_policy) for t in thetas]
    )
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
    out = []
    top = len(chain.factors)
    for m in range(1, top):
        for n in range(m + 1, min(m + max_span, top) + 1):
            out.append(block_gap(chain, m, n))
    return out


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

    The measured distance must match 2 sqrt(1 - overlap^2) within 1e-8 at
    every level; a violation is an invariant error, not a data point.
    """
    a, b = paired_angles(alpha, beta)
    if stop is None:
        stop = min(a.size, start + MAX_LEVEL - 1)
    if not 1 <= start <= stop <= a.size:
        raise InvalidInputError(f"bad window [{start}, {stop}] for length {a.size}")
    rows = []
    # the cosine product equals <xi|eta> (checked elsewhere to 1e-10) and
    # stays exact where the vector inner product would cancel
    signs, logs = cosine_products(a[start - 1 : stop] - b[start - 1 : stop])
    for n in range(start, stop + 1):
        xi = product_vector(a[start - 1 : n])
        eta = product_vector(b[start - 1 : n])
        dist = state_distance(VectorState(xi), VectorState(eta))
        expected = trace_distances(logs[n - start])
        if abs(dist - expected) > 1e-8:
            raise NumericalInvariantError(
                f"distance/overlap duality off by {abs(dist - expected):.3e} at n={n}"
            )
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
