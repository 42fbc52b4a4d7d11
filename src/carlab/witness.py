"""Finite unitary nets and the witness search for state equivalence.

A countable dense set of unitaries is stood in for by either an
exhaustive grid of Hermitian-generator exponentials (guaranteed dense at
the requested resolution, feasible only in low dimension) or a seeded
random net (density reported statistically, never promised).  The search
accepts the first enumerated unitary whose test-set gap stays below 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import CONTRACTION_SLACK, MAX_DIM, WITNESS_STRICTNESS
from .errors import (
    DomainError,
    InvalidInputError,
    NumericalInvariantError,
    SizeLimitError,
)
from .linalg import (
    as_square_matrix,
    expi_hermitian,
    haar_unitary,
    hermitian_from_params,
    operator_norm,
    operator_norms,
    random_hermitian_contraction,
)
from .states import VectorState, evaluate, pullback, state_distance

# 128 MB of complex128 elements: 2,000,000 unitaries at dim 2
_NET_BYTES_CAP = 128_000_000
_CHUNK = 8192


@dataclass(frozen=True)
class UnitaryNet:
    """Finite enumeration of unitaries standing in for a dense subset.

    `resolution` is the covering radius the net aims at; for exhaustive
    nets it is guaranteed by construction, for random nets it is only a
    target to be checked statistically.
    """

    dim: int
    resolution: float
    mode: str
    elements: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.elements.shape[0]


def exhaustive_net_plan(dim: int, epsilon: float) -> tuple[int, int]:
    """Grid points per real parameter and the implied net cardinality.

    Every unitary is exp(iH) with Hermitian H of operator norm at most pi,
    hence with entries bounded by pi.  Snapping each of the dim^2 real
    parameters to a grid of spacing delta moves H by at most
    delta/2 * sqrt(dim (2 dim - 1)) in Frobenius norm, which dominates the
    operator-norm change of the exponential, so delta is chosen to make
    that at most epsilon.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("net resolution must lie in (0, 1]")
    delta = 2.0 * epsilon / np.sqrt(dim * (2 * dim - 1))
    points = int(np.ceil(2.0 * np.pi / delta)) + 1
    # an exact integer: as a float the count overflows at dim 16
    return points, points ** (dim * dim)


def _check_all_unitary(elements: np.ndarray) -> None:
    dim = elements.shape[-1]
    gram = np.einsum("nji,njk->nik", elements.conj(), elements)
    gram -= np.eye(dim, dtype=np.complex128)
    # Frobenius norm dominates the operator norm
    worst = float(np.sqrt(np.max(np.einsum("nij,nij->n", gram.conj(), gram).real)))
    if worst > 1e-9:
        raise NumericalInvariantError(f"net element off unitarity by {worst:.3e}")


def _check_net_size(dim: int, elements: int, what: str) -> None:
    """Refuse a net whose element array would exceed the byte cap.

    The error carries the count as `estimated_size` only when it is a
    finite float; beyond that its message gives the log10 of the count.
    """
    cap = _NET_BYTES_CAP // (16 * dim * dim)
    if elements > cap:
        estimated = float(elements) if elements <= sys.float_info.max else None
        size = f"{estimated:.3e}" if estimated is not None else f"10^{math.log10(elements):.1f}"
        raise SizeLimitError(
            f"{what} needs about {size} elements (cap {cap}, {_NET_BYTES_CAP} bytes)",
            estimated_size=estimated,
        )


def _dedup(elements: np.ndarray) -> np.ndarray:
    """First occurrence of each element, keyed by its entries rounded to 1e-9."""
    rounded = np.ascontiguousarray(np.round(elements, 9)).reshape(elements.shape[0], -1)
    keys = rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1])))
    first = np.unique(keys.ravel(), return_index=True)[1]
    return elements[np.sort(first)]


def enumerate_net(dim: int, epsilon: float) -> UnitaryNet:
    """Exhaustive epsilon-dense net of the dim-dimensional unitary group.

    Enumeration is lexicographic over the generator grid with the identity
    prepended as element 0; near-duplicates are removed by rounded-entry
    keys.  When the grid is too large to hold, the request is refused with
    the estimate attached: that is the signal to fall back to a random net.
    """
    if dim < 1 or dim > MAX_DIM:
        raise InvalidInputError(f"bad net dimension {dim}")
    points, estimated = exhaustive_net_plan(dim, epsilon)
    _check_net_size(dim, estimated, f"exhaustive net at dim {dim}, resolution {epsilon}")
    grid = np.linspace(-np.pi, np.pi, points)
    # every grid point of the dim*dim generator parameters, lexicographic
    axes = np.meshgrid(*([grid] * (dim * dim)), indexing="ij")
    params = np.stack([ax.reshape(-1) for ax in axes], axis=1)
    elements = expi_hermitian(hermitian_from_params(params, dim))
    elements = np.concatenate(
        [np.eye(dim, dtype=np.complex128)[None, :, :], elements], axis=0
    )
    elements = _dedup(elements)
    _check_all_unitary(elements)
    return UnitaryNet(
        dim=dim,
        resolution=float(epsilon),
        mode="exhaustive",
        elements=elements,
    )


def random_net(dim: int, epsilon: float, size: int, seed: int) -> UnitaryNet:
    """Seeded Haar-random net with the identity as element 0.

    Used where the exhaustive grid is infeasible; its covering radius is a
    statistical matter, reported by `net_density_report`, not a guarantee.
    """
    if dim < 1 or dim > MAX_DIM:
        raise InvalidInputError(f"bad net dimension {dim}")
    if size < 1:
        raise InvalidInputError("net size must be positive")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("net resolution must lie in (0, 1]")
    _check_net_size(dim, size + 1, f"random net at dim {dim}")
    rng = np.random.default_rng(seed)
    identity = np.eye(dim, dtype=np.complex128)[None, :, :]
    elements = np.concatenate([identity, haar_unitary(dim, rng, count=size)])
    _check_all_unitary(elements)
    return UnitaryNet(
        dim=dim,
        resolution=float(epsilon),
        mode="random",
        elements=elements,
    )


def nearest_net_element(net: UnitaryNet, u) -> tuple[int, float]:
    """Index and operator-norm distance of the closest net element."""
    u = as_square_matrix(u)
    if u.shape[0] != net.dim:
        raise InvalidInputError("dimension mismatch with net")
    best_idx, best = 0, np.inf
    for lo in range(0, len(net), _CHUNK):
        dists = operator_norms(net.elements[lo : lo + _CHUNK] - u)
        i = int(np.argmin(dists))
        if dists[i] < best:
            best_idx, best = lo + i, float(dists[i])
    return best_idx, best


@dataclass(frozen=True)
class DensityReport:
    """Statistical covering check of a net against random probes."""

    probes: int
    max_distance: float
    mean_distance: float
    within_resolution: bool


def net_density_report(net: UnitaryNet, probes: int = 100, seed: int = 0) -> DensityReport:
    """Nearest-element statistics over seeded Haar-random probe unitaries."""
    rng = np.random.default_rng(seed)
    dists = np.empty(probes)
    for k in range(probes):
        _, dists[k] = nearest_net_element(net, haar_unitary(net.dim, rng))
    return DensityReport(
        probes=probes,
        max_distance=float(dists.max()),
        mean_distance=float(dists.mean()),
        within_resolution=bool(dists.max() <= net.resolution + 1e-6),
    )


@dataclass(frozen=True)
class TestElementNet:
    """Finite stand-in for a dense set of contractions."""

    dim: int
    elements: tuple[np.ndarray, ...]


def build_test_element_net(dim: int, n_random: int = 24, seed: int = 0) -> TestElementNet:
    """Matrix units plus seeded random Hermitian contractions."""
    if dim < 1 or dim > MAX_DIM:
        raise InvalidInputError(f"bad test-net dimension {dim}")
    rng = np.random.default_rng(seed)
    elements = []
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[i, j] = 1.0
            elements.append(unit)
    for _ in range(n_random):
        elements.append(random_hermitian_contraction(dim, rng))
    for a in elements:
        if operator_norm(a) > 1.0 + CONTRACTION_SLACK:
            raise NumericalInvariantError("test element exceeds contraction norm")
    return TestElementNet(dim=dim, elements=tuple(elements))


@dataclass(frozen=True)
class WitnessResult:
    """First net element whose test-set gap stays below 1."""

    index: int
    unitary: np.ndarray
    gap: float


def witness_search(
    phi: VectorState,
    psi: VectorState,
    net: UnitaryNet,
    test_net: TestElementNet,
) -> WitnessResult | None:
    """First enumerated u with max_a |phi(a) - psi(u a u*)| < 1, if any.

    The strict inequality is implemented with a tiny safety margin so a
    boundary value never flips the verdict between runs.  Whenever the
    states are an exact unitary pullback of each other and the net
    guarantees covering radius below 1/2, a witness must exist.
    """
    if phi.dim != psi.dim or phi.dim != net.dim or net.dim != test_net.dim:
        raise InvalidInputError("state, net, and test-net dimensions must agree")
    threshold = 1.0 - WITNESS_STRICTNESS
    stack = np.stack(test_net.elements)
    phi_vals = np.array([evaluate(phi, a) for a in test_net.elements])
    for lo in range(0, len(net), _CHUNK):
        block = net.elements[lo : lo + _CHUNK]
        pulled = np.einsum("nji,j->ni", block.conj(), psi.vector)
        vals = np.einsum("ni,aij,nj->na", pulled.conj(), stack, pulled)
        gaps = np.max(np.abs(vals - phi_vals[None, :]), axis=1)
        hits = np.nonzero(gaps < threshold)[0]
        if hits.size:
            i = lo + int(hits[0])
            return WitnessResult(
                index=i, unitary=net.elements[i], gap=float(gaps[hits[0]])
            )
    return None


@dataclass(frozen=True)
class DistanceBound:
    """Functional distance of phi from psi pulled back along u."""

    norm_distance: float
    below_two: bool


def distance_bound_check(phi: VectorState, psi: VectorState, u) -> DistanceBound:
    """||phi - psi o Ad u|| and whether it clears the strict-below-2 bar.

    On a full matrix algebra every pair of pure states is unitarily
    equivalent, so the check validates the distance arithmetic rather than
    any implication drawn from it.
    """
    dist = state_distance(phi, pullback(psi, u))
    return DistanceBound(
        norm_distance=dist, below_two=bool(dist < 2.0 - 1e-9)
    )
