"""Finite unitary nets and the witness search for state equivalence.

A countable dense set of unitaries is stood in for by either an
exhaustive grid of Hermitian-generator exponentials (guaranteed dense at
the requested resolution, feasible only in low dimension) or a seeded
random net (density reported statistically, never promised).  The
density report is an exact statistic: the operator-norm distance from
each of a set of Haar-random probes, drawn independently of the net, to
its nearest net element.

The search accepts the first enumerated unitary u whose test-set gap
max_a |phi(a) - psi(u a u*)| stays below 1.  The maximum runs over a
finite test net, so the gap only bounds ||phi - psi o Ad u|| from below:
a witness may sit at exact distance 1 or more.  The verdict rests on
`distance_bound_check`, the exact distance being below 2, which by
Glimm and Kadison makes the two pure states unitarily equivalent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import CONTRACTION_SLACK, MAX_DIM, WITNESS_STRICTNESS, block_rows
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
from .states import VectorState, pullback, state_distance

# 128 MB of complex128 elements: 2,000,000 unitaries at dim 2
_NET_BYTES_CAP = 128_000_000
_CHUNK = 8192
_FIRST_BLOCK = 64


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
    delta = 2.0 * epsilon / math.sqrt(dim * (2 * dim - 1))
    if delta * sys.float_info.max < 2.0 * math.pi:
        # a subnormal epsilon: 2 pi / delta, one axis of the grid, overflows
        raise SizeLimitError(
            f"exhaustive net at dim {dim}, resolution {epsilon} needs more than "
            f"{sys.float_info.max:.3e} grid points per parameter"
        )
    points = math.ceil(2.0 * math.pi / delta) + 1
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


def _haar_blocks(dim: int, rng: np.random.Generator, count: int):
    """`count` Haar unitaries as (offset, block) pairs within the block budget.

    `haar_unitary` reads its stream in order, so the blocks are those of a
    single draw, without its transient memory of about 5x the stack.
    """
    step = block_rows(16 * dim * dim)
    for lo in range(0, count, step):
        yield lo, haar_unitary(dim, rng, count=min(step, count - lo))


def _dedup(elements: np.ndarray) -> np.ndarray:
    """First occurrence of each element, keyed by its entries rounded to 1e-9.

    Adding 0.0 turns -0.0 into +0.0, so a sign of zero splits no key.
    """
    rounded = (np.round(elements, 9) + 0.0).reshape(elements.shape[0], -1)
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
    elements = np.empty((size + 1, dim, dim), dtype=np.complex128)
    elements[0] = np.eye(dim)
    for lo, block in _haar_blocks(dim, rng, size):
        _check_all_unitary(block)
        elements[1 + lo : 1 + lo + len(block)] = block
    return UnitaryNet(
        dim=dim,
        resolution=float(epsilon),
        mode="random",
        elements=elements,
    )


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of a (k, d, d) stack as real rows, and their squared norms.

    Row [j, m] of the (d, k, 2d) result is column j of matrix m, real parts
    then imaginary parts, so Re <a e_j, b e_j> is a dot product of rows;
    the squared norms come as a (d, k) array.
    """
    cols = np.concatenate([a.real, a.imag], axis=1).transpose(2, 0, 1)
    cols = np.ascontiguousarray(cols)
    return cols, np.einsum("jkx,jkx->jk", cols, cols)


def _nearest(elements: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and operator-norm distance of the closest element to each probe.

    Bit-identical to computing `operator_norms(elements - u)` for each
    probe u and keeping the first index of the least value, but exact norms
    are computed only for (element, probe) pairs that can still win.  The
    largest column norm of N - u bounds ||N - u|| from below; its square
    is max_j ||N e_j||^2 + ||u e_j||^2 - 2 Re <N e_j, u e_j>, d GEMMs over
    all pairs of a chunk.  A pair is normed exactly when that bound, less a
    rounding slack scaled by the column norms, is within the best distance
    so far, first seeded with the lowest-bound element of the chunk; every
    other pair is strictly farther than that best.
    """
    n, d = elements.shape[0], elements.shape[-1]
    count = probes.shape[0]
    best = np.full(count, np.inf)
    index = np.zeros(count, dtype=np.intp)
    # Rounding moves the squared bound by about 2d eps and the squared exact
    # norm by about 2d^2 eps, each times ||N e_j||^2 + ||u e_j||^2 at most;
    # 64 d^2 eps times the largest such column norms covers both.
    slack = 64.0 * d * d * np.finfo(np.float64).eps
    chunk = min(n, _CHUNK)
    step = block_rows(8 * chunk)
    pairs = block_rows(16 * d * d)
    for plo in range(0, count, step):
        u = probes[plo : plo + step]
        u_cols, u_sq = _columns(u)
        u_scale = u_sq.max(axis=0)
        near, near_idx = best[plo : plo + step], index[plo : plo + step]
        every = np.arange(len(u))
        for lo in range(0, n, chunk):
            block = elements[lo : lo + chunk]
            cols, sq = _columns(block)
            # (probe, element) blocks, so each probe's scan runs along a row
            bound = np.zeros((len(u), len(block)))
            for j in range(d):
                col = u_cols[j] @ cols[j].T
                col *= -2.0
                col += sq[j]
                col += u_sq[j][:, None]
                np.maximum(bound, col, out=bound)
            seed = np.argmin(bound, axis=1)
            reach = np.minimum(near, operator_norms(block[seed] - u))
            bound -= slack * sq.max(axis=0)
            bound -= (slack * u_scale)[:, None]
            q, e = np.nonzero(bound <= (reach * reach)[:, None])
            exact = np.full(bound.shape, np.inf)
            # in slices: where the bound prunes little, N - u for every
            # candidate pair would outgrow the block budget
            for s in range(0, len(q), pairs):
                qs, es = q[s : s + pairs], e[s : s + pairs]
                exact[qs, es] = operator_norms(block[es] - u[qs])
            i = np.argmin(exact, axis=1)
            dist = exact[every, i]
            # later chunks win only strictly: ties keep the first index
            win = dist < near
            near[win] = dist[win]
            near_idx[win] = lo + i[win]
    return index, best


def nearest_net_element(net: UnitaryNet, u) -> tuple[int, float]:
    """Index and operator-norm distance of the closest net element."""
    u = as_square_matrix(u)
    if u.shape[0] != net.dim:
        raise InvalidInputError("dimension mismatch with net")
    index, dist = _nearest(net.elements, u[None])
    return int(index[0]), float(dist[0])


@dataclass(frozen=True)
class DensityReport:
    """Statistical covering check of a net against random probes."""

    probes: int
    max_distance: float
    mean_distance: float
    within_resolution: bool


def net_density_report(net: UnitaryNet, probes: int = 100, seed: int = 0) -> DensityReport:
    """Exact nearest-element statistics over seeded Haar-random probes.

    The probes must come from a stream independent of the net's own: a
    probe drawn by the net's seed is a net element, at distance 0.
    """
    rng = np.random.default_rng(seed)
    dists = np.empty(probes)
    for lo, block in _haar_blocks(net.dim, rng, probes):
        dists[lo : lo + len(block)] = _nearest(net.elements, block)[1]
    return DensityReport(
        probes=probes,
        max_distance=float(dists.max()),
        mean_distance=float(dists.mean()),
        within_resolution=bool(dists.max() <= net.resolution + 1e-6),
    )


@dataclass(frozen=True)
class TestElementNet:
    """Finite stand-in for a dense set of contractions, as a (k, d, d) stack."""

    dim: int
    elements: np.ndarray = field(repr=False)


def build_test_element_net(dim: int, n_random: int = 24, seed: int = 0) -> TestElementNet:
    """Matrix units plus seeded random Hermitian contractions."""
    if dim < 1 or dim > MAX_DIM:
        raise InvalidInputError(f"bad test-net dimension {dim}")
    rng = np.random.default_rng(seed)
    # unit (i, j) is element i * dim + j
    units = np.eye(dim * dim, dtype=np.complex128).reshape(dim * dim, dim, dim)
    randoms = [random_hermitian_contraction(dim, rng)[None] for _ in range(n_random)]
    elements = np.concatenate([units, *randoms])
    for a in elements:
        if operator_norm(a) > 1.0 + CONTRACTION_SLACK:
            raise NumericalInvariantError("test element exceeds contraction norm")
    return TestElementNet(dim=dim, elements=elements)


def _scan_blocks(n: int):
    """Row ranges [lo, hi) of the witness scan over a net of n elements.

    The first block has `_FIRST_BLOCK` rows and each next one ends at
    twice the rows scanned so far, up to `_CHUNK`-row blocks from row
    `_CHUNK` on, so a scan of the whole net takes at most 7 more blocks
    than whole chunks would.  Every row keeps the gap the one-chunk scan
    gives it: numpy takes a one-row block through its vector-matrix
    product, which rounds differently from the matrix product, so a lone
    last row takes the row before it along unless it starts a chunk.
    """
    lo = 0
    while lo < n:
        hi = min(n, max(2 * lo, _FIRST_BLOCK), lo + _CHUNK)
        if hi == n - 1 and hi % _CHUNK:
            hi -= 1
        yield lo, hi
        lo = hi


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

    The scan reads the net in blocks whose end doubles (see
    `_scan_blocks`), so finding the witness at index i costs work in
    proportion to i, not to the net's size.
    """
    if phi.dim != psi.dim or phi.dim != net.dim or net.dim != test_net.dim:
        raise InvalidInputError("state, net, and test-net dimensions must agree")
    threshold = 1.0 - WITNESS_STRICTNESS
    # a state's value on each test element a is <v v*, a>: one GEMM
    # against the flattened test elements for a whole chunk of vectors
    flat = test_net.elements.reshape(len(test_net.elements), -1).T
    phi_vals = np.outer(phi.vector.conj(), phi.vector).reshape(-1) @ flat
    conj_psi = psi.vector.conj()
    for lo, hi in _scan_blocks(len(net)):
        block = net.elements[lo:hi]
        # the pulled-back vectors u* psi, conjugated: psi^H u, row by row
        conj_pulled = conj_psi @ block
        outer = conj_pulled[:, :, None] * conj_pulled.conj()[:, None, :]
        outer = outer.reshape(len(block), -1)
        gaps = np.max(np.abs(outer @ flat - phi_vals), axis=1)
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
