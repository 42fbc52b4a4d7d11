"""Finite unitary nets and the witness search for state equivalence.

A countable dense set of unitaries is stood in for by an exhaustive net
of U(1) or U(2), phases times a projected cube grid on SU(2) with a
proven covering radius, or by a seeded random net at any dimension,
whose density is only measured: the exact operator-norm distance from
Haar probes, drawn independently of the net, to their nearest elements.

The search accepts the first enumerated unitary u whose test-set gap
max_a |phi(a) - psi(u a u*)| stays below 1.  The maximum runs over a
finite test net, so the gap only bounds ||phi - psi o Ad u|| from below:
a witness may sit at exact distance 1 or more.  The verdict rests on
`distance_bound_check`, the exact distance being below 2, which by
Glimm and Kadison makes the two pure states unitarily equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import CONSTRUCTION_TOL, CONTRACTION_SLACK, DISTANCE_STRICTNESS, MAX_NET_BYTES
from .config import WITNESS_STRICTNESS, block_rows, check_count, check_dim
from .errors import DomainError, InvalidInputError, NumericalInvariantError, SizeLimitError
from .linalg import (
    gram_top_eigenvalue,
    haar_unitary,
    operator_norms,
    random_hermitian_contraction,
)
from .states import VectorState, pullback, state_distance

_CHUNK = 8192
_FIRST_BLOCK = 64
# candidates per probe normed before the reach is lowered to their best
_FIRST_NORMS = 4


@dataclass(frozen=True)
class UnitaryNet:
    """Finite enumeration of unitaries standing in for a dense subset.

    The net is unit phases, of which the first is exactly 1, times a base
    stack: for K base elements, element k K + j is `phases[k] * base[j]`.
    An exhaustive net is its m phases times the SU(2) grid (`[[1]]` at dim
    1); a random net is phase 1 times its drawn stack.  Readers take blocks
    of elements from `rows`, so an exhaustive net is never formed whole;
    `elements` forms it.

    `resolution` is the covering radius the net aims at.  An exhaustive
    net proves `covering_radius` <= `resolution`; a random net proves none.
    """

    dim: int
    resolution: float
    mode: str
    phases: np.ndarray = field(repr=False)
    base: np.ndarray = field(repr=False)
    covering_radius: float | None = None

    def __len__(self) -> int:
        return len(self.phases) * len(self.base)

    @property
    def elements(self) -> np.ndarray:
        """All elements as one (len, dim, dim) stack, formed anew unless there is one phase."""
        return self.rows(0, len(self))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Elements lo..hi-1, for 0 <= lo < hi <= len.

        Rows of phase 0, which is exactly 1, are a view of the base.  A
        block reaching past them is formed as a product for its partial
        first phase, its whole phases and its partial last phase.
        """
        size = len(self.base)
        if hi <= size:
            return self.base[lo:hi]
        out = np.empty((hi - lo, self.dim, self.dim), dtype=np.complex128)
        first, a = divmod(lo, size)
        last, b = divmod(hi, size)
        if first == last:
            np.multiply(self.phases[first], self.base[a:b], out=out)
            return out
        np.multiply(self.phases[first], self.base[a:], out=out[: size - a])
        whole = out[size - a : len(out) - b].reshape(-1, size, self.dim, self.dim)
        np.multiply(self.phases[first + 1 : last, None, None, None], self.base, out=whole)
        if b:
            np.multiply(self.phases[last], self.base[:b], out=out[len(out) - b :])
        return out


def _element_cap(dim: int, kind: str) -> int:
    """Most (dim, dim) complex elements a `kind` net may hold, once dim passes."""
    if dim < 1:
        raise InvalidInputError(f"bad {kind} dimension {dim}")
    return MAX_NET_BYTES // (16 * check_dim(dim, f"{kind} dimension") ** 2)


def _net_cap(dim: int, epsilon: float, size: int | None = None) -> int:
    """Most elements a net of U(dim) may hold, once dim, a random net's size and epsilon pass."""
    cap = _element_cap(dim, "net")
    if size is not None and size < 1:
        raise InvalidInputError("net size must be positive")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError("net resolution must lie in (0, 1]")
    if size is not None and size + 1 > cap:
        msg = f"random net at dim {dim} needs {size + 1} elements (cap {cap})"
        raise SizeLimitError(msg, estimated_size=size + 1)
    return cap


def exhaustive_net_plan(dim: int, epsilon: float) -> tuple[int, int, float]:
    """Cube divisions n, phases m and proven radius of the smallest exhaustive net.

    At dim 2, u = e^{i phi} s, s = [[a + ib, c + id], [-c + id, a - ib]] in
    SU(2) for q = (a, b, c, d) a unit quaternion, and ||s - s'|| = |q - q'|.
    The 8 n^3 + 8 n points of spacing 2/n on the surface of [-1, 1]^4, n
    even, projected radially to S^3, cover it within sqrt(3)/n, since the
    projection onto the unit ball is 1-Lipschitz; m phases k pi / m add
    2 sin(pi / 4m), as (phi, q) ~ (phi + pi, -q).  At dim 1, m phases
    2 pi k / m cover within 2 sin(pi / 2m).  A dim-2 net has over
    8 (sqrt(3) / epsilon)^3 elements: past the cap, no n is tried.
    """
    cap = _net_cap(dim, epsilon)
    spheres = [(0, 1, 0.0)] if dim == 1 else []
    if dim == 2 and epsilon >= math.sqrt(3.0) * (8.0 / cap) ** (1.0 / 3.0):
        first = 2 * math.floor(math.sqrt(3.0) / (2.0 * epsilon)) + 2
        last = round((cap / 8.0) ** (1.0 / 3.0))
        spheres = [(n, 8 * n**3 + 8 * n, math.sqrt(3.0) / n) for n in range(first, last + 1, 2)]
    angle = math.pi / (2 * dim)  # m times the largest phase offset
    plans = []
    for n, points, radius in spheres:
        room = math.asin((epsilon - radius) / 2.0)
        if room * (cap // points) >= angle:  # m <= cap / points, without dividing by room
            m = math.ceil(angle / room)
            while radius + 2.0 * math.sin(angle / m) > epsilon:
                m += 1
            plans.append((points * m, n, m, radius + 2.0 * math.sin(angle / m)))
    plans = [plan for plan in plans if plan[0] <= cap]
    if not plans:
        raise SizeLimitError(f"no exhaustive net at dim {dim}, resolution {epsilon} within the cap")
    return min(plans)[1:]


def _check_all_unitary(elements: np.ndarray) -> float:
    """Worst ||u*u - I||_F over a stack, in row blocks; refused past CONSTRUCTION_TOL."""
    dim = elements.shape[-1]
    step = block_rows(16 * dim * dim)
    worst = 0.0
    for lo in range(0, len(elements), step):
        block = elements[lo : lo + step]
        gram = np.einsum("nji,njk->nik", block.conj(), block)
        gram -= np.eye(dim, dtype=np.complex128)
        # Frobenius norm dominates the operator norm
        worst = max(worst, float(np.sqrt(np.max(np.einsum("nij,nij->n", gram.conj(), gram).real))))
    if worst > CONSTRUCTION_TOL:
        raise NumericalInvariantError(f"net element off unitarity by {worst:.3e}")
    return worst


def _check_products_unitary(phases: np.ndarray, base: np.ndarray) -> None:
    """Refuse unless every rounded product p s of a phase and a base element is unitary.

    The base is checked once; the bound below on each product's miss,
    within CONSTRUCTION_TOL, is never below what `_check_all_unitary`
    would measure on the products.  With u = 2^-53, v = fl(p s) is p s + E,
    each entry of E within sqrt(5) u |p s_ij|, so ||E||_F <= e = sqrt(5) u
    |p| ||s||_F, and ||s||_F^2 = tr s*s <= d + sqrt(d) ||s*s - I||_F <= 2d.
    As v*v - I = |p|^2 (s*s - I) + (|p|^2 - 1) I + conj(p) s*E + p E*s + E*E,
        ||v*v - I||_F <= |p|^2 miss + ||p|^2 - 1| sqrt(d) + 2 |p| ||s||_F e + e^2.
    Each measured miss, the base's and a product's, is off the exact one by
    less than r = 16 d^2 u max(1, |p|)^2 ||s||_F^2, which also covers the
    rounding of the computed |p| and ||p|^2 - 1|; the bound adds r for each.
    """
    d = base.shape[-1]
    miss = _check_all_unitary(base)
    moduli = np.abs(phases)
    top = float(moduli.max())
    off = float(np.max(np.abs(moduli * moduli - 1.0)))
    unit = 2.0**-53
    frob = math.sqrt(2 * d)
    e = math.sqrt(5.0) * unit * top * frob
    slack = 16 * d * d * unit * (max(top, 1.0) * frob) ** 2
    bound = top * top * (miss + slack) + off * math.sqrt(d) + 2 * top * frob * e + e * e + slack
    if bound > CONSTRUCTION_TOL:
        raise NumericalInvariantError(f"net element off unitarity by up to {bound:.3e}")


def _draw_blocks(draw, dim: int, rng: np.random.Generator, count: int):
    """`count` matrices of `draw(dim, rng, count=k)` as (offset, block) pairs within the budget.

    `haar_unitary` and `random_hermitian_contraction` read their stream in
    order, so the blocks are those of a single draw; as a draw peaks at
    about 5x its stack, a block takes a quarter of the budget.
    """
    step = block_rows(64 * dim * dim)
    for lo in range(0, count, step):
        yield lo, draw(dim, rng, count=min(step, count - lo))


def _su2_grid(n: int) -> np.ndarray:
    """SU(2) at the grid points of spacing 2/n on the surface of [-1, 1]^4, n even.

    A point lies on the face of its first coordinate of modulus 1, so it
    occurs once: on the face of axis a, coordinates before a are interior.
    Faces run +e_0, -e_0, +e_1, ... and coordinates from the centre out
    (0, h, -h, 2h, ...), so the first point is e_0, the identity.
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


def enumerate_net(dim: int, epsilon: float) -> UnitaryNet:
    """Exhaustive net of U(dim), dim 1 or 2, with proven radius at most epsilon.

    Element k K + j is e^{2 pi i k / (dim m)} times point j of the K-point
    `_su2_grid` (1 at dim 1), for the n and m of `exhaustive_net_plan`.  As
    det u = e^{2 i phi} fixes the phase, no element repeats; element 0 is
    the identity.  The net holds the m phases and the grid, never their
    products; the grid is checked for unitarity once, and the products
    through a proven bound (`_check_products_unitary`).  Other dims and nets
    over the byte cap, which still caps the element count, are refused with
    a size-limit error: the signal to use a random net.
    """
    n, m, radius = exhaustive_net_plan(dim, epsilon)
    phases = np.exp(2j * np.pi * np.arange(m) / (dim * m))
    base = _su2_grid(n) if dim == 2 else np.ones((1, 1, 1), dtype=np.complex128)
    # Phase 0 is exactly 1.  Multiplying by it changes only the signs of
    # some zero parts, as forming the products does: the base rows are then
    # the phase-0 elements bit for bit.
    base *= 1.0 + 0.0j
    _check_products_unitary(phases, base)
    return UnitaryNet(
        dim=dim,
        resolution=float(epsilon),
        mode="exhaustive",
        phases=phases,
        base=base,
        covering_radius=radius,
    )


def random_net(dim: int, epsilon: float, size: int, seed: int) -> UnitaryNet:
    """Seeded Haar-random net with the identity as element 0.

    Used where no exhaustive net exists; its covering radius is only
    measured, by `net_density_report`, never proven.  It is phase 1 times
    the drawn stack, which is held whole.
    """
    _net_cap(dim, epsilon, size)
    rng = np.random.default_rng(seed)
    elements = np.empty((size + 1, dim, dim), dtype=np.complex128)
    elements[0] = np.eye(dim)
    for lo, block in _draw_blocks(haar_unitary, dim, rng, size):
        _check_all_unitary(block)
        elements[1 + lo : 1 + lo + len(block)] = block
    return UnitaryNet(
        dim=dim,
        resolution=float(epsilon),
        mode="random",
        phases=np.ones(1, dtype=np.complex128),
        base=elements,
    )


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of a (k, d, d) stack as real rows, and their squared norms.

    Row [j, m] of the (d, k, 2d) result is column j of matrix m, real parts
    then imaginary parts, so Re <a e_j, b e_j> is a dot product of rows;
    the squared norms come as a (d, k) array.
    """
    d = a.shape[-1]
    cols = np.empty((d, a.shape[0], 2 * d))
    cols[..., :d] = a.real.transpose(2, 0, 1)
    cols[..., d:] = a.imag.transpose(2, 0, 1)
    return cols, np.einsum("jkx,jkx->jk", cols, cols)


def _exact_norms(exact, block, u, q, e, pairs: int) -> None:
    """Set exact[q, e] to ||block[e] - u[q]||, `pairs` differences at a time.

    In slices: where the bound prunes little, N - u for every candidate
    pair would outgrow the block budget.
    """
    for s in range(0, len(q), pairs):
        qs, es = q[s : s + pairs], e[s : s + pairs]
        exact[qs, es] = operator_norms(block[es] - u[qs])


def _nearest(net: UnitaryNet, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and operator-norm distance of the closest net element to each probe.

    Bit-identical to computing `operator_norms(net.elements - u)` for each
    probe u and keeping the first index of the least value, but exact norms
    are computed only for (element, probe) pairs that can still win.  The
    largest column norm of N - u bounds ||N - u|| from below; its square
    is max_j ||N e_j||^2 + ||u e_j||^2 - 2 Re <N e_j, u e_j>, d GEMMs over
    all pairs of a tile.  A pair is normed exactly only while that bound,
    less a rounding slack scaled by the column norms, is within the probe's
    reach: an exact distance already taken.  The reach starts at the lesser
    of the best distance of earlier chunks and that of the chunk's
    lowest-bound element, its seed; the pairs within it are the
    candidates.  Each probe's `_FIRST_NORMS` lowest-bound candidates, the
    seed first with its distance reused, are normed first and lower its
    reach to their least distance; of the rest, only those whose bound is
    still within it are normed.  Every pair left out is strictly farther
    than some normed one, so it can neither win nor tie.

    Element chunks of at most `_CHUNK` run outside and probe tiles inside,
    so a chunk's columns are formed once; a chunk's elements, taken from
    `net.rows`, and its columns, 16 d^2 bytes per element each, stay within
    16 block budgets, and a tile's float (probe, element) arrays, allocated
    once per chunk, within one.
    """
    n, d, count = len(net), net.dim, probes.shape[0]
    best = np.full(count, np.inf)
    index = np.zeros(count, dtype=np.intp)
    # Rounding moves the squared bound by about 2d eps and the squared exact
    # norm by about 2d^2 eps, each times ||N e_j||^2 + ||u e_j||^2 at most;
    # 64 d^2 eps times the largest such column norms covers both.
    slack = 64.0 * d * d * np.finfo(np.float64).eps
    chunk = min(n, _CHUNK, block_rows(d * d))
    step = block_rows(8 * chunk)
    # a slice forms about four (pairs, d, d) complex arrays: operands, differences, Gram matrices
    pairs = block_rows(64 * d * d)
    for lo in range(0, n, chunk):
        block = net.rows(lo, min(n, lo + chunk))
        cols, sq_less = _columns(block)
        # The slack is taken off the squared column norms, not the tile.
        sq_less -= slack * sq_less.max(axis=0)
        # (probe, element) tiles, so each probe's scan runs along a row;
        # `exact` holds each column's squared norms until the exact pass.
        bound = np.empty((min(step, count), len(block)))
        exact = np.empty_like(bound)
        for plo in range(0, count, step):
            u = probes[plo : plo + step]
            u_cols, u_sq_less = _columns(u)
            u_sq_less -= slack * u_sq_less.max(axis=0)
            near, near_idx = best[plo : plo + step], index[plo : plo + step]
            every = np.arange(len(u))
            bound, exact = bound[: len(u)], exact[: len(u)]  # only the last tile is shorter
            bound.fill(0.0)
            for j in range(d):
                np.matmul(u_cols[j], cols[j].T, out=exact)
                exact *= -2.0
                exact += sq_less[j]
                exact += u_sq_less[j][:, None]
                np.maximum(bound, exact, out=bound)
            seed = np.argmin(bound, axis=1)
            seed_dist = operator_norms(block[seed] - u)
            reach = np.minimum(near, seed_dist)
            q, e = np.nonzero(bound <= (reach * reach)[:, None])
            low = bound[q, e]
            # each probe's candidates in a run, lowest bound first; the
            # first few of each run are normed first and lower its reach
            order = np.lexsort((low, q))
            q, e, low = q[order], e[order], low[order]
            first = np.ones(len(q), dtype=bool)
            first[_FIRST_NORMS:] = q[_FIRST_NORMS:] != q[:-_FIRST_NORMS]
            exact.fill(np.inf)
            # a probe's seed leads its run, if a candidate at all, and its
            # distance is known already
            exact[every, seed] = seed_dist
            unknown = first & (e != seed[q])
            qf, ef = q[unknown], e[unknown]
            _exact_norms(exact, block, u, qf, ef, pairs)
            np.minimum.at(reach, qf, exact[qf, ef])
            rest = ~first & (low <= (reach * reach)[q])
            _exact_norms(exact, block, u, q[rest], e[rest], pairs)
            i = np.argmin(exact, axis=1)
            dist = exact[every, i]
            # later chunks win only strictly: ties keep the first index
            win = dist < near
            near[win] = dist[win]
            near_idx[win] = lo + i[win]
        del block, cols, sq_less, bound, exact  # before the next chunk's are formed
    return index, best


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
    if probes < 1:
        raise InvalidInputError(f"density probe count {probes} is not positive")
    rng = np.random.default_rng(seed)
    dists = np.empty(check_count(probes, "density probe count"))
    for lo, block in _draw_blocks(haar_unitary, net.dim, rng, probes):
        dists[lo : lo + len(block)] = _nearest(net, block)[1]
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
    """Matrix units plus seeded random Hermitian contractions, under the net byte cap."""
    cap = _element_cap(dim, "test-net")
    if n_random < 0:
        raise InvalidInputError(f"random test-element count {n_random} is negative")
    if dim * dim + n_random > cap:
        msg = f"test net at dim {dim} needs {dim * dim + n_random} elements (cap {cap})"
        raise SizeLimitError(msg, estimated_size=dim * dim + n_random)
    rng = np.random.default_rng(seed)
    elements = np.empty((dim * dim + n_random, dim, dim), dtype=np.complex128)
    # unit (i, j) is element i * dim + j, of norm 1 exactly
    elements[: dim * dim] = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    for lo, block in _draw_blocks(random_hermitian_contraction, dim, rng, n_random):
        if np.sqrt(gram_top_eigenvalue(block).max()) > 1.0 + CONTRACTION_SLACK:
            raise NumericalInvariantError("test element exceeds contraction norm")
        elements[dim * dim + lo : dim * dim + lo + len(block)] = block
    return TestElementNet(dim=dim, elements=elements)


def _scan_blocks(n: int, most: int):
    """Row ranges [lo, hi) of the witness scan over n net elements.

    The first block has `_FIRST_BLOCK` rows and each next one ends at
    twice the rows scanned so far, capped at `most` rows (at least 2).  A
    lone last row joins the block before it: numpy takes a one-row block
    through its vector-matrix product, which rounds differently from the
    matrix product, so this keeps every row's gap as one product over all
    n rows gives it.
    """
    lo = 0
    while lo < n:
        hi = min(n, max(2 * lo, _FIRST_BLOCK), lo + most)
        hi += hi == n - 1
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

    Ad(z u) = Ad(u) for a unit phase z, so the gap does not depend on an
    element's phase: the search runs over PU(d), scanning only the net's
    base (its phase-0 elements, indexed as in the net) in blocks whose end
    doubles (see `_scan_blocks`), so finding the witness at index i costs
    work in proportion to i, not to the net's size.  A block forms a few
    (rows, d^2 + k) complex arrays for k test elements, so its rows are
    capped by the block budget of that width.
    """
    if phi.dim != psi.dim or phi.dim != net.dim or net.dim != test_net.dim:
        raise InvalidInputError("state, net, and test-net dimensions must agree")
    threshold = 1.0 - WITNESS_STRICTNESS
    # a state's value on each test element a is <v v*, a>: one GEMM
    # against the flattened test elements for a whole chunk of vectors
    flat = test_net.elements.reshape(len(test_net.elements), -1).T
    phi_vals = np.outer(phi.vector.conj(), phi.vector).reshape(-1) @ flat
    conj_psi = psi.vector.conj()
    most = max(2, block_rows(16 * (net.dim * net.dim + flat.shape[1])))
    for lo, hi in _scan_blocks(len(net.base), most):
        block = net.base[lo:hi]
        # the pulled-back vectors u* psi, conjugated: psi^H u, row by row
        conj_pulled = conj_psi @ block
        outer = conj_pulled[:, :, None] * conj_pulled.conj()[:, None, :]
        outer = outer.reshape(len(block), -1)
        gaps = np.max(np.abs(outer @ flat - phi_vals), axis=1)
        hits = np.nonzero(gaps < threshold)[0]
        if hits.size:
            i = int(hits[0])
            return WitnessResult(index=lo + i, unitary=block[i], gap=float(gaps[i]))
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
    return DistanceBound(norm_distance=dist, below_two=bool(dist < 2.0 - DISTANCE_STRICTNESS))
