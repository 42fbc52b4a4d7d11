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

_FIRST_BLOCK = 64
# probes per tile of the nearest-element scan, whose grid blocks then span
# at least block_rows(32) / 128 grid points
_TILE_PROBES = 128
# candidates per probe normed before the reach is lowered to their best
_FIRST_NORMS = 4


@dataclass(frozen=True)
class UnitaryNet:
    """Finite enumeration of unitaries standing in for a dense subset.

    The net is unit phases, of which the first is exactly 1, times a base
    stack: for K base elements, element k K + j is `phases[k] * base[j]`.
    An exhaustive net is its m phases times the SU(2) grid (`[[1]]` at dim
    1); a random net is phase 1 times its drawn stack.  Readers take blocks
    of elements from `rows`, or chosen elements from `take`, so an
    exhaustive net is never formed whole; `elements` forms it.

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

    def take(self, index: np.ndarray) -> np.ndarray:
        """Elements at the given indices, each with the bits `rows` gives it."""
        phase, point = np.divmod(index, len(self.base))
        out = self.base[point]
        later = np.nonzero(phase)[0]
        # the phase as the first factor, as in `rows`: the product rounds by operand order
        out[later] = self.phases[phase[later], None, None] * out[later]
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
    """Worst ||u*u - I||_F over a stack, in row blocks; refused past CONSTRUCTION_TOL.

    A block forms three (rows, d, d) complex arrays, the conjugate, the
    Gram matrices and their conjugate, which share one block budget.
    """
    dim = elements.shape[-1]
    step = block_rows(48 * dim * dim)
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

    Each face's points are written as quaternions q = (a, b, c, d) into
    the first four floats of their rows of the output, normalized there,
    and the rows then completed to [[a + ib, c + id], [-c + id, a - ib]]:
    the grid is the only array of its size formed.
    """
    ticks = np.array([0] + [s * k for k in range(1, n // 2 + 1) for s in (1, -1)]) * 2.0 / n
    count = 8 * n**3 + 8 * n
    grid = np.empty((count, 2, 2), dtype=np.complex128)
    rows = grid.view(np.float64).reshape(count, 8)
    lo = 0
    for axis in range(4):
        for sign in (1.0, -1.0):
            coords = [ticks[:-2]] * axis + [np.array([sign])] + [ticks] * (3 - axis)
            shape = tuple(len(t) for t in coords)
            face = rows[lo : lo + math.prod(shape)]
            for k, t in enumerate(coords):
                face.reshape(shape + (8,))[..., k] = t.reshape([-1 if i == k else 1 for i in range(4)])
            # |q| summed in order, as np.linalg.norm sums a row
            norm = face[:, 0] * face[:, 0]
            for k in range(1, 4):
                norm += face[:, k] * face[:, k]
            face[:, :4] /= np.sqrt(norm, out=norm)[:, None]
            lo += len(face)
    # [a, b, c, d, 0 d - c, d, a, 0 - b]: the floats, zeros' signs included,
    # of the complex sums a + 1j * b, ..., a - 1j * b
    np.multiply(rows[:, 3], 0.0, out=rows[:, 4])
    rows[:, 4] -= rows[:, 2]
    rows[:, 5] = rows[:, 3]
    rows[:, 6] = rows[:, 0]
    np.subtract(0.0, rows[:, 1], out=rows[:, 7])
    return grid


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


def _squared_columns(a: np.ndarray, slack: float) -> np.ndarray:
    """(k, d) squared column norms of a (k, d, d) stack, each less `slack` times its squared Frobenius norm."""
    sq = np.einsum("kij,kij->kj", a.real, a.real) + np.einsum("kij,kij->kj", a.imag, a.imag)
    sq -= slack * sq.sum(axis=1, keepdims=True)
    return sq


class _ProbeTile:
    """Squared lower bounds on the distances from a tile of probes to the net.

    With c_j = <u e_j, s e_j>, column j of z s - u has squared norm
    |z|^2 ||s e_j||^2 + ||u e_j||^2 - 2 Re(z c_j), and the largest column
    norm bounds ||z s - u|| from below.  `phases` takes that bound for
    given (probe, grid point) pairs phase by phase, with |z| taken as 1.
    As Re(z c_j) <= |c_j|, `grid` bounds every phase of a grid point at
    once with max_j ||s e_j||^2 + ||u e_j||^2 - 2 |c_j|, from one complex
    product of the probes against the grid points.  A net of one phase,
    which is 1, needs no phase bounds: its grid bound takes Re c_j, and
    one real product per column gives it whole.

    Each bound is less `slack` times ||s||_F^2 + ||u||_F^2: 64 d^2 eps
    (times the largest |z|^2) covers the rounding of the bound, of forming
    z s and of its exact norm, as it did for bounds from formed elements,
    and 2 max ||z|^2 - 1| the moduli taken as 1, which move a column's
    square by at most ||z|^2 - 1| (||s e_j||^2 + ||u e_j||^2).
    """

    def __init__(self, net: UnitaryNet, u: np.ndarray, width: int):
        d = net.dim
        moduli = np.abs(net.phases)
        top = max(1.0, float(moduli.max()))
        off = float(np.max(np.abs(moduli * moduli - 1.0)))
        self.slack = 64.0 * d * d * np.finfo(np.float64).eps * top * top + 2.0 * off
        self.net, self.u = net, u
        self.single = len(net.phases) == 1
        self.u_sq = _squared_columns(u, self.slack)
        if self.single:
            # row p of rows[j] is (-2 Re u_p e_j, -2 Im u_p e_j, ||u_p e_j||^2, 1), so that
            # rows[j] @ (Re s e_j, Im s e_j, 1, ||s e_j||^2) is the bound's column-j square
            self.rows = np.empty((d, len(u), 2 * d + 2))
            self.rows[:, :, :d] = -2.0 * u.real.transpose(2, 0, 1)
            self.rows[:, :, d : 2 * d] = -2.0 * u.imag.transpose(2, 0, 1)
            self.rows[:, :, 2 * d] = self.u_sq.T
            self.rows[:, :, 2 * d + 1] = 1.0
        else:
            # row p of conj_cols[j] is conj(u_p e_j): conj_cols[j] @ s[:, :, j].T is c_j
            self.conj_cols = np.ascontiguousarray(u.conj().transpose(2, 0, 1))
            self.conj_flat = u.conj().reshape(len(u), -1)
            self.u_frob = np.einsum("kij,kij->k", u.real, u.real) + np.einsum("kij,kij->k", u.imag, u.imag)
            self._c = np.empty(len(u) * width, dtype=np.complex128)
        # float (probe, grid point) tiles, reused block by block
        self._y = np.empty(len(u) * width)
        self._bound = np.empty(len(u) * width)

    def grid(self, lo: int, hi: int) -> np.ndarray:
        """(probes, hi - lo) bounds over every phase of grid points lo..hi-1."""
        d, s = self.net.dim, self.net.base[lo:hi]
        shape = (len(self.u), hi - lo)
        size = shape[0] * shape[1]
        y, bound = self._y[:size].reshape(shape), self._bound[:size].reshape(shape)
        if self.single:
            cols = np.empty((d, 2 * d + 2, hi - lo))
            cols[:, :d] = s.real.transpose(2, 1, 0)
            cols[:, d : 2 * d] = s.imag.transpose(2, 1, 0)
            cols[:, 2 * d] = 1.0
            s_sq = cols[:, 2 * d + 1]
            np.einsum("jrk,jrk->jk", cols[:, : 2 * d], cols[:, : 2 * d], out=s_sq)
            s_sq -= self.slack * s_sq.sum(axis=0)
        else:
            s_sq = _squared_columns(s, self.slack).T
            c = self._c[:size].reshape(shape)
        for j in range(d):
            out = y if j else bound
            if self.single:
                np.matmul(self.rows[j], cols[j], out=out)
            else:
                np.matmul(self.conj_cols[j], s[:, :, j].T, out=c)
                np.abs(c, out=out)
                out *= -2.0
                out += s_sq[j]
                out += self.u_sq[:, j, None]
            if j:
                np.maximum(bound, y, out=bound)
        return bound

    def frobenius(self, lo: int, hi: int) -> np.ndarray:
        """(probes, hi - lo) least ||z s - u||_F^2 over all unit z, for grid points lo..hi-1.

        ||s||_F^2 + ||u||_F^2 - 2 |tr u* s|, from one complex product: it
        ranks grid points by their distance up to a common phase, where the
        grid bound lets each column take its own.
        """
        s = self.net.base[lo:hi]
        shape = (len(self.u), hi - lo)
        size = shape[0] * shape[1]
        c, y = self._c[:size].reshape(shape), self._y[:size].reshape(shape)
        np.matmul(self.conj_flat, s.reshape(hi - lo, -1).T, out=c)
        np.abs(c, out=y)
        y *= -2.0
        y += np.einsum("kij,kij->k", s.real, s.real) + np.einsum("kij,kij->k", s.imag, s.imag)
        y += self.u_frob[:, None]
        return y

    def phases(self, q: np.ndarray, points: np.ndarray, width: int):
        """(k, bounds) for phases k..k+width-1, k = 0, width, ...: from probe q[i] to those phases of grid point points[i]."""
        s = self.net.base[points]
        c = np.einsum("kij,kij->kj", self.u[q].conj(), s)
        sq = _squared_columns(s, self.slack) + self.u_sq[q]
        for k in range(0, len(self.net.phases), width):
            z = self.net.phases[k : k + width]
            bound = None
            for j in range(self.net.dim):
                # sq_j - 2 Re(z c_j) = sq_j - 2 Re c_j Re z + 2 Im c_j Im z
                y = np.multiply.outer(-2.0 * c[:, j].real, z.real)
                y += np.multiply.outer(2.0 * c[:, j].imag, z.imag)
                y += sq[:, j, None]
                bound = y if bound is None else np.maximum(bound, y, out=bound)
            yield k, bound

    def elements(self, q: np.ndarray, points: np.ndarray, reach2: np.ndarray):
        """Probes and element indices of the pairs (q[i], element of grid point points[i]) within reach2[q].

        In pieces of up to `block_rows(8)` (pair, phase) bounds, each
        yielded as soon as it is bounded, so that its norms lower the reach
        of the next.
        """
        if self.single:
            yield q, points
            return
        most, m = block_rows(8), len(self.net.phases)
        width = min(m, most)
        rows = max(1, most // width)
        for lo in range(0, len(q), rows):
            pq, pp = q[lo : lo + rows], points[lo : lo + rows]
            for k, bound in self.phases(pq, pp, width):
                i, phase = np.nonzero(bound <= reach2[pq, None])
                yield pq[i], (phase + k) * len(self.net.base) + pp[i]


def _keep_least(low: np.ndarray, points: np.ndarray, values: np.ndarray, lo: int) -> None:
    """Put each row's least value, of column j, in place of the row's largest in `low` where it is less.

    Its point, lo + j, takes the same place in `points`.
    """
    r = np.arange(len(values))
    col = np.argmin(values, axis=1)
    slot = np.argmax(low, axis=1)
    better = np.flatnonzero(values[r, col] < low[r, slot])
    low[better, slot[better]] = values[better, col[better]]
    points[better, slot[better]] = lo + col[better]


def _first_candidates(scan: _ProbeTile, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each probe's first candidates, lowest bound first, and their bounds.

    A pass over the grid takes each block's grid point of least rank for
    each probe and keeps the f = `_FIRST_NORMS` of least rank (fewer where
    the grid has fewer blocks).  With one phase the rank is the grid bound,
    which is the element bound, and these points are the candidates: the
    seed is each probe's element of least bound.  With more, the grid bound
    lets each column take its own phase and ranks poorly; the rank is the
    distance up to a common phase (`_ProbeTile.frobenius`), and the
    candidates are the `_FIRST_NORMS` elements of the f points of least
    phase bound.
    """
    net, count = scan.net, len(scan.u)
    size, m = len(net.base), len(net.phases)
    f = min(_FIRST_NORMS, -(-size // width))
    rank = scan.grid if m == 1 else scan.frobenius
    low, points = np.full((count, f), np.inf), np.full((count, f), -1, dtype=np.intp)
    for lo in range(0, size, width):
        _keep_least(low, points, rank(lo, min(size, lo + width)), lo)
    r = np.arange(count)[:, None]
    if m > 1:
        first = min(_FIRST_NORMS, f * m)
        low_e, idx = np.full((count, first), np.inf), np.full((count, first), -1, dtype=np.intp)
        q, flat = np.repeat(np.arange(count), f), points.ravel()
        for k, bound in scan.phases(q, flat, max(1, block_rows(8) // (count * f))):
            ids = np.arange(k, k + bound.shape[1]) * size + points[:, :, None]
            values = np.hstack([low_e, bound.reshape(count, -1)])
            ids = np.hstack([idx, ids.reshape(count, -1)])
            keep = np.argsort(values, axis=1, kind="stable")[:, :first]
            low_e, idx = values[r, keep], ids[r, keep]
        return idx, low_e
    order = np.argsort(low, axis=1, kind="stable")
    return points[r, order], low[r, order]


def _take_nearer(near, near_idx, q, idx, dist) -> None:
    """Lower near[q] to dist where it is less, or equal at a lower element index."""
    order = np.lexsort((idx, dist, q))
    q, idx, dist = q[order], idx[order], dist[order]
    lead = np.ones(len(q), dtype=bool)
    lead[1:] = q[1:] != q[:-1]
    q, idx, dist = q[lead], idx[lead], dist[lead]
    win = (dist < near[q]) | ((dist == near[q]) & (idx < near_idx[q]))
    near[q[win]] = dist[win]
    near_idx[q[win]] = idx[win]


def _norm_pairs(net: UnitaryNet, u: np.ndarray, q: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """||element idx[i] - u[q[i]]|| for each i, a slice of pairs at a time.

    In slices: where the bound prunes little, N - u for every candidate
    pair would outgrow the block budget.  A slice forms about four (pairs,
    d, d) complex arrays: operands, differences, Gram matrices.
    """
    pairs = block_rows(64 * net.dim * net.dim)
    dist = np.empty(len(q))
    for s in range(0, len(q), pairs):
        dist[s : s + pairs] = operator_norms(net.take(idx[s : s + pairs]) - u[q[s : s + pairs]])
    return dist


def _nearest(net: UnitaryNet, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and operator-norm distance of the closest net element to each probe.

    Bit-identical to computing `operator_norms(net.elements - u)` for each
    probe u and keeping the first index of the least value, but exact norms
    are computed only for (element, probe) pairs that can still win, and
    elements are formed (`UnitaryNet.take`, with the bits of `rows`) only
    for those.  No block of elements is formed to be bounded: the bounds of
    `_ProbeTile` come from the grid, first for all phases of a grid point
    at once, then phase by phase for the pairs that pass.

    Probes run in tiles of up to `_TILE_PROBES`, each with two passes over
    the grid in blocks, with one seed and one reach per probe.  The first
    pass picks each probe's first candidates (`_first_candidates`).  The
    lowest, the seed, is normed, and its distance is the probe's reach; the
    other first candidates within it are normed next and lower the reach to
    their least distance.  The second pass norms every other element whose
    bound, less its slack, is within the reach, piece by piece, and each
    piece's norms lower the reach of the next.  Every pair left out is
    strictly farther than some normed one, so it can neither win nor tie;
    ties go to the lower index.

    The working set is fixed: a (probe, grid point) tile of one block
    budget (two float arrays, or a complex and two float arrays of half
    the pairs where there are phases), phase bounds in pieces of up to
    two budgets, and exact norms in slices of one.
    """
    count, size, m = len(probes), len(net.base), len(net.phases)
    best = np.full(count, np.inf)
    index = np.zeros(count, dtype=np.intp)
    # a float tile of one budget, or a complex one where there are phases
    tile = block_rows(16 if m == 1 else 32)
    rows = min(count, _TILE_PROBES, tile)
    width = min(size, max(1, tile // rows))
    for plo in range(0, count, rows):
        u = probes[plo : plo + rows]
        near, near_idx = best[plo : plo + rows], index[plo : plo + rows]
        scan = _ProbeTile(net, u, width)
        first, low = _first_candidates(scan, width)
        every = np.arange(len(u))
        # the seed's distance is each probe's first reach
        _take_nearer(near, near_idx, every, first[:, 0], _norm_pairs(net, u, every, first[:, 0]))
        q, i = np.nonzero(low[:, 1:] <= (near * near)[:, None])
        idx = first[q, i + 1]
        _take_nearer(near, near_idx, q, idx, _norm_pairs(net, u, q, idx))
        for lo in range(0, size, width):
            bound = scan.grid(lo, min(size, lo + width))
            q, points = np.divmod(np.flatnonzero(bound <= (near * near)[:, None]), bound.shape[1])
            if not len(q):
                continue
            points += lo
            for pq, idx in scan.elements(q, points, near * near):
                # the first candidates are normed already, or farther than the seed
                new = ~(first[pq] == idx[:, None]).any(axis=1)
                pq, idx = pq[new], idx[new]
                if len(pq):
                    _take_nearer(near, near_idx, pq, idx, _norm_pairs(net, u, pq, idx))
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
