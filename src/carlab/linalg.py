"""Dense complex linear algebra primitives.

Input coercion, operator and trace norms, unitarity checks, the
explicit two-plane unitary, and the batched layer shared by the search
oracles and the unitary nets: Hermitian matrices from real generator
parameters, exp(iH), operator norms and the terms of two-plane
unitaries, over stacks.  Norms come from Hermitian eigen-decompositions,
never from iterative methods, so repeated runs give identical values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .config import UNIT_NORM_TOL, UNITARY_TOL, check_count, pow2
from .errors import InvalidInputError


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def as_unit_vector(v, tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Coerce to a complex128 vector of unit Euclidean norm (within tol)."""
    w = np.asarray(v, dtype=np.complex128)
    if w.ndim != 1 or w.shape[0] < 1:
        raise InvalidInputError(f"expected a vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("vector has non-finite entries")
    nrm = np.linalg.norm(w)
    if abs(nrm - 1.0) > tol:
        raise InvalidInputError(f"vector norm {nrm!r} is not 1 within {tol}")
    return w


def unit_vector_pair(xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors of one dimension, each coerced by `as_unit_vector`."""
    xi = as_unit_vector(xi)
    eta = as_unit_vector(eta)
    if xi.shape != eta.shape:
        raise InvalidInputError(f"dimension mismatch: {xi.shape[0]} vs {eta.shape[0]}")
    return xi, eta


def gram_top_eigenvalue(a: np.ndarray):
    """Top eigenvalue of a*a, the squared largest singular value, of a matrix or a stack.

    a*a is a matmul, which gives a matrix the same bits in a stack as alone.
    """
    return np.linalg.eigvalsh(np.swapaxes(a.conj(), -1, -2) @ a)[..., -1]


def operator_norm(a) -> float:
    """Largest singular value, via eigen-decomposition of a*a."""
    return float(np.sqrt(max(gram_top_eigenvalue(as_square_matrix(a)), 0.0)))


def trace_norm(a) -> float:
    """Sum of singular values of a Hermitian matrix: the |eigenvalues|.

    Every in-package use is a difference of projections.  Other input is
    refused, as a*a would inflate near-zero singular values to sqrt(eps).
    """
    a = as_square_matrix(a)
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-13):
        raise InvalidInputError("trace_norm takes Hermitian matrices only")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def is_unitary(a) -> bool:
    """True iff ||a*a - I|| <= UNITARY_TOL in operator norm."""
    a = as_square_matrix(a)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return operator_norm(a.conj().T @ a - eye) <= UNITARY_TOL


def operator_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (n, d, d) stack.

    2x2 matrices take the closed form (A+C)/2 + sqrt(((A-C)/2)^2 + |B|^2)
    from the entries of a*a = [[A, B], [B*, C]], which does not cancel when
    the singular values coincide; larger ones the top eigenvalue of each a*a.
    """
    d = a.shape[-1]
    if d == 2:
        p, q = a[:, 0, 0], a[:, 0, 1]
        r, s = a[:, 1, 0], a[:, 1, 1]
        top = np.abs(p) ** 2 + np.abs(r) ** 2
        bottom = np.abs(q) ** 2 + np.abs(s) ** 2
        off = np.abs(p.conj() * q + r.conj() * s)
        lam = 0.5 * (top + bottom) + np.hypot(0.5 * (top - bottom), off)
        return np.sqrt(lam)
    gram = np.einsum("nji,njk->nik", a.conj(), a)
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None))


@lru_cache(maxsize=None)
def _hermitian_layout(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat row-major positions of the diagonal, upper and lower entries."""
    rows, cols = np.triu_indices(k, 1)
    layout = (np.arange(k) * (k + 1), rows * k + cols, cols * k + rows)
    for idx in layout:
        idx.setflags(write=False)
    return layout


def hermitian_from_params(x, k: int) -> np.ndarray:
    """Hermitian k x k matrices from k*k real parameters along the last axis.

    The first k parameters are the diagonal; each entry above the
    diagonal, row by row, then takes two: its real and imaginary part.
    Leading axes of x are batch axes.
    """
    x = np.asarray(x, dtype=np.float64)
    diag, upper, lower = _hermitian_layout(k)
    h = np.zeros(x.shape[:-1] + (k * k,), dtype=np.complex128)
    h[..., diag] = x[..., :k]
    h[..., upper] = x[..., k::2] + 1j * x[..., k + 1 :: 2]
    h[..., lower] = np.conj(h[..., upper])
    return h.reshape(x.shape[:-1] + (k, k))


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for a Hermitian matrix or a stack of them.

    1x1 matrices take exp(ih) and 2x2 ones the closed form
    e^{it} (cos r I + i sinc(r) (H - tI)) with t = tr H / 2 and r the half
    eigenvalue gap hypot((h00 - h11)/2, |h01|), as H - tI squares to r^2 I;
    larger ones go through eigh.
    """
    h = np.asarray(h)
    d = h.shape[-1]
    if d == 1:
        return np.exp(1j * h.real)
    if d == 2:
        a, b, c = h[..., 0, 0].real, h[..., 0, 1], h[..., 1, 1].real
        t = 0.5 * (a + c)
        half = 0.5 * (a - c)
        r = np.hypot(half, np.abs(b))
        phase = np.exp(1j * t)
        cos = phase * np.cos(r)
        # sin r / r from the same r as cos r keeps the result unitary to
        # rounding at any |H|; np.sinc(r / pi) would round r first
        isinc = 1j * phase * np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
        out = np.empty(h.shape, dtype=np.complex128)
        out[..., 0, 0] = cos + isinc * half
        out[..., 1, 1] = cos - isinc * half
        out[..., 0, 1] = isinc * b
        out[..., 1, 0] = isinc * b.conj()
        return out
    w, v = np.linalg.eigh(h)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())


def overlap_residuals(xis: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, ...]:
    """c = <xi|eta>, r = eta - c xi and s = ||r||, c and s as (n, 1), for (n, d) unit stacks.

    r takes a second Gram-Schmidt pass, as the first leaves it off by eps / s
    when eta is nearly colinear, so atan2(s, |c|) is the lines' angle to rounding.
    """
    c = np.sum(xis.conj() * etas, axis=1, keepdims=True)
    r = etas - c * xis
    r -= np.sum(xis.conj() * r, axis=1, keepdims=True) * xis
    return c, r, np.linalg.norm(r, axis=1, keepdims=True)


def two_plane_terms(xis: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row by row, two_plane_unitary(xi, z eta) = A + z M1 + conj(z) M2 for unit z.

    With c, r and s of the rows from `overlap_residuals` and zeta = r / s,
    the map sends xi to c xi + s zeta = eta and zeta to conj(c) zeta - s xi,
    and fixes the rest: A = I - xi xi* - zeta zeta*, M1 = eta xi*,
    M2 = (conj(c) zeta - s xi) zeta*.  Rows with s <= 1e-12 count as
    colinear: A = I - xi xi*, M1 = c xi xi*, M2 = 0.  Both branches carry
    xi to z eta, but the generic one multiplies zeta's line by conj(z c)
    and this one fixes it, so at the threshold they differ by up to |1 - conj(z c)|.
    """
    c, r, s = overlap_residuals(xis, etas)
    colinear = s <= 1e-12
    zeta = np.divide(r, s, out=np.zeros_like(r), where=~colinear)

    def outer(a, b):
        return a[:, :, None] * b.conj()[:, None, :]

    a = np.eye(xis.shape[1]) - outer(xis, xis) - outer(zeta, zeta)
    m1 = outer(np.where(colinear, c * xis, etas), xis)
    m2 = outer(np.conj(c) * zeta - s * xis, zeta)
    return a, m1, m2


def two_plane_unitary(xi, eta) -> np.ndarray:
    """Unitary sending xi to eta, identity on the complement of their span.

    Acts as a rotation on span{xi, eta}; the excursion from the identity is
    as small as the exact-image constraint allows:
    ||I - u|| = sqrt(2 (1 - Re<xi|eta>)).  It is the one-row `two_plane_terms` at z = 1.
    """
    xi, eta = unit_vector_pair(xi, eta)
    return sum(two_plane_terms(xi[None], eta[None]))[0]


def phase_align(xi, eta) -> np.ndarray:
    """Rescale eta by a unimodular phase so <xi|eta> becomes >= 0.

    Vector states forget global phases, so this is a free normalization
    when xi and eta stand for states rather than bare vectors.
    """
    xi, eta = unit_vector_pair(xi, eta)
    t = np.vdot(xi, eta)
    if abs(t) < 1e-14:
        return eta
    return eta * (np.conj(t) / abs(t))


def phase_combination_norm(phase_pairs: np.ndarray | Sequence[tuple[float, float]]) -> float:
    """max |1 - exp(i * sum of chosen phases)| over one choice per pair, or row.

    The eigenphases of a tensor product of 2x2 normal factors are the sums
    of one eigenphase per factor, so this is the exact operator norm of
    (I - tensor product) given the per-factor eigenphase pairs.
    """
    check_count(pow2(len(phase_pairs)), f"{len(phase_pairs)} factors: sign pattern count")
    sums = np.zeros(1)
    for p, q in phase_pairs:
        sums = np.concatenate([sums + p, sums + q])
    return float(np.max(np.abs(1.0 - np.exp(1j * sums))))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random unit vector in C^dim."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed random unitary (QR of a complex Ginibre matrix).

    `count` draws a stack from the same stream as `count` single calls.
    """
    g = rng.normal(size=(2, dim, dim) if count is None else (count, 2, dim, dim))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_hermitian_contraction(
    dim: int, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Random Hermitian matrix rescaled to operator norm exactly 1.

    The norm is the root of `gram_top_eigenvalue`, as in `operator_norm`; a matrix
    of norm below 1e-12 is replaced by the identity.  `count` draws a stack
    from the same stream as `count` single calls.
    """
    g = rng.normal(size=(1 if count is None else count, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    h = (g + g.conj().transpose(0, 2, 1)) / 2.0
    nrm = np.sqrt(np.maximum(gram_top_eigenvalue(h), 0.0))
    small = nrm < 1e-12
    h[small], nrm[small] = np.eye(dim), 1.0
    h /= nrm[:, None, None]
    return h[0] if count is None else h
