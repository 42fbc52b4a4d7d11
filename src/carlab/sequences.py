"""Angle sequences and the l2 dichotomy for product states.

Product states with factor angles alpha_n and beta_n are equivalent iff
sum (1 - |cos t_n|) < inf, t = alpha - beta (Kakutani, in the form Powers
uses), which on these angles holds iff sum t_n^2 < inf.  `classify_pair`
reads the rate of the three term series t^2, sin^2(t/2) and -log|cos t|:
r is the sum of the last complete dyadic block, n in [2^K, 2^(K+1)), over
the block before it, and n^-s gives r -> 2^(1 - s).  A series converges
if r <= 1 - CONVERGENCE_MARGIN and, failing that, diverges if
r >= 1 - 2^-K, which the harmonic series' r = 1 - 2^-K / (4 ln 2) + O(4^-K)
clears at every K >= 3.  Three converging series give "equivalent-trend",
three diverging ones "inequivalent-trend", anything else "inconclusive".

Measured limits: powers n^-p get the right verdict at every length outside
0.48 < p < 0.54, but within 2^-K above 1/2 can pass for harmonic and be
called divergent.  Of 8,000 random descriptors, 7% came out
"equivalent-trend" at 16 to 30 terms and none at 255 to 510.

This is also the one home for distances from overlaps.  A cosine product
is kept as running signs and log-moduli L, each log near |cos t| = 1 from
the half angle, and sqrt(2 (1 - p)) and 2 sqrt(1 - p^2) are taken from L
through expm1, so neither rounds to 0 where cos t rounds to 1.
"""

from __future__ import annotations

import locale
import math
from dataclasses import dataclass

import numpy as np

from .config import check_count
from .errors import DomainError, InvalidInputError

HALF_PI = np.pi / 2.0

EQUIVALENT = "equivalent-trend"
INEQUIVALENT = "inequivalent-trend"
INCONCLUSIVE = "inconclusive"

# fewest terms classified: complete dyadic blocks up to K = 3, n in [8, 16)
MIN_TERMS = 16
# a series converges when its block ratio is at most 1 - CONVERGENCE_MARGIN
CONVERGENCE_MARGIN = 0.05
# bytes of whole lines an angle file is read in
_FILE_BLOCK = 1 << 14
_OUT_OF_RANGE = "angles must lie strictly inside (-pi/2, pi/2)"


def validate_angles(values) -> np.ndarray:
    """Check every angle lies strictly inside (-pi/2, pi/2).

    Out-of-range input is an error, never clamped: silent clamping would
    corrupt the convergence experiments built on these sequences.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a flat angle list, got shape {arr.shape}")
    # a nan fails both comparisons
    if arr.size and not (-HALF_PI < arr.min() and arr.max() < HALF_PI):
        raise DomainError(_OUT_OF_RANGE)
    return arr


def angles_from_descriptor(descriptor: str, length: int) -> np.ndarray:
    """Build an angle sequence from a generator descriptor.

    Supported descriptors: ``zero``, ``harmonic`` (1/n), ``invsqrt``
    (1/sqrt(n)), ``power:p`` (n^-p, p finite), ``random:<scale>:<seed>``
    (uniform on (-scale, scale)), ``file:<path>`` (one decimal angle per
    line).
    """
    if length < 0:
        raise InvalidInputError("length must be nonnegative")
    check_count(length, "sequence length")
    if descriptor == "zero":
        values = np.zeros(length)
    elif descriptor == "harmonic":
        values = 1.0 / _indices(length)
    elif descriptor == "invsqrt":
        values = 1.0 / np.sqrt(_indices(length))
    elif descriptor.startswith("power:"):
        text = descriptor.split(":", 1)[1]
        try:
            p = float(text)
        except ValueError as exc:
            raise InvalidInputError(f"bad power descriptor {descriptor!r}") from exc
        # n^-inf would silently be the sequence (1, 0, 0, ...)
        if not math.isfinite(p):
            raise InvalidInputError(f"power descriptor exponent must be finite, got {text}")
        values = _indices(length) ** (-p)
    elif descriptor.startswith("random:"):
        parts = descriptor.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"bad random descriptor {descriptor!r}")
        try:
            scale, seed = float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"bad random descriptor {descriptor!r}") from exc
        if not 0.0 < scale < HALF_PI:
            raise DomainError("random scale must lie in (0, pi/2)")
        if seed < 0:
            raise InvalidInputError(f"random descriptor seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        values = rng.uniform(-scale, scale, size=length)
    elif descriptor.startswith("file:"):
        values = read_angle_file(descriptor.split(":", 1)[1], length)
    else:
        raise InvalidInputError(f"unknown sequence descriptor {descriptor!r}")
    return validate_angles(values)


def _indices(length: int) -> np.ndarray:
    """n = 1, ..., length as floats."""
    return np.arange(1, length + 1, dtype=np.float64)


def read_angle_file(path, length: int) -> np.ndarray:
    """The first `length` angles of a plain-text sequence file, one decimal angle per line.

    The file is read a block of lines at a time and only those angles are
    kept, but every line is decoded, parsed and range-checked, so an
    undecodable byte, a line that is not a number or an angle out of range
    anywhere refuses the file, as do too few angles.
    """
    encoding = locale.getpreferredencoding(False)  # that of open() in text mode
    kept = [np.zeros(0)]
    count = offset = number = 0
    bad_line = None
    in_range = True
    with open(path, "rb") as fh:
        # whole lines only, so no character is split between two blocks
        for lines in iter(lambda: fh.readlines(_FILE_BLOCK), []):
            block = b"".join(lines)
            try:
                text = block.decode(encoding)
            except UnicodeDecodeError as exc:
                raise InvalidInputError(
                    f"angle file {path} cannot be decoded: {exc.reason} at byte {offset + exc.start}"
                ) from exc
            offset += len(block)
            rows = text.splitlines()
            if bad_line is None:  # past one, the rest of the file is only decoded
                try:
                    values = np.array(list(map(float, filter(None, map(str.strip, rows)))))
                except ValueError:
                    bad_line = number + _first_non_number(rows)
                else:
                    # a nan fails both comparisons
                    in_range = in_range and (
                        not values.size or (-HALF_PI < values.min() and values.max() < HALF_PI)
                    )
                    if count < length:  # a copy, so the block itself is not kept
                        kept.append(values[: length - count].copy())
                    count += values.size
            number += len(rows)
    if bad_line is not None:
        raise InvalidInputError(f"line {bad_line} of {path} is not a number")
    if not in_range:
        raise DomainError(_OUT_OF_RANGE)
    if count < length:
        raise InvalidInputError(f"angle file holds {count} values, need {length}")
    return np.concatenate(kept)


def _first_non_number(rows: list[str]) -> int:
    """The 1-based index of the first row that is neither blank nor a number."""
    for i, row in enumerate(rows, start=1):
        text = row.strip()
        if text:
            try:
                float(text)
            except ValueError:
                return i
    raise AssertionError("every row parses")


def paired_angles(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Two validated angle sequences of equal length."""
    a = validate_angles(alpha)
    b = validate_angles(beta)
    if a.shape != b.shape:
        raise InvalidInputError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def partial_products(factors) -> np.ndarray:
    """Running products, accumulated in log space to avoid underflow.

    Signs are tracked separately; a zero factor forces every later partial
    product to exact zero.
    """
    f = np.asarray(factors, dtype=np.float64)
    if f.ndim != 1:
        raise InvalidInputError(f"expected a flat factor list, got shape {f.shape}")
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(f))
    signs = np.cumprod(np.sign(f))
    return signs * np.exp(np.cumsum(logs))


def log_cosines(t) -> tuple[np.ndarray, np.ndarray]:
    """sign(cos t) and log|cos t|: log1p(-2 min(sin^2, cos^2)(t/2)) where |cos t| >= 1/2.

    The log keeps -t^2 / 2 once cos t rounds to 1 (|t| below about 1.05e-8).
    """
    cosines = np.cos(t)
    m = np.minimum(np.sin(t / 2.0) ** 2, np.cos(t / 2.0) ** 2)
    with np.errstate(divide="ignore"):
        return np.sign(cosines), np.where(m < 0.25, np.log1p(-2.0 * m), np.log(np.abs(cosines)))


def cosine_products(t) -> tuple[np.ndarray, np.ndarray]:
    """Running signs and log-moduli L of the products of cos t_j: a zero factor makes L -inf."""
    signs, logs = log_cosines(np.asarray(t, dtype=np.float64))
    return np.cumprod(signs), np.cumsum(logs)


def chord_distances(signs, logs) -> np.ndarray:
    """sqrt(2 (1 - p)) for p = sign * exp(L); 2 sin(theta / 2) for lines at angle theta."""
    return np.sqrt(2.0 * np.where(np.asarray(signs) > 0, -np.expm1(logs), 1.0 + np.exp(logs)))


def trace_distances(logs) -> np.ndarray:
    """2 sqrt(1 - p^2) for |p| = exp(L): the distance of vector states with overlap p."""
    return 2.0 * np.sqrt(-np.expm1(2.0 * np.asarray(logs)))


def weierstrass_bounds(factors) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise sandwich for running products of factors in [0, 1].

    Returns (1 - cumulative sum of (1 - t_j), exp(-cumulative sum)); the
    running product lies between the two.
    """
    f = np.asarray(factors, dtype=np.float64)
    if f.size and (np.min(f) < 0.0 or np.max(f) > 1.0):
        raise DomainError("Weierstrass bounds need factors in [0, 1]")
    deficit = np.cumsum(1.0 - f)
    return 1.0 - deficit, np.exp(-deficit)


@dataclass(frozen=True)
class PairDiagnostics:
    """Each term series' total and block ratio, and the classification they give.

    A ratio is None where the block before the last sums to 0 (or close
    enough to overflow the quotient) and the last does not: an unbounded
    ratio, read as diverging.
    """

    classification: str
    l2_total: float
    l2_block_ratio: float | None
    half_angle_total: float
    half_angle_block_ratio: float | None
    overlap_product: float
    log_overlap_product: float
    log_product_block_ratio: float | None


def _block_ratio(terms: np.ndarray, k: int) -> float | None:
    """The sum of terms n in [2^k, 2^(k+1)) over that of n in [2^(k-1), 2^k).

    A last block summing to 0 gives 0; past the float range the ratio is None.
    """
    last = terms[2**k - 1 : 2 ** (k + 1) - 1].sum()
    if last == 0.0:
        return 0.0
    with np.errstate(divide="ignore", over="ignore"):
        ratio = last / terms[2 ** (k - 1) - 1 : 2**k - 1].sum()
    return float(ratio) if np.isfinite(ratio) else None


def _trend(ratio: float | None, k: int) -> str:
    """The verdict one series' block ratio gives on its own."""
    if ratio is not None and ratio <= 1.0 - CONVERGENCE_MARGIN:
        return EQUIVALENT
    if ratio is None or ratio >= 1.0 - 2.0**-k:
        return INEQUIVALENT
    return INCONCLUSIVE


def classify_pair(alpha, beta) -> PairDiagnostics:
    """Classify an angle-sequence pair by the block ratios of its three term series.

    The series t^2, sin^2(t/2) and -log|cos t|, t = alpha - beta, must all
    converge for "equivalent-trend" and all diverge for
    "inequivalent-trend"; anything else is "inconclusive".  The totals are
    summed in order, as running sums would reach them.
    """
    a, b = paired_angles(alpha, beta)
    if a.size < MIN_TERMS:
        raise InvalidInputError(f"need at least {MIN_TERMS} terms, got {a.size}")
    t = a - b
    squares = t**2
    half_angle = np.sin(t / 2.0) ** 2
    signs, logs = log_cosines(t)
    # kept in log space, where a long product that underflows stays exact
    log_prod = float(np.cumsum(logs)[-1])
    k = (a.size + 1).bit_length() - 2  # the last complete block is n in [2^k, 2^(k+1))
    ratios = [_block_ratio(terms, k) for terms in (squares, half_angle, -logs)]
    trends = {_trend(ratio, k) for ratio in ratios}
    return PairDiagnostics(
        classification=trends.pop() if len(trends) == 1 else INCONCLUSIVE,
        l2_total=float(np.cumsum(squares)[-1]),
        l2_block_ratio=ratios[0],
        half_angle_total=float(np.cumsum(half_angle)[-1]),
        half_angle_block_ratio=ratios[1],
        overlap_product=float(np.prod(signs) * np.exp(log_prod)),
        log_overlap_product=log_prod,
        log_product_block_ratio=ratios[2],
    )
