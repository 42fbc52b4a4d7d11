"""Angle sequences and scalar convergence diagnostics.

Relates square-summability of angle gaps to positivity of the overlap
product through three finite-prefix diagnostics: cumulative squared gaps,
cumulative half-angle sine squares, and the running cosine product.  The
infinite statements they approximate are about limits, so classification
works with explicit thresholds and an honest "inconclusive" band.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import check_count
from .errors import DomainError, InvalidInputError

HALF_PI = np.pi / 2.0

EQUIVALENT = "equivalent-trend"
INEQUIVALENT = "inequivalent-trend"
INCONCLUSIVE = "inconclusive"

# share of the prefix whose sum increment decides "converging"
TAIL_FRACTION = 0.25


def validate_angles(values) -> np.ndarray:
    """Check every angle lies strictly inside (-pi/2, pi/2).

    Out-of-range input is an error, never clamped: silent clamping would
    corrupt the convergence experiments built on these sequences.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a flat angle list, got shape {arr.shape}")
    if arr.size and (not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) >= HALF_PI):
        raise DomainError("angles must lie strictly inside (-pi/2, pi/2)")
    return arr


def angles_from_descriptor(descriptor: str, length: int) -> np.ndarray:
    """Build an angle sequence from a generator descriptor.

    Supported descriptors: ``zero``, ``harmonic`` (1/n), ``invsqrt``
    (1/sqrt(n)), ``power:p`` (n^-p), ``random:<scale>:<seed>`` (uniform on
    (-scale, scale)), ``file:<path>`` (one decimal angle per line).
    """
    if length < 0:
        raise InvalidInputError("length must be nonnegative")
    n = np.arange(1, check_count(length, "sequence length") + 1, dtype=np.float64)
    if descriptor == "zero":
        values = np.zeros(length)
    elif descriptor == "harmonic":
        values = 1.0 / n
    elif descriptor == "invsqrt":
        values = 1.0 / np.sqrt(n)
    elif descriptor.startswith("power:"):
        try:
            p = float(descriptor.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad power descriptor {descriptor!r}") from exc
        values = n ** (-p)
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
        values = read_angle_file(descriptor.split(":", 1)[1])
        if len(values) < length:
            raise InvalidInputError(
                f"angle file holds {len(values)} values, need {length}"
            )
        values = values[:length]
    else:
        raise InvalidInputError(f"unknown sequence descriptor {descriptor!r}")
    return validate_angles(values)


def read_angle_file(path) -> np.ndarray:
    """Read the plain-text sequence format: one decimal angle per line."""
    lines = Path(path).read_text().splitlines()
    values = []
    for i, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise InvalidInputError(f"line {i} of {path} is not a number") from exc
    return validate_angles(np.asarray(values))


def paired_angles(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """Two validated angle sequences of equal length."""
    a = validate_angles(alpha)
    b = validate_angles(beta)
    if a.shape != b.shape:
        raise InvalidInputError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def l2_partial_sums(alpha, beta) -> np.ndarray:
    """Cumulative sums of (alpha_n - beta_n)^2."""
    a, b = paired_angles(alpha, beta)
    return np.cumsum((a - b) ** 2)


def half_angle_partial_sums(alpha, beta) -> np.ndarray:
    """Cumulative sums of sin^2((alpha_n - beta_n) / 2)."""
    a, b = paired_angles(alpha, beta)
    return np.cumsum(np.sin((a - b) / 2.0) ** 2)


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


def log_abs_partial_products(factors) -> np.ndarray:
    """log |running product|; -inf once a factor is zero."""
    f = np.asarray(factors, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.cumsum(np.log(np.abs(f)))


def overlap_partial_products(alpha, beta, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Running products of cos(alpha_j - beta_j) for j in [start, stop).

    Indices follow Python slicing on the paired sequences.
    """
    a, b = paired_angles(alpha, beta)
    if stop is None:
        stop = a.size
    if not 0 <= start <= stop <= a.size:
        raise InvalidInputError(f"bad window [{start}, {stop}) for length {a.size}")
    return partial_products(np.cos(a[start:stop] - b[start:stop]))


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
class WindowPolicy:
    """Finite-prefix thresholds standing in for statements about limits."""

    min_length: int = 16
    sum_tolerance: float = 1e-6
    product_floor: float = 0.05


@dataclass(frozen=True)
class PairDiagnostics:
    """The three diagnostics and the classification they agree on."""

    classification: str
    l2_total: float
    l2_tail_increment: float
    half_angle_total: float
    half_angle_tail_increment: float
    overlap_product: float
    log_overlap_product: float
    l2_converging: bool
    half_angle_converging: bool
    product_positive: bool


def _tail_increment(sums: np.ndarray) -> float:
    cut = int(np.floor(len(sums) * (1.0 - TAIL_FRACTION)))
    cut = min(max(cut, 1), len(sums) - 1)
    return float(sums[-1] - sums[cut - 1])


def classify_pair(alpha, beta, policy: WindowPolicy = WindowPolicy()) -> PairDiagnostics:
    """Classify an angle-sequence pair by its finite convergence trends.

    "equivalent-trend" needs the squared-gap and half-angle sums to have
    stalled and the overlap product to sit above the floor;
    "inequivalent-trend" needs the opposite on all three; any disagreement
    is reported as "inconclusive" rather than forced.
    """
    a, b = paired_angles(alpha, beta)
    if a.size < policy.min_length:
        raise InvalidInputError(
            f"need at least {policy.min_length} terms, got {a.size}"
        )
    l2 = l2_partial_sums(a, b)
    half = half_angle_partial_sums(a, b)
    cosines = np.cos(a - b)
    sign = np.prod(np.sign(cosines))
    log_prod = float(log_abs_partial_products(cosines)[-1])
    prod = float(sign * np.exp(log_prod))

    l2_inc = _tail_increment(l2)
    half_inc = _tail_increment(half)
    l2_conv = l2_inc <= policy.sum_tolerance
    half_conv = half_inc <= policy.sum_tolerance
    # compare in log space so long sequences that underflow the float
    # product are still judged correctly
    prod_pos = bool(sign > 0 and log_prod >= np.log(policy.product_floor))

    flags = (l2_conv, half_conv, prod_pos)
    if all(flags):
        verdict = EQUIVALENT
    elif not any(flags):
        verdict = INEQUIVALENT
    else:
        verdict = INCONCLUSIVE
    return PairDiagnostics(
        classification=verdict,
        l2_total=float(l2[-1]),
        l2_tail_increment=l2_inc,
        half_angle_total=float(half[-1]),
        half_angle_tail_increment=half_inc,
        overlap_product=prod,
        log_overlap_product=log_prod,
        l2_converging=l2_conv,
        half_angle_converging=half_conv,
        product_positive=prod_pos,
    )
