"""50-digit references for the distances carlab computes from overlaps.

Every value is computed with mpmath at 50 significant digits on the
stored floats it is given, so it measures the package's rounding, not the
inputs' conditioning.  Nothing here calls carlab.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50


def _mpc(z) -> mp.mpc:
    return mp.mpc(float(z.real), float(z.imag))


def line_angle(xi, eta) -> mp.mpf:
    """The angle between the lines of two stored vectors, each normalized in 50 digits."""
    x = [_mpc(v) for v in xi]
    e = [_mpc(v) for v in eta]
    nx = mp.sqrt(mp.fsum(abs(v) ** 2 for v in x))
    ne = mp.sqrt(mp.fsum(abs(v) ** 2 for v in e))
    x = [v / nx for v in x]
    e = [v / ne for v in e]
    c = mp.fsum(mp.conj(a) * b for a, b in zip(x, e))
    s = mp.sqrt(mp.fsum(abs(b - c * a) ** 2 for a, b in zip(x, e)))
    return mp.atan2(s, abs(c))


def product_closed_forms(xis, etas) -> tuple[mp.mpf, mp.mpf]:
    """The overlap-modulus product p of the factor pairs and sqrt(2 (1 - p))."""
    p = mp.fprod(mp.cos(line_angle(x, e)) for x, e in zip(xis, etas))
    return p, mp.sqrt(2 * (1 - p))


def cosine_products(thetas) -> list[mp.mpf]:
    """Running products of cos t_j over the stored float angles."""
    out, p = [], mp.mpf(1)
    for t in thetas:
        p *= mp.cos(mp.mpf(float(t)))
        out.append(p)
    return out


def log_cosine_products(thetas) -> list[mp.mpf]:
    """Running sums of log|cos t_j| over the stored float angles."""
    out, total = [], mp.mpf(0)
    for t in thetas:
        total += mp.log(abs(mp.cos(mp.mpf(float(t)))))
        out.append(total)
    return out


def chord_distance(p) -> mp.mpf:
    """sqrt(2 (1 - p)): the exact-image distance for a signed overlap p."""
    return mp.sqrt(2 * (1 - p))


def trace_distance(p) -> mp.mpf:
    """2 sqrt(1 - p^2): the distance of vector states with overlap p."""
    return 2 * mp.sqrt(1 - p * p)


def log_cosine_block_ratio(thetas) -> mp.mpf:
    """The -log|cos t| sum over the last complete dyadic block over the block before it."""
    k = (len(thetas) + 1).bit_length() - 2
    terms = [-mp.log(abs(mp.cos(mp.mpf(float(t))))) for t in thetas]
    return mp.fsum(terms[2**k - 1 : 2 ** (k + 1) - 1]) / mp.fsum(terms[2 ** (k - 1) - 1 : 2**k - 1])
