"""Deterministic seed derivation for seeded experiment sweeps.

Per-trial seeds come from a splitmix64 stream keyed by the root seed, so
trial i always receives the same seed no matter how many trials run or
in which order they complete.
"""

from __future__ import annotations

from .errors import InvalidInputError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output)."""
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_seeds(root: int, count: int) -> list[int]:
    """The first `count` per-trial seeds derived from `root`, a 64-bit seed."""
    state = check_seed(root)
    seeds = []
    for _ in range(count):
        state, value = splitmix64(state)
        seeds.append(value)
    return seeds


def check_seed(seed: int) -> int:
    """`seed` if it is a root seed of the stream, an integer in [0, 2^64)."""
    if not 0 <= seed <= _MASK:
        raise InvalidInputError(f"seed {seed} is outside [0, 2^64)")
    return seed
