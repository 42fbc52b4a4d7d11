"""Deterministic seed derivation for seeded experiment sweeps.

Per-trial seeds come from a splitmix64 stream keyed by the root seed, so
trial i always receives the same seed no matter how many trials run or
in which order they complete.
"""

from __future__ import annotations

import numpy as np

from .config import check_count, check_seed

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def derive_seeds(root: int, count: int) -> list[int]:
    """The first `count` per-trial seeds derived from `root`, a 64-bit seed.

    Seed i is the splitmix64 mix of state root + (i + 1) gamma mod 2^64;
    uint64 arithmetic wraps modulo 2^64 by itself.
    """
    state = np.uint64(check_seed(root))
    z = np.arange(1, check_count(count, "seed count") + 1, dtype=np.uint64)
    z *= _GAMMA
    z += state
    z ^= z >> np.uint64(30)
    z *= _MIX[0]
    z ^= z >> np.uint64(27)
    z *= _MIX[1]
    z ^= z >> np.uint64(31)
    return z.tolist()
