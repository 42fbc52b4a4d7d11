"""Numerical laboratory for pure states of finite 2^n matrix truncations.

Implements, at desk scale, the constructive machinery around unitary
equivalence of product vector states: closed-form minimum unitary
distances with independent search oracles, tensor chains of plane
rotations intertwining truncated product states, scalar convergence
diagnostics for angle sequences, and finite witness nets for the
countable characterization of state equivalence.
"""

__version__ = "0.1.0"

from .states import VectorState

__all__ = ["VectorState", "__version__"]
