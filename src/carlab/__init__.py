"""Numerical laboratory for pure states of finite 2^n matrix truncations.

Implements, at desk scale, the constructive machinery around unitary
equivalence of product vector states: closed-form minimum unitary
distances with independent search oracles, tensor chains of plane
rotations intertwining truncated product states, scalar convergence
diagnostics for angle sequences, and finite witness nets for the
countable characterization of state equivalence.

The numpy-backed modules are bound here but run at their first
attribute access, so `import carlab` and the command-line parser do not
import numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = ["VectorState", "__version__"]


def _lazy(name: str):
    """The submodule `name`, in sys.modules now and executed at its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg = _lazy("linalg")
sequences = _lazy("sequences")
seeding = _lazy("seeding")
states = _lazy("states")
truncation = _lazy("truncation")
intertwiner = _lazy("intertwiner")
orbit = _lazy("orbit")
witness = _lazy("witness")


def __getattr__(name: str):
    if name == "VectorState":
        return states.VectorState
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
