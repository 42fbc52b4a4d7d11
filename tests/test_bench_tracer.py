"""The benchmark tracer wraps carlab functions by name, so every name must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced() -> dict:
    """The TRACED table of bench/tracer.py, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED table")


def test_every_traced_name_is_a_function_of_its_module():
    # `Tracer.install` looks each name up with getattr on carlab.<module>
    traced = _traced()
    assert traced
    missing = [
        f"carlab.{short}.{name}"
        for short, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"carlab.{short}"), name, None))
    ]
    assert not missing
