"""Every benchmark invocation is among those scripts/compare_artifacts.py compares.

Both lists are read from source with `ast`, so nothing under bench/ is
imported.  A byte-identity claim made with the comparison script then
covers every run the benchmark times.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def _assigned(path: Path, name: str) -> ast.expr:
    """The value assigned to the module-level `name` in `path`."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"{path} assigns no {name}")


def _normalized(argv: list[str]) -> tuple[str, frozenset]:
    """The subcommand and its (flag, value) pairs, in any order, without --out."""
    flags = []
    for i, token in enumerate(argv[1:], start=1):
        if token.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else None
            flags.append((token, value))
    return argv[0], frozenset(flag for flag in flags if flag[0] != "--out")


def _bench_argv(call: ast.Call) -> list[str]:
    """The command line bench/run.py's `Invocation.argv` renders at SEED."""
    experiment = ast.literal_eval(call.args[1])
    argv = [experiment, "--seed", str(SEED)]
    for key, value in ast.literal_eval(call.args[2]).items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, str):
            value = value.format(seed=SEED)
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def test_every_benchmark_invocation_is_compared():
    workloads = _assigned(ROOT / "bench" / "run.py", "WORKLOADS")
    calls = [call for group in workloads.values for call in group.elts]
    assert calls and all(isinstance(call, ast.Call) and call.func.id == "Invocation" for call in calls)
    compared = ast.literal_eval(_assigned(ROOT / "scripts" / "compare_artifacts.py", "INVOCATIONS"))
    covered = {_normalized(line.split()) for line in compared}
    missing = [" ".join(_bench_argv(call)) for call in calls
               if _normalized(_bench_argv(call)) not in covered]
    assert not missing
