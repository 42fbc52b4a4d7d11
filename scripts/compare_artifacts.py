#!/usr/bin/env python3
"""Compare the CLI artifacts of two source trees, invocation by invocation.

    python scripts/compare_artifacts.py OLD_TREE NEW_TREE

Runs a fixed list of 40 invocations (the seven README commands, the ten
benchmark invocations at seed 1, two `--phase-policy eigenvalue-one`
runs, a `reduce` of the slowly converging `power:0.55` at length 4000,
`min-distance` at dims 3 and 4 with seed 7, a dim-8 random-net
`fsigma-search`, the dim-16 and dim-4 exhaustive-net refusals, a dim-2
exhaustive net at `--epsilon 0.2`, a 20,000-element dim-4 random net
whose 200 density probes take many slices of exact norms, and
`cauchy-gaps` at level 12 with spans up to 11, where a block gap
multiplies up to 2^11 factor eigenvalues, and a `reduce` at level 12
under `--phase-policy eigenvalue-one`, whose per-level rows are span-1
block gaps at the level cap, and `reduce` and `cauchy-gaps` one level past
that cap, refused as size limits, and three `power:8` runs whose angles
fall below 1.05e-8, where cos t rounds to 1: span-1 `cauchy-gaps` to
level 12, and `separation` from factor 10 and, at threshold 1e-12, from
factor 20, and a `reduce` at `power:inf`, refused as a non-finite exponent,
and five that end in the parser, so that its help text and flag refusals
are compared: `min-distance --help`, a low `--budget`, a negative
`--seed`, `fsigma-search --dim 3` and an unknown `product-test` family),
each with `--out json` and `--out csv`, as `python -m carlab.cli` under each
tree's `src` with one BLAS thread.
For every run it prints whether the exit codes, stderr and stdout (up to
the output path) are equal, and whether the artifacts are
byte-identical.  When they are not, it prints, per config key, summary
key and row column, the largest |new - old| where that is not 0, every
change of value type (CSV cells are typed by their text) and every added
or removed key.  Each line also gives both trees' peak RSS (from
`os.wait4`, in MB), so that a change in working memory shows run by run.
After the runs it prints each tree's largest peak RSS with the run that
set it, and how many runs' peak RSS fell and rose by more than 5%, the
benchmark's `peak_rss_mb` bound.  Peak RSS plays no part in the exit
status.

Exit status 0 means equal exit codes, stderr and stdout, and equal
values under every shared key; type changes and added keys are reported
but allowed.  Exit status 1 means some of these differ.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

INVOCATIONS = [
    "min-distance --dim 2 --trials 100 --seed 7",
    "product-distance --pairs 50 --seed 7",
    "reduce --alpha power:2 --beta zero --levels 8 --length 400",
    "cauchy-gaps --alpha harmonic --beta zero --levels 8 --max-span 6",
    "separation --alpha invsqrt --beta zero --levels 10",
    "fsigma-search --dim 2 --pairs 50 --epsilon 0.4",
    "product-test --family geometric --terms 40",
    "min-distance --dim 2 --trials 20 --seed 1",
    "min-distance --dim 4 --trials 3 --seed 1",
    "product-distance --pairs 1 --seed 1",
    "reduce --alpha power:2 --beta zero --levels 10 --length 400 --seed 1",
    "cauchy-gaps --alpha harmonic --beta random:0.3:1 --levels 9 --max-span 6 --seed 1",
    "separation --alpha invsqrt --beta zero --levels 10 --seed 1",
    "product-test --family telescoping --terms 400 --seed 1",
    "fsigma-search --dim 2 --pairs 20 --epsilon 0.4 --density-check --density-probes 30 --seed 1",
    "fsigma-search --dim 4 --net random --net-size 3000 --pairs 15 --epsilon 0.4"
    " --density-check --density-probes 40 --seed 1",
    "fsigma-search --dim 2 --net random --net-size 5000 --pairs 50 --epsilon 0.4"
    " --density-check --seed 1",
    "reduce --alpha harmonic --beta zero --levels 8 --phase-policy eigenvalue-one",
    "reduce --alpha power:0.55 --beta zero --levels 4 --length 4000",
    "cauchy-gaps --alpha harmonic --beta zero --levels 8 --max-span 6"
    " --phase-policy eigenvalue-one",
    "min-distance --dim 3 --trials 20 --seed 7",
    "min-distance --dim 4 --trials 20 --seed 7",
    "fsigma-search --dim 8 --net random --net-size 2000 --pairs 10 --epsilon 0.4"
    " --density-check --density-probes 20 --seed 1",
    "fsigma-search --dim 16 --net exhaustive --pairs 1",
    "fsigma-search --dim 2 --net exhaustive --epsilon 0.2 --pairs 5 --density-check"
    " --density-probes 20 --seed 1",
    "fsigma-search --dim 4 --net exhaustive --pairs 1",
    "fsigma-search --dim 4 --net random --net-size 20000 --pairs 5 --epsilon 0.4"
    " --density-check --density-probes 200 --seed 1",
    "cauchy-gaps --alpha harmonic --beta random:0.3:1 --levels 12 --max-span 11 --seed 1",
    "reduce --alpha harmonic --beta random:0.3:1 --levels 12 --length 400"
    " --phase-policy eigenvalue-one --seed 1",
    "reduce --alpha zero --beta zero --levels 13",
    "cauchy-gaps --alpha zero --beta zero --levels 13",
    "cauchy-gaps --alpha power:8 --beta zero --levels 12 --max-span 1",
    "separation --alpha power:8 --beta zero --start 10 --levels 3 --search-limit 4000",
    "separation --alpha power:8 --beta zero --start 20 --levels 3 --threshold 1e-12"
    " --search-limit 4000",
    "reduce --alpha power:inf --beta zero --levels 3",
    "min-distance --help",
    "min-distance --budget 10",
    "min-distance --seed -1",
    "fsigma-search --dim 3",
    "product-test --family nope",
]

_INT = re.compile(r"[+-]?\d+")
# the benchmark's `peak_rss_mb` bound in BENCHMARK.json
RSS_BOUND = 0.05
_ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run(tree: Path, argv: list[str], out: Path) -> tuple[int, str, str, bytes | None, float]:
    """Exit code, stdout with the output path masked, stderr, artifact bytes, peak RSS MB.

    `os.wait4` gives the child's own peak RSS, not the largest of all
    children so far.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(_ONE_THREAD, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "carlab.cli", *argv, "--output", str(out)],
            cwd=out.parent, env=env, stdout=stdout, stderr=stderr,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        texts = []
        for fh in (stdout, stderr):
            fh.seek(0)
            texts.append(fh.read().decode())
    data = out.read_bytes() if out.exists() else None
    code, rss = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0
    return code, texts[0].replace(str(out), "<output>"), texts[1], data, rss


def _csv_value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse(data: bytes, fmt: str) -> dict:
    """{"config", "summary", "rows"} of typed values, from either format."""
    if fmt == "json":
        return json.loads(data)
    meta, lines = {}, data.decode().splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    summary = {k: _csv_value(v) for k, v in json.loads(meta["summary"]).items()}
    header = lines[0].split(",") if lines else []
    rows = [dict(zip(header, map(_csv_value, line.split(",")))) for line in lines[1:]]
    return {"config": json.loads(meta["config"]), "summary": summary, "rows": rows}


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_columns(label: str, old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """Report lines for records sharing keys, and whether any value differs."""
    lines, differs = [], False
    old_keys = list(old[0]) if old else []
    new_keys = list(new[0]) if new else []
    added = [k for k in new_keys if k not in old_keys]
    removed = [k for k in old_keys if k not in new_keys]
    if added:
        lines.append(f"{label}: added {', '.join(added)}")
    if removed:
        lines.append(f"{label}: removed {', '.join(removed)}")
        differs = True
    if len(old) != len(new):
        lines.append(f"{label}: {len(old)} records -> {len(new)}")
        return lines, True
    for key in (k for k in old_keys if k in new_keys):
        pairs = [(a[key], b[key]) for a, b in zip(old, new)]
        delta, unequal = 0.0, 0
        for a, b in pairs:
            if _numeric(a) and _numeric(b):
                delta = max(delta, abs(b - a))
            unequal += a != b
        types = {(type(a).__name__, type(b).__name__) for a, b in pairs
                 if a is not None and b is not None and type(a) is not type(b)}
        if unequal:
            differs = True
            detail = f"max |delta| {delta:.3g}" if delta else f"{unequal} unequal"
            lines.append(f"{label}.{key}: {detail}")
        for a, b in sorted(types):
            lines.append(f"{label}.{key}: type {a} -> {b}")
    return lines, differs


def compare_artifacts(old: bytes, new: bytes, fmt: str) -> tuple[list[str], bool]:
    a, b = parse(old, fmt), parse(new, fmt)
    lines, differs = [], False
    for label, x, y in (("config", [a["config"]], [b["config"]]),
                        ("summary", [a["summary"]], [b["summary"]]),
                        ("rows", a["rows"], b["rows"])):
        more, bad = compare_columns(label, x, y)
        lines += more
        differs |= bad
    return lines, differs


def print_rss_summary(peaks: list[tuple[str, float, float]]) -> None:
    """Each tree's largest peak RSS and its run, and the runs moved past RSS_BOUND."""
    for side, i in (("old", 1), ("new", 2)):
        run = max(peaks, key=lambda p: p[i])
        print(f"largest peak RSS, {side} tree: {run[i]:.1f} MB, {run[0]}")
    fell = sum(new < old * (1 - RSS_BOUND) for _, old, new in peaks)
    rose = sum(new > old * (1 + RSS_BOUND) for _, old, new in peaks)
    print(f"peak RSS moved by more than {RSS_BOUND:.0%} in {fell + rose} of {len(peaks)} runs: "
          f"{fell} fell, {rose} rose")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_artifacts.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    for tree in trees:
        if not (tree / "src" / "carlab" / "cli.py").is_file():
            print(f"{tree} holds no src/carlab/cli.py", file=sys.stderr)
            return 2
    failed = False
    peaks: list[tuple[str, float, float]] = []
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "old", Path(tmp) / "new"]
        for d in dirs:
            d.mkdir()
        for i, invocation in enumerate(INVOCATIONS):
            for fmt in ("json", "csv"):
                cli = invocation.split() + ["--out", fmt]
                name = f"run{i:02d}.{fmt}"
                old, new = (run(t, cli, d / name) for t, d in zip(trees, dirs))
                same = [x == y for x, y in zip(old, new)]
                head = (f"exit {old[0]}/{new[0]} {'equal' if same[0] else 'DIFFER'}, "
                        f"stderr {'equal' if same[2] else 'DIFFERS'}, "
                        f"stdout {'equal' if same[1] else 'DIFFERS'}")
                failed |= not all(same[:3])
                lines: list[str] = []
                if old[3] is None or new[3] is None:
                    head += ", no artifact" if old[3] is new[3] else ", ARTIFACT ON ONE SIDE ONLY"
                    failed |= old[3] is not new[3]
                elif same[3]:
                    head += ", bytes identical"
                else:
                    lines, differs = compare_artifacts(old[3], new[3], fmt)
                    head += ", values DIFFER" if differs else ", bytes differ, values equal"
                    failed |= differs
                head += f", peak RSS {old[4]:.1f}/{new[4]:.1f} MB"
                print(f"[{fmt:4}] {invocation}: {head}")
                peaks.append((f"[{fmt}] {invocation}", old[4], new[4]))
                for line in lines:
                    print(f"         {line}")
                if not same[2]:
                    print(f"         stderr old: {old[2].strip()!r}\n         stderr new: {new[2].strip()!r}")
    print_rss_summary(peaks)
    print("FAIL" if failed else "OK: exit codes, stderr, stdout and values agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
