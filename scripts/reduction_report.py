#!/usr/bin/env python3
"""Chain experiments for a few angle families: per-level tables with the
trend classification and its three dyadic block ratios, block-gap
honesty reports, and the separation trajectory."""

import json
import sys
from pathlib import Path

from carlab import cli

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")

FAMILIES = [("power:2", "zero"), ("harmonic", "zero"), ("invsqrt", "zero")]


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for alpha, beta in FAMILIES:
        tag = alpha.replace(":", "")
        path = OUT / f"reduce_{tag}.json"
        code = cli.main(
            ["reduce", "--alpha", alpha, "--beta", beta, "--levels", "8",
             "--length", "400", "--seed", "7", "--output", str(path)]
        )
        if code != 0:
            return code
        summary = json.loads(path.read_text())["summary"]
        ratios = [summary[f"{series}_block_ratio"] for series in ("l2", "half_angle", "log_product")]
        shown = ", ".join("unbounded" if r is None else f"{r:.3f}" for r in ratios)
        print(f"{alpha} vs {beta}: {summary['classification']} "
              f"(block ratios {shown}; overlap product {summary['overlap_product']:.4g})")

        path = OUT / f"cauchy_gaps_{tag}.json"
        code = cli.main(
            ["cauchy-gaps", "--alpha", alpha, "--beta", beta, "--levels", "8",
             "--max-span", "6", "--seed", "7", "--output", str(path)]
        )
        if code != 0:
            return code
        summary = json.loads(path.read_text())["summary"]
        print(f"  block gaps: {summary['flagged_blocks']}/{summary['blocks']} "
              f"exceed the overlap bound; spectral mismatch "
              f"{summary['max_spectral_mismatch']:.2e}")

    path = OUT / "separation_invsqrt.json"
    code = cli.main(
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--levels", "10",
         "--seed", "7", "--output", str(path)]
    )
    if code != 0:
        return code
    summary = json.loads(path.read_text())["summary"]
    print(f"separation: distance crosses {summary['threshold']} at level "
          f"{summary['crossing_level']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
