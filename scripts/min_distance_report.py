#!/usr/bin/env python3
"""Run the two minimum-distance experiments and print their summaries.

Writes min_distance.json (closed form vs the exact-image oracle, per
dimension) and product_distance.json (the two-qubit constant
adjudication) into the output directory, how many of the oracle
searches ran out of budget, and in how many the best restart converged.
"""

import json
import sys
from pathlib import Path

from carlab import cli

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")


def _exhausted(rows) -> str:
    """How many of the rows' searches used their whole evaluation budget,
    and in how many the restart that found the distance had converged."""
    spent = sum(row["budget_exhausted"] for row in rows)
    converged = sum(row["best_step"] < 1e-6 for row in rows)
    return (f"{spent} of {len(rows)} searches ran out of budget; "
            f"the best restart converged in {converged}")


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for dim in (2, 3, 4):
        path = OUT / f"min_distance_dim{dim}.json"
        code = cli.main(
            ["min-distance", "--dim", str(dim), "--trials", "100", "--seed", "7",
             "--budget", "2000", "--output", str(path)]
        )
        if code != 0:
            return code
        doc = json.loads(path.read_text())
        print(
            f"dim {dim}: max |closed - oracle| = {doc['summary']['max_abs_error']:.3e}; "
            f"{_exhausted(doc['rows'])}"
        )
    path = OUT / "product_distance.json"
    code = cli.main(
        ["product-distance", "--pairs", "50", "--seed", "7", "--output", str(path)]
    )
    if code != 0:
        return code
    doc = json.loads(path.read_text())
    summary = doc["summary"]
    print(
        "two-qubit products: max |oracle - single constant| = "
        f"{summary['max_error_single']:.3e}; closest approach to the doubled "
        f"constant = {summary['min_deviation_doubled']:.3f}; {_exhausted(doc['rows'])}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
