"""Command-line experiment runner.

One experiment per invocation; every run is deterministic in its seed and
writes a single JSON or CSV artifact that embeds the resolved
configuration and package version, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 2 configuration error
(including every flag error), 3 cap/size error (including running out of
memory), 4 numerical-invariant violation (including a non-finite value
reaching the artifact and a failed eigen-decomposition), 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import check_count
from .errors import InvalidInputError, NumericalInvariantError, SizeLimitError
from .intertwiner import (
    block_gap,
    block_gaps,
    build_chain,
    distance_crossing_level,
    separation_rows,
)
from .linalg import haar_unitary, phase_align, random_unit_vector
from .orbit import (
    SearchResult,
    check_budget,
    min_distance_searches,
    product_min_distance,
    state_min_distance_searches,
)
from .seeding import check_seed, derive_seeds
from .sequences import angles_from_descriptor, classify_pair, partial_products, weierstrass_bounds
from .states import VectorState, pullback
from .witness import (
    distance_bound_check,
    enumerate_net,
    net_density_report,
    random_net,
    build_test_element_net,
    witness_search,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "CARLAB_OUT"


def _json_scalar(value):
    """numpy scalars as Python scalars; any other unknown type is refused."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    """One CSV token; a float is the same shortest round-trip text as in JSON."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise NumericalInvariantError(f"refusing to serialize non-finite value {float(value)!r}")
        return repr(float(value))
    return str(value)


def write_artifact(path: Path, experiment: str, config: dict, rows: list, summary: dict) -> None:
    fmt = config["format"]
    if fmt == "json":
        doc = {
            "experiment": experiment,
            "config": config,
            "rows": rows,
            "summary": summary,
        }
        try:
            text = json.dumps(doc, indent=2, allow_nan=False, default=_json_scalar) + "\n"
        except ValueError as exc:  # a non-finite float
            raise NumericalInvariantError(f"refusing to serialize: {exc}") from exc
    else:
        lines = [
            f"# experiment = {experiment}",
            f"# config = {json.dumps(config, default=str, separators=(',', ':'))}",
            f"# summary = {json.dumps({k: _csv_cell(v) for k, v in summary.items()}, separators=(',', ':'))}",
        ]
        if rows:
            keys = list(rows[0].keys())
            lines.append(",".join(keys))
            for row in rows:
                lines.append(",".join(_csv_cell(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    path.write_text(text)


def _resolve_output(args, experiment: str) -> Path:
    if args.output:
        return Path(args.output)
    out_dir = args.out_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    ext = "json" if args.out == "json" else "csv"
    return Path(out_dir) / f"{experiment.replace('-', '_')}.{ext}"


# parsed attributes that select the subcommand or where its artifact goes
_NOT_CONFIG = ("command", "run", "seed", "out", "out_dir", "output")


def _config_dict(args) -> dict:
    """Version, format and seed, then the subcommand's flags in parser order."""
    config = {"version": __version__, "format": args.out, "seed": args.seed}
    config.update((k, v) for k, v in vars(args).items() if k not in _NOT_CONFIG)
    return config


# ---------------------------------------------------------------- experiments


def _search_diagnostics(search: SearchResult) -> dict:
    """How an oracle's search ended: every field of the result but the distance."""
    diagnostics = asdict(search)
    del diagnostics["distance"]
    return diagnostics


def run_min_distance(args):
    """Closed form vs exact-image search oracle on random vector pairs."""
    seeds = derive_seeds(args.seed, args.trials)
    xis, etas = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        xi = random_unit_vector(args.dim, rng)
        xis.append(xi)
        # states forget global phases, so compare on the aligned representative
        etas.append(phase_align(xi, random_unit_vector(args.dim, rng)))
    searches = min_distance_searches(xis, etas, args.budget, seeds)
    rows = []
    worst = 0.0
    for trial, (xi, eta, search) in enumerate(zip(xis, etas, searches)):
        report = product_min_distance([xi], [eta])
        err = abs(search.distance - report.distance_single)
        worst = max(worst, err)
        rows.append(
            {
                "trial": trial,
                "abs_overlap": report.overlap_product,
                "closed_form": report.distance_single,
                "oracle": search.distance,
                "abs_error": err,
                **_search_diagnostics(search),
            }
        )
    summary = {
        "trials": args.trials,
        "max_abs_error": worst,
        "tolerance": 1e-4,
        "within_tolerance": worst <= 1e-4,
    }
    return rows, summary


def run_product_distance(args):
    """Adjudicate the two rival product-state constants with the oracle."""
    seeds = derive_seeds(args.seed, args.pairs)
    reports, xis, etas = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x1, x2 = random_unit_vector(2, rng), random_unit_vector(2, rng)
        e1, e2 = random_unit_vector(2, rng), random_unit_vector(2, rng)
        reports.append(product_min_distance([x1, x2], [e1, e2]))
        xis.append(np.kron(x1, x2))
        etas.append(np.kron(e1, e2))
    searches = state_min_distance_searches(xis, etas, args.budget, seeds)
    rows = []
    max_err_single = 0.0
    min_dev_doubled = np.inf
    for pair, (report, search) in enumerate(zip(reports, searches)):
        err_single = abs(search.distance - report.distance_single)
        dev_doubled = abs(search.distance - report.distance_doubled)
        max_err_single = max(max_err_single, err_single)
        min_dev_doubled = min(min_dev_doubled, dev_doubled)
        rows.append(
            {
                "pair": pair,
                "overlap_product": report.overlap_product,
                "distance_single": report.distance_single,
                "distance_doubled": report.distance_doubled,
                "oracle": search.distance,
                "error_single": err_single,
                "deviation_doubled": dev_doubled,
                **_search_diagnostics(search),
            }
        )
    summary = {
        "pairs": args.pairs,
        "max_error_single": max_err_single,
        "min_deviation_doubled": float(min_dev_doubled),
        "tolerance": 1e-3,
        "single_within_tolerance": max_err_single <= 1e-3,
    }
    return rows, summary


def run_reduce(args):
    """Per-level chain table plus the scalar trend classification."""
    if args.length < args.levels:
        raise InvalidInputError(
            f"--length {args.length} is below --levels {args.levels}"
        )
    alpha = angles_from_descriptor(args.alpha, args.length)
    beta = angles_from_descriptor(args.beta, args.length)
    chain = build_chain(alpha, beta, args.levels, phase_policy=args.phase_policy)
    rows = []
    for tail in separation_rows(alpha, beta, 1, args.levels):
        gap = block_gap(chain, tail.n - 1, tail.n)
        rows.append(
            {
                "n": tail.n,
                "gap_to_prev": gap.measured,
                "overlap_bound": gap.overlap_bound,
                "eigenphase_norm": gap.eigenphase_norm,
                "overlap_product": tail.overlap,
                "state_distance": tail.state_distance,
            }
        )
    summary = asdict(classify_pair(alpha, beta))
    summary["diagnostic_length"] = args.length
    return rows, summary


def run_cauchy_gaps(args):
    """Chain block gaps: factor-spectrum measurement vs closed form vs claimed bound."""
    length = max(args.levels, 1)
    alpha = angles_from_descriptor(args.alpha, length)
    beta = angles_from_descriptor(args.beta, length)
    chain = build_chain(alpha, beta, args.levels, phase_policy=args.phase_policy)
    gaps = block_gaps(chain, max_span=args.max_span)
    if not gaps:
        raise InvalidInputError("cauchy-gaps needs --levels >= 2 to form a block")
    worst_mismatch = max(abs(g.measured - g.eigenphase_norm) for g in gaps)
    summary = {
        "blocks": len(gaps),
        "flagged_blocks": sum(g.exceeds_bound for g in gaps),
        "max_spectral_mismatch": worst_mismatch,
        "spectral_agreement": worst_mismatch <= 1e-8,
    }
    return [asdict(g) for g in gaps], summary


def run_separation(args):
    """Tail-state overlap decay, distances, and separating witnesses."""
    length = max(args.search_limit, args.start + args.levels - 1)
    alpha = angles_from_descriptor(args.alpha, length)
    beta = angles_from_descriptor(args.beta, length)
    crossing = distance_crossing_level(
        alpha, beta, threshold=args.threshold, start=args.start, limit=args.search_limit
    )
    stop = args.start + args.levels - 1
    rows = [asdict(r) for r in separation_rows(alpha, beta, start=args.start, stop=stop)]
    summary = {
        "threshold": args.threshold,
        "crossing_level": crossing,
        "search_limit": args.search_limit,
    }
    return rows, summary


def run_fsigma_search(args):
    """Witness search over a unitary net for pulled-back state pairs."""
    if args.density_check:  # refused before the net is built and searched
        check_count(args.density_probes, "density probe count")
    if args.net == "exhaustive" or (args.net == "auto" and args.dim == 2):
        net = enumerate_net(args.dim, args.epsilon)
    else:
        net = random_net(args.dim, args.epsilon, size=args.net_size, seed=args.seed)
    # pairs, then the test elements, then the density probes: the probes
    # need a stream of their own, as the net's seed would redraw the net
    seeds = derive_seeds(args.seed, args.pairs + 2)
    tests = build_test_element_net(args.dim, n_random=args.test_elements, seed=seeds[args.pairs])
    rows = []
    found_count = 0
    far_count = 0
    for pair, seed in enumerate(seeds[: args.pairs]):
        rng = np.random.default_rng(seed)
        psi = VectorState(random_unit_vector(args.dim, rng))
        v = haar_unitary(args.dim, rng)
        phi = pullback(psi, v)
        result = witness_search(phi, psi, net, tests)
        if result is None:
            rows.append(
                {
                    "pair": pair,
                    "found": False,
                    "witness_index": None,
                    "gap": None,
                    "norm_distance": None,
                    "below_two": False,
                }
            )
            continue
        found_count += 1
        bound = distance_bound_check(phi, psi, result.unitary)
        far_count += bound.norm_distance >= 1.0
        rows.append(
            {
                "pair": pair,
                "found": True,
                "witness_index": result.index,
                "gap": result.gap,
                "norm_distance": bound.norm_distance,
                "below_two": bound.below_two,
            }
        )
    summary = {
        "pairs": args.pairs,
        "found": found_count,
        "all_found": found_count == args.pairs,
        "found_distance_ge_1": far_count,
        "net_mode": net.mode,
        "net_size": len(net),
        "net_resolution": net.resolution,
        "net_covering_radius": net.covering_radius,
    }
    if args.density_check:
        report = net_density_report(net, probes=args.density_probes, seed=seeds[-1])
        summary["density_probes"] = report.probes
        summary["density_max_distance"] = report.max_distance
        summary["density_mean_distance"] = report.mean_distance
        summary["density_within_resolution"] = report.within_resolution
    return rows, summary


_FAMILIES = {
    "geometric": lambda n: 1.0 - 0.5 ** np.arange(1, n + 1),
    "telescoping": lambda n: 1.0 - 1.0 / np.arange(2, n + 2),
}


def run_product_test(args):
    """Running products of a factor family against their sandwich bounds."""
    factors = _FAMILIES[args.family](check_count(args.terms, "factor count"))
    products = partial_products(factors)
    lower, upper = weierstrass_bounds(factors)
    rows = []
    sandwich_ok = True
    for j in range(args.terms):
        exact = 1.0 / (j + 2) if args.family == "telescoping" else None
        sandwich_ok &= bool(
            lower[j] - 1e-12 <= products[j] <= upper[j] + 1e-12
        )
        rows.append(
            {
                "term": j + 1,
                "factor": float(factors[j]),
                "partial_product": float(products[j]),
                "lower_bound": float(lower[j]),
                "upper_bound": float(upper[j]),
                "exact": exact,
            }
        )
    summary = {
        "family": args.family,
        "terms": args.terms,
        "sandwich_holds": sandwich_ok,
        "final_product": float(products[-1]),
    }
    if args.family == "geometric":
        # first factor pulled out, Weierstrass applied to the tail
        refined = float(factors[0]) * (1.0 - float(np.sum(1.0 - factors[1:])))
        summary["refined_floor"] = refined
        summary["floor_holds"] = bool(products[-1] >= refined - 1e-12)
    if args.family == "telescoping":
        exact_vals = 1.0 / np.arange(2, args.terms + 2)
        summary["max_exact_error"] = float(np.max(np.abs(products - exact_vals)))
    return rows, summary


# --------------------------------------------------------------------- parser


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def seed_int(text: str) -> int:
    try:
        return check_seed(int(text))
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def budget_int(text: str) -> int:
    try:
        return check_budget(int(text))
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises flag errors as InvalidInputError, for the JSON error record."""

    def error(self, message):
        raise InvalidInputError(f"{self.prog}: {message}")


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=seed_int, default=7)
    sub.add_argument("--out", choices=("json", "csv"), default="json")
    sub.add_argument("--out-dir", default=None, help=f"default: ${OUTPUT_DIR_ENV} or cwd")
    sub.add_argument("--output", default=None, help="explicit output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="carlab",
        description="Deterministic experiments on pure states of 2^n matrix truncations.",
    )
    parser.add_argument("--version", action="version", version=f"carlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "min-distance",
        help="closed-form minimum unitary distance vs the exact-image search oracle",
    )
    p.add_argument("--dim", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--budget", type=budget_int, default=2000)
    _add_common(p)
    p.set_defaults(run=run_min_distance)

    p = subs.add_parser(
        "product-distance",
        help="adjudicate the product-state distance constant with the state-mode oracle",
    )
    p.add_argument("--pairs", type=positive_int, default=50)
    p.add_argument("--budget", type=budget_int, default=6000)
    _add_common(p)
    p.set_defaults(run=run_product_distance)

    p = subs.add_parser(
        "reduce",
        help="per-level chain table and the trend classification of an angle pair",
    )
    p.add_argument("--alpha", required=True, help="sequence descriptor")
    p.add_argument("--beta", required=True, help="sequence descriptor")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--length", type=int, default=400, help="diagnostic sequence length")
    p.add_argument("--phase-policy", choices=("none", "eigenvalue-one"), default="none")
    _add_common(p)
    p.set_defaults(run=run_reduce)

    p = subs.add_parser(
        "cauchy-gaps",
        help="chain block gaps: factor spectra vs eigenphase closed form vs claimed bound",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--max-span", type=positive_int, default=6)
    p.add_argument("--phase-policy", choices=("none", "eigenvalue-one"), default="none")
    _add_common(p)
    p.set_defaults(run=run_cauchy_gaps)

    p = subs.add_parser(
        "separation",
        help="tail-state overlap decay, distances, and separating witnesses",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--levels", type=int, default=10)
    p.add_argument("--threshold", type=finite_float, default=1.9)
    p.add_argument("--search-limit", type=positive_int, default=64)
    _add_common(p)
    p.set_defaults(run=run_separation)

    p = subs.add_parser(
        "fsigma-search",
        help="witness search over a unitary net for pulled-back state pairs",
    )
    p.add_argument("--dim", type=int, choices=(2, 4, 8, 16), default=2)
    p.add_argument("--pairs", type=positive_int, default=50)
    p.add_argument("--epsilon", type=float, default=0.4)
    p.add_argument("--net", choices=("auto", "exhaustive", "random"), default="auto")
    p.add_argument("--net-size", type=int, default=3000)
    p.add_argument("--test-elements", type=non_negative_int, default=24)
    p.add_argument("--density-check", action="store_true")
    p.add_argument("--density-probes", type=positive_int, default=100)
    _add_common(p)
    p.set_defaults(run=run_fsigma_search)

    p = subs.add_parser(
        "product-test",
        help="running products of a factor family against sandwich bounds",
    )
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--terms", type=positive_int, default=40)
    _add_common(p)
    p.set_defaults(run=run_product_test)

    return parser


def _error_record(kind: str, exc: Exception, code: int) -> int:
    record = {"error": kind, "message": str(exc), "exit_code": code}
    size = exc.estimated_size if isinstance(exc, SizeLimitError) else None
    if size is not None and size < sys.float_info.max:
        record["estimated_size"] = float(size)
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rows, summary = args.run(args)
        path = _resolve_output(args, args.command)
        write_artifact(path, args.command, _config_dict(args), rows, summary)
    except SystemExit:  # --help and --version print and stop
        return EXIT_OK
    except (SizeLimitError, MemoryError) as exc:
        return _error_record("size-limit", exc, EXIT_SIZE)
    except InvalidInputError as exc:
        return _error_record("config", exc, EXIT_CONFIG)
    except (NumericalInvariantError, np.linalg.LinAlgError) as exc:
        return _error_record("numerical-invariant", exc, EXIT_NUMERIC)
    except OSError as exc:
        return _error_record("io", exc, EXIT_IO)
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
