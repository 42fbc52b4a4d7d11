"""Command-line experiment runner.

One experiment per invocation; every run is deterministic in its seed and
writes a single JSON or CSV artifact that embeds the resolved
configuration and package version, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 2 configuration error
(including every flag error), 3 cap/size error (including running out of
memory), 4 numerical-invariant violation (including a non-finite value
reaching the artifact and a failed eigen-decomposition), 5 I/O error.

The parser and its flag checks use only the standard library, `config`
and `errors`; the experiments (`carlab.experiments`) and numpy load once
the flags have parsed, so help, version and flag refusals exit without
importing numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .config import ORACLE_DIMS, PHASE_POLICIES, check_budget, check_seed
from .errors import InvalidInputError, NumericalInvariantError, SizeLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

OUTPUT_DIR_ENV = "CARLAB_OUT"


def _json_scalar(value):
    """numpy scalars as Python scalars; any other unknown type is refused."""
    import numpy as np  # an experiment's rows and summary hold numpy values: loaded by now

    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    """One CSV token; a float is the same shortest round-trip text as in JSON."""
    import numpy as np  # loaded by the experiment that made the rows

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


def resolution_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:  # nan included
        raise argparse.ArgumentTypeError(f"expected a net resolution in (0, 1], got {text}")
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
    p.add_argument("--dim", type=int, choices=ORACLE_DIMS, default=2)
    p.add_argument("--trials", type=positive_int, default=100)
    p.add_argument("--budget", type=budget_int, default=2000)
    _add_common(p)
    p.set_defaults(run="run_min_distance")

    p = subs.add_parser(
        "product-distance",
        help="adjudicate the product-state distance constant with the state-mode oracle",
    )
    p.add_argument("--pairs", type=positive_int, default=50)
    p.add_argument("--budget", type=budget_int, default=6000)
    _add_common(p)
    p.set_defaults(run="run_product_distance")

    p = subs.add_parser(
        "reduce",
        help="per-level chain table and the trend classification of an angle pair",
    )
    p.add_argument("--alpha", required=True, help="sequence descriptor")
    p.add_argument("--beta", required=True, help="sequence descriptor")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--length", type=int, default=400, help="diagnostic sequence length")
    p.add_argument("--phase-policy", choices=PHASE_POLICIES, default=PHASE_POLICIES[0])
    _add_common(p)
    p.set_defaults(run="run_reduce")

    p = subs.add_parser(
        "cauchy-gaps",
        help="chain block gaps: factor spectra vs eigenphase closed form vs claimed bound",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--max-span", type=positive_int, default=6)
    p.add_argument("--phase-policy", choices=PHASE_POLICIES, default=PHASE_POLICIES[0])
    _add_common(p)
    p.set_defaults(run="run_cauchy_gaps")

    p = subs.add_parser(
        "separation",
        help="tail-state overlap decay, distances, and separating witnesses",
    )
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--start", type=positive_int, default=1)
    p.add_argument("--levels", type=int, default=10)
    p.add_argument("--threshold", type=finite_float, default=1.9)
    p.add_argument("--search-limit", type=positive_int, default=64)
    _add_common(p)
    p.set_defaults(run="run_separation")

    p = subs.add_parser(
        "fsigma-search",
        help="witness search over a unitary net for pulled-back state pairs",
    )
    p.add_argument("--dim", type=int, choices=(2, 4, 8, 16), default=2)
    p.add_argument("--pairs", type=positive_int, default=50)
    p.add_argument("--epsilon", type=resolution_float, default=0.4)
    p.add_argument("--net", choices=("auto", "exhaustive", "random"), default="auto")
    p.add_argument("--net-size", type=positive_int, default=3000)
    p.add_argument("--test-elements", type=non_negative_int, default=24)
    p.add_argument("--density-check", action="store_true")
    p.add_argument("--density-probes", type=positive_int, default=100)
    _add_common(p)
    p.set_defaults(run="run_fsigma_search")

    p = subs.add_parser(
        "product-test",
        help="running products of a factor family against sandwich bounds",
    )
    p.add_argument("--family", choices=("geometric", "telescoping"), required=True)
    p.add_argument("--terms", type=positive_int, default=40)
    _add_common(p)
    p.set_defaults(run="run_product_test")

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
        from . import experiments  # numpy and the numerics load once the flags parse

        rows, summary = experiments.run(args)
        path = _resolve_output(args, args.command)
        write_artifact(path, args.command, _config_dict(args), rows, summary)
    except SystemExit:  # --help and --version print and stop
        return EXIT_OK
    except (SizeLimitError, MemoryError) as exc:
        return _error_record("size-limit", exc, EXIT_SIZE)
    except InvalidInputError as exc:
        return _error_record("config", exc, EXIT_CONFIG)
    except NumericalInvariantError as exc:
        return _error_record("numerical-invariant", exc, EXIT_NUMERIC)
    except OSError as exc:
        return _error_record("io", exc, EXIT_IO)
    print(f"wrote {path}")
    return EXIT_OK


def process_main() -> int:
    """`main` as a whole process: `python -m carlab.cli` and the `carlab` script."""
    # numpy.random imports secrets, whose hmac loads OpenSSL's libcrypto through _hashlib;
    # carlab never hashes, and without it hashlib and hmac use CPython's built-in code
    sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
