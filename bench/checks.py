"""Output checks for carlab CLI artifacts.

Each checker recomputes what it can from closed forms, independently of
the carlab package, and holds the artifact to the package's own
tolerances.  JSON is parsed strictly: `NaN`, `Infinity` and overflowing
literals are rejected, since the CLI promises strict JSON.
"""

from __future__ import annotations

import json
import math


class CheckError(Exception):
    """An artifact that is malformed or disagrees with its closed forms."""


def _reject_constant(token):
    raise CheckError(f"non-finite JSON token {token}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite JSON number {text}")
    return value


def _loads(text):
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"not JSON: {exc}") from exc


def parse_json(data: bytes) -> dict:
    doc = _loads(data)
    if not isinstance(doc, dict) or set(doc) != {"experiment", "config", "rows", "summary"}:
        raise CheckError("artifact must be an object with experiment, config, rows, summary")
    return doc


def parse_csv(data: bytes) -> dict:
    """The CSV layout: `# key = json` comment lines, a header, data rows."""
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckError(f"not text: {exc}") from exc
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value if key == "experiment" else _loads(value)
    if not lines:
        raise CheckError("CSV has no header")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"CSV row has {len(cells)} cells, header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return {"experiment": meta.get("experiment"), "config": meta.get("config"),
            "rows": rows, "summary": meta.get("summary")}


def _cell(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"bad CSV cell {key}: {exc}") from exc
    if not math.isfinite(value):
        raise CheckError(f"non-finite CSV cell {key}={row[key]}")
    return value


def _near(name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or abs(got - want) > tol:
        raise CheckError(f"{name}: got {got!r}, want {want!r} within {tol}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def descriptor_angles(descriptor: str, length: int) -> list[float]:
    """The deterministic angle generators, restated from their definitions."""
    ns = range(1, length + 1)
    if descriptor == "zero":
        return [0.0] * length
    if descriptor == "harmonic":
        return [1.0 / n for n in ns]
    if descriptor == "invsqrt":
        return [1.0 / math.sqrt(n) for n in ns]
    if descriptor.startswith("power:"):
        p = float(descriptor.split(":", 1)[1])
        return [n ** (-p) for n in ns]
    raise CheckError(f"no closed form for descriptor {descriptor!r}")


def _running_cos_products(alpha: list[float], beta: list[float]) -> list[float]:
    out, p = [], 1.0
    for a, b in zip(alpha, beta):
        p *= math.cos(a - b)
        out.append(p)
    return out


def check_min_distance(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    _require(len(rows) == cfg["trials"], "min-distance: one row per trial")
    for i, row in enumerate(rows):
        _require(row["trial"] == i, "min-distance: trials out of order")
        cf, oracle = row["closed_form"], row["oracle"]
        _near("closed_form", cf, math.sqrt(2.0 * (1.0 - row["abs_overlap"])), 1e-12)
        _require(oracle >= cf - 1e-6, f"oracle {oracle} below closed form {cf}")
        _near("abs_error", row["abs_error"], abs(oracle - cf), 1e-12)
        _require(row["abs_error"] <= 1e-4, f"abs_error {row['abs_error']} above 1e-4")
    _require(doc["summary"]["within_tolerance"] is True, "min-distance: not within tolerance")


def check_product_distance(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    _require(len(rows) == cfg["pairs"], "product-distance: one row per pair")
    for row in rows:
        p = row["overlap_product"]
        _require(0.0 <= p <= 1.0, f"overlap product {p} outside [0, 1]")
        single = math.sqrt(2.0 * (1.0 - p))
        _near("distance_single", row["distance_single"], single, 1e-12)
        _near("distance_doubled", row["distance_doubled"], 2.0 * single, 1e-12)
        _near("error_single", row["error_single"], abs(row["oracle"] - single), 1e-12)
        _require(row["error_single"] <= 1e-3, f"error_single {row['error_single']} above 1e-3")
    _require(doc["summary"]["single_within_tolerance"] is True,
             "product-distance: single constant not within tolerance")


def check_reduce(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    _require(cfg["phase_policy"] == "none", "reduce: closed forms assume phase policy none")
    levels = cfg["levels"]
    alpha = descriptor_angles(cfg["alpha"], levels)
    beta = descriptor_angles(cfg["beta"], levels)
    products = _running_cos_products(alpha, beta)
    _require([r["n"] for r in rows] == list(range(1, levels + 1)), "reduce: one row per level")
    for row, a, b, p in zip(rows, alpha, beta, products):
        theta = a - b
        _near("overlap_product", row["overlap_product"], p, 1e-12)
        q = row["overlap_product"]
        _near("state_distance", row["state_distance"], 2.0 * math.sqrt(max(1.0 - q * q, 0.0)), 1e-8)
        _near("gap_to_prev", row["gap_to_prev"], row["eigenphase_norm"], 1e-10)
        _near("eigenphase_norm", row["eigenphase_norm"], 2.0 * abs(math.sin(theta / 2.0)), 1e-12)
        _near("overlap_bound", row["overlap_bound"], math.sqrt(2.0 * (1.0 - math.cos(theta))), 1e-12)


def check_cauchy_gaps(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    top, span = cfg["levels"], cfg["max_span"]
    blocks = [(m, n) for m in range(1, top) for n in range(m + 1, min(m + span, top) + 1)]
    _require([(r["start"], r["end"]) for r in rows] == blocks, "cauchy-gaps: wrong block list")
    flagged = 0
    for row in rows:
        _near("measured", row["measured"], row["eigenphase_norm"], 1e-8)
        exceeds = row["measured"] > row["overlap_bound"] + 1e-12
        _require(row["exceeds_bound"] is exceeds, f"exceeds_bound inconsistent in block {row}")
        flagged += exceeds
    summary = doc["summary"]
    _require(summary["blocks"] == len(rows) and summary["flagged_blocks"] == flagged,
             "cauchy-gaps: summary counts disagree with rows")
    _require(summary["spectral_agreement"] is True, "cauchy-gaps: spectral disagreement")


def check_separation(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    start, levels, limit = cfg["start"], cfg["levels"], cfg["search_limit"]
    length = max(limit, start + levels - 1)
    alpha = descriptor_angles(cfg["alpha"], length)
    beta = descriptor_angles(cfg["beta"], length)
    tail = _running_cos_products(alpha[start - 1:], beta[start - 1:])
    _require([r["n"] for r in rows] == list(range(start, start + levels)),
             "separation: one row per level")
    for row, c in zip(rows, tail):
        gap = max(1.0 - c * c, 0.0)
        _near("overlap", row["overlap"], c, 1e-12)
        _near("state_distance", row["state_distance"], 2.0 * math.sqrt(gap), 1e-8)
        _near("witness_first", row["witness_first"], gap, 1e-10)
        _near("witness_second", row["witness_second"], -gap, 1e-10)
        _near("witness_norm", row["witness_norm"], math.sqrt(gap), 1e-8)
    stop = min(length, limit)
    crossing = next(
        (start + i for i, c in enumerate(tail[: stop - start + 1])
         if 2.0 * math.sqrt(max(1.0 - c * c, 0.0)) > cfg["threshold"]),
        None,
    )
    _require(doc["summary"]["crossing_level"] == crossing,
             f"separation: crossing level {doc['summary']['crossing_level']}, want {crossing}")


def check_product_test(doc: dict) -> None:
    cfg, rows = doc["config"], doc["rows"]
    _require(cfg["family"] == "telescoping", "product-test: only the telescoping family has a closed form")
    _require(len(rows) == cfg["terms"], "product-test: one row per term")
    for j, row in enumerate(rows):
        _require(row["term"] == str(j + 1), "product-test: terms out of order")
        exact = 1.0 / (j + 2)
        _near("exact", _cell(row, "exact"), exact, 1e-15)
        _near("partial_product", _cell(row, "partial_product"), exact, 1e-12 * exact)
        for key in ("factor", "lower_bound", "upper_bound"):
            _cell(row, key)


def check_fsigma_search(doc: dict) -> None:
    cfg, rows, summary = doc["config"], doc["rows"], doc["summary"]
    exhaustive = cfg["net"] == "exhaustive" or (cfg["net"] == "auto" and cfg["dim"] == 2)
    _require(summary["net_mode"] == ("exhaustive" if exhaustive else "random"), "fsigma-search: wrong net mode")
    _require(summary["all_found"] is True and summary["found"] == cfg["pairs"] == len(rows),
             "fsigma-search: not every pair found a witness")
    for i, row in enumerate(rows):
        _require(row["pair"] == i and row["found"] is True, "fsigma-search: pair missing a witness")
        _require(0 <= row["witness_index"] < summary["net_size"], "fsigma-search: witness index outside net")
        _require(row["gap"] < 1.0, f"fsigma-search: gap {row['gap']} not below 1")
        _require(row["below_two"] is True and row["norm_distance"] < 2.0,
                 "fsigma-search: distance not below 2")
    if cfg["density_check"]:
        _require(summary["density_probes"] == cfg["density_probes"], "fsigma-search: probe count")
        if exhaustive:
            _require(summary["density_within_resolution"] is True,
                     "fsigma-search: exhaustive net not dense at its resolution")


CHECKERS = {
    "min-distance": check_min_distance,
    "product-distance": check_product_distance,
    "reduce": check_reduce,
    "cauchy-gaps": check_cauchy_gaps,
    "separation": check_separation,
    "product-test": check_product_test,
    "fsigma-search": check_fsigma_search,
}


def check_artifact(data: bytes, experiment: str, fmt: str, expected_config: dict) -> None:
    """Raise CheckError unless the artifact is a correct run of `experiment`.

    `expected_config` holds the flags the invocation passed; the embedded
    config must echo each of them.
    """
    doc = parse_json(data) if fmt == "json" else parse_csv(data)
    _require(doc["experiment"] == experiment, f"experiment {doc['experiment']!r}, want {experiment!r}")
    cfg = doc["config"]
    _require(isinstance(cfg, dict), "config missing")
    for key, want in expected_config.items():
        _require(cfg.get(key) == want, f"config {key}={cfg.get(key)!r}, want {want!r}")
    try:
        CHECKERS[experiment](doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"{experiment}: malformed artifact ({type(exc).__name__}: {exc})") from exc


# The row field each self-check corrupts; every checker above ties it to
# an independent closed form or threshold.
CORRUPT_FIELD = {
    "min-distance": "oracle",
    "product-distance": "distance_doubled",
    "reduce": "overlap_product",
    "cauchy-gaps": "measured",
    "separation": "witness_first",
    "product-test": "partial_product",
    "fsigma-search": "gap",
}


def corrupted_variants(data: bytes, experiment: str, fmt: str) -> list[bytes]:
    """A shifted-value copy and a non-finite copy of a good artifact."""
    field = CORRUPT_FIELD[experiment]
    if fmt == "json":
        doc = json.loads(data)
        row = doc["rows"][0]
        good = row[field]
        row[field] = good + 1.0
        shifted = json.dumps(doc).encode()
        row[field] = float("nan")
        return [shifted, json.dumps(doc).encode()]
    lines = data.decode().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].split(",").index(field)
    out = []
    for replace in (lambda v: repr(float(v) + 1.0), lambda v: "nan"):
        edited = list(lines)
        cells = edited[header_at + 1].split(",")
        cells[col] = replace(cells[col])
        edited[header_at + 1] = ",".join(cells)
        out.append(("\n".join(edited) + "\n").encode())
    return out
