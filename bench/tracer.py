"""Spans around carlab's public functions, recorded from outside the package.

Run as a program, this replaces each traced function with a timing
wrapper in every `carlab.*` module that binds it, runs one CLI
invocation in-process and writes the spans it kept in memory:

    python bench/tracer.py SPANS.bin -- min-distance --dim 2 --seed 7

`layer_metrics` turns the span files of one workload pass into the
per-layer metrics.  Wrapping happens before `build_parser()` runs, so
functions that the parser binds as defaults are wrapped too.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "orbit": ("min_distance_bruteforce", "state_min_distance_bruteforce"),
    "linalg": ("operator_norm", "trace_norm", "is_unitary", "two_plane_unitary", "haar_unitary"),
    "intertwiner": ("build_chain", "block_gaps", "separation_rows"),
    "states": ("state_distance", "separation_witness"),
    "truncation": ("embed", "product_vector"),
    "witness": ("enumerate_net", "random_net", "witness_search", "net_density_report"),
    "sequences": ("classify_pair", "angles_from_descriptor"),
    "cli": ("write_artifact",),
}

DENSE_NORMS = ("linalg.operator_norm", "linalg.trace_norm")
# Upper edges of the dense-norm dimension buckets; larger inputs land in d_gt1024.
DIM_BUCKETS = (64, 128, 256, 512, 1024)
BUCKET_NAMES = tuple(f"d_le{edge}" for edge in DIM_BUCKETS) + (f"d_gt{DIM_BUCKETS[-1]}",)


def _first_dim(args, kwargs, result):
    return len(args[0])


def _net_size(args, kwargs, result):
    return len(result)


def _found(args, kwargs, result):
    return int(result is not None)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# A number recorded with each span of these functions.
ATTRIBUTES = {
    "linalg.operator_norm": _first_dim,
    "linalg.trace_norm": _first_dim,
    "witness.enumerate_net": _net_size,
    "witness.random_net": _net_size,
    "witness.witness_search": _found,
    "cli.write_artifact": _bytes_written,
}


class Tracer:
    """Spans as [name index, start, end, parent span, attribute] lists.

    The parent of a root span and the attribute of an unattributed span
    are -1.  `dump` writes a JSON header line with the names and span
    count, then the spans as flat native-endian doubles, which keeps the
    write short next to the traced work.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list | None] = []
        self._current = contextvars.ContextVar("span", default=-1)

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        attribute = ATTRIBUTES.get(name)
        spans, current = self.spans, self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span = len(spans)
            spans.append(None)
            token = current.set(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans[span] = [index, start, end, parent, -1]
            if attribute is not None:
                spans[span][4] = attribute(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each traced function wherever a carlab module binds it."""
        import carlab.cli  # noqa: F401  (imports every carlab module)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "carlab" or name.startswith("carlab.")}
        for short, functions in TRACED.items():
            home = modules["carlab." + short]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        header = json.dumps({"names": self.names, "count": len(self.spans)}) + "\n"
        with open(path, "wb") as fh:
            fh.write(header.encode())
            array("d", itertools.chain.from_iterable(self.spans)).tofile(fh)


def read_spans(path: str) -> tuple[list[str], list[tuple]]:
    """Names and (name index, start, end, parent, attribute) spans of a dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        flat = array("d")
        flat.frombytes(fh.read())
    if len(flat) != 5 * header["count"]:
        raise ValueError(f"{path}: span data truncated")
    rows = zip(*(flat[k::5] for k in range(5)))
    return header["names"], [(int(i), s, e, int(p), int(a)) for i, s, e, p, a in rows]


def _bucket(dim: int) -> str:
    for edge, name in zip(DIM_BUCKETS, BUCKET_NAMES):
        if dim <= edge:
            return name
    return BUCKET_NAMES[-1]


def layer_metrics(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics over the span files of one workload pass.

    Self time is a span's duration minus the durations of its direct
    children.  `linalg.dense_*_computed` are computed from input sizes
    (16 d^2 bytes and d^3 operations per dense-norm input), not measured.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(int)
    buckets = defaultdict(float)
    orbit_linalg = 0
    max_dim = 0
    dense_bytes = dense_ops = 0
    for path in span_files:
        names, spans = read_spans(path)
        in_orbit = [False] * len(spans)
        for i, (index, start, end, parent, attr) in enumerate(spans):
            name = names[index]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration
            if parent >= 0:
                self_s[names[spans[parent][0]]] -= duration
                in_orbit[i] = in_orbit[parent]
            if name.startswith("linalg.") and in_orbit[i]:
                orbit_linalg += 1
            in_orbit[i] = in_orbit[i] or name.startswith("orbit.")
            if attr >= 0:
                attr_sum[name] += attr
            if name in DENSE_NORMS:
                buckets[f"{name}.{_bucket(attr)}.s"] += duration
                max_dim = max(max_dim, attr)
                dense_bytes += 16 * attr * attr
                dense_ops += attr ** 3

    searches = calls["witness.witness_search"]
    metrics = {
        "orbit.linalg_calls": orbit_linalg,
        "linalg.max_dense_dim": max_dim,
        "linalg.dense_bytes_computed": dense_bytes,
        "linalg.dense_ops_computed": dense_ops,
        "witness.enumerate_net.elements": attr_sum["witness.enumerate_net"],
        "witness.found_ratio": attr_sum["witness.witness_search"] / searches if searches else 0.0,
        "cli.write_artifact.bytes": attr_sum["cli.write_artifact"],
    }
    for short, functions in TRACED.items():
        for fn_name in functions:
            name = f"{short}.{fn_name}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total[name]
            metrics[f"{name}.self_s"] = self_s[name]
    for name in DENSE_NORMS:
        for bucket in BUCKET_NAMES:
            key = f"{name}.{bucket}.s"
            metrics[key] = buckets[key]
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.bin -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import carlab.cli

    code = carlab.cli.main(argv[2:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
