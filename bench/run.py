"""Closed-loop benchmark of the carlab command line.

One client runs a workload's CLI invocations one after another, each in
a fresh `python -m carlab.cli` process, and repeats the whole list (a
pass) for about `--seconds`.  Every artifact is checked against
closed forms and against its first repeat, byte for byte.  Timings are
medians over the passes of the run.

    python3 bench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates untraced passes with passes whose invocations run under
bench/tracer.py and reports the per-layer metrics.  The last line of
standard output is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckError, check_artifact, corrupted_variants
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
# Fewest passes in a run, whatever --seconds says; each pass also times one set-up.
MIN_PASSES = 3
# One BLAS thread: on a shared host with a few cores, a second thread
# would time the scheduler and the other tenants as much as the program.
BLAS_THREADS = 1
# A run, hung children included, must end within this many seconds.
RUN_DEADLINE_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOST_INFO = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
    " 'blas_version': blas.get('version')}))"
)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `step` names the end-to-end metric its wall time feeds."""

    step: str | None
    experiment: str
    flags: dict
    fmt: str = "json"

    def config(self, seed: int) -> dict:
        """The flags as the artifact's config must echo them."""
        resolved = {k: v.format(seed=seed) if isinstance(v, str) else v for k, v in self.flags.items()}
        return {"seed": seed, "format": self.fmt, **resolved}

    def argv(self, seed: int) -> list[str]:
        out = [self.experiment]
        for key, value in self.config(seed).items():
            flag = "--out" if key == "format" else "--" + key.replace("_", "-")
            out += [flag] if value is True else [flag, str(value)]
        return out


# Sizes keep one pass near 3-6 s on a 2-core machine, so a run holds six
# to fourteen passes and reports their medians.  Why each workload exists
# is in bench/README.md.
WORKLOADS = {
    "oracle": [
        Invocation("step1_s", "min-distance", {"dim": 2, "trials": 20}),
        Invocation("step2_s", "min-distance", {"dim": 4, "trials": 3}),
        Invocation("step3_s", "product-distance", {"pairs": 1}),
    ],
    "chain": [
        Invocation("step1_s", "reduce", {"alpha": "power:2", "beta": "zero", "levels": 10, "length": 400}),
        Invocation("step2_s", "cauchy-gaps",
                   {"alpha": "harmonic", "beta": "random:0.3:{seed}", "levels": 9, "max_span": 6}),
        Invocation("step3_s", "separation", {"alpha": "invsqrt", "beta": "zero", "levels": 10}),
        Invocation(None, "product-test", {"family": "telescoping", "terms": 400}, fmt="csv"),
    ],
    "witness": [
        Invocation("step1_s", "fsigma-search",
                   {"dim": 2, "pairs": 20, "epsilon": 0.4, "density_check": True, "density_probes": 30}),
        Invocation("step2_s", "fsigma-search",
                   {"dim": 4, "net": "random", "net_size": 3000, "pairs": 15, "epsilon": 0.4,
                    "density_check": True, "density_probes": 40}),
        Invocation("step3_s", "fsigma-search",
                   {"dim": 2, "net": "random", "net_size": 5000, "pairs": 50, "epsilon": 0.4,
                    "density_check": True}),
    ],
}


def steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only), if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


class Runner:
    """Runs and checks the invocations of one workload, counting failures."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.nproc = len(os.sched_getaffinity(0))
        # the caller's PYTHON* settings (no bytecode cache, hash seed, ...)
        # would change what is timed, so children get none of them
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.child_cpu_s = 0.0
        self.first_bytes: dict[int, bytes] = {}

    def spawn(self, argv: list[str]) -> tuple[float, int, float]:
        """Run one child; return (wall s, exit code, peak RSS MB).

        `os.wait4` gives this child's own peak RSS; RUSAGE_CHILDREN would
        carry the largest earlier child's peak into every later reading.
        """
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and building its parser."""
        wall, code, _ = self.spawn([sys.executable, "-c", "import carlab.cli; carlab.cli.build_parser()"])
        if code != 0:
            raise SystemExit(f"importing carlab.cli failed with exit code {code}")
        return wall

    def invoke(self, index: int, spans: Path | None = None) -> tuple[float, float]:
        """Run invocation `index`, check its artifact; return (wall s, peak RSS MB)."""
        inv = self.invocations[index]
        out = self.workdir / f"artifact{index}.{inv.fmt}"
        out.unlink(missing_ok=True)
        cli = [*inv.argv(self.seed), "--output", str(out)]
        if spans is None:
            argv = [sys.executable, "-m", "carlab.cli", *cli]
        else:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--", *cli]
        wall, code, rss = self.spawn(argv)
        self.attempted += 1
        if code != 0:
            problem = f"exit code {code}: {(self.workdir / 'stderr.txt').read_text().strip()[-400:]}"
        elif not out.is_file():
            problem = "no artifact written"
        else:
            data = out.read_bytes()
            problem = self.problem(data, inv)
            if problem is None and data != self.first_bytes.setdefault(index, data):
                problem = "artifact bytes differ from the first repeat"
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(cli)}: {problem}", file=sys.stderr)
        return wall, rss

    def problem(self, data: bytes, inv: Invocation) -> str | None:
        try:
            check_artifact(data, inv.experiment, inv.fmt, inv.config(self.seed))
        except CheckError as exc:
            return str(exc)
        return None

    def run_pass(self, trace_dir: Path | None = None) -> dict:
        """All invocations once: the wall time of each, the peak RSS and, when
        traced, the per-layer metrics."""
        result = {"walls": [], "peak_rss_mb": 0.0}
        spans = []
        for index in range(len(self.invocations)):
            span_file = None if trace_dir is None else trace_dir / f"spans{index}.bin"
            wall, rss = self.invoke(index, span_file)
            if span_file is not None:
                spans.append(span_file)
            result["walls"].append(wall)
            result["peak_rss_mb"] = max(result["peak_rss_mb"], rss)
        if trace_dir is not None:
            result["layers"] = layer_metrics([str(p) for p in spans if p.is_file()])
        return result

    def self_check(self) -> tuple[int, int]:
        """Feed a shifted and a non-finite copy of each first artifact to the checker.

        Only artifacts that passed their check are kept as first repeats.
        Returns (copies fed, copies counted as failed); both must agree.
        """
        fed = rejected = 0
        for index, data in self.first_bytes.items():
            inv = self.invocations[index]
            for bad in corrupted_variants(data, inv.experiment, inv.fmt):
                fed += 1
                rejected += self.problem(bad, inv) is not None
        return fed, rejected


def host_facts(runner: Runner) -> dict:
    info = subprocess.run([sys.executable, "-c", HOST_INFO], env=runner.env, capture_output=True,
                          text=True, timeout=60, check=True)
    return {"nproc": runner.nproc, **{v: runner.env[v] for v in BLAS_THREAD_VARS},
            **json.loads(info.stdout)}


def median_walls(passes: list[dict]) -> list[float]:
    """Each invocation's median wall time over the passes."""
    return [statistics.median(walls) for walls in zip(*(p["walls"] for p in passes))]


class Clock:
    """Says whether another round of passes fits in the run.

    A round is started while at least half of it, judged by the longest
    round so far, fits before the end, so a run lasts `seconds` give or
    take half a round instead of overrunning by up to a whole one.
    """

    def __init__(self, seconds: int):
        self.end = time.perf_counter() + seconds
        self.rounds = 0
        self.longest = 0.0
        self.started = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self.started is not None:
            self.longest = max(self.longest, now - self.started)
        self.started = now
        self.rounds += 1
        return self.rounds <= MIN_PASSES or now + self.longest / 2 < self.end


def measure(runner: Runner, seconds: int, trace: bool, trace_dir: Path) -> tuple[dict, bool]:
    """Run passes for `seconds`; return the metrics and whether they are consistent.

    Medians are taken per invocation, so a burst of load from other
    tenants that slows one invocation in one pass hardly moves a metric.
    """
    clock = Clock(seconds)
    if not trace:
        setup, passes = [], []
        while clock.another():
            setup.append(runner.setup_time())
            passes.append(runner.run_pass())
        walls = median_walls(passes)
        metrics = {"wall_s": sum(walls), "setup_s": statistics.median(setup),
                   "peak_rss_mb": max(p["peak_rss_mb"] for p in passes)}
        metrics.update({inv.step: wall for inv, wall in zip(runner.invocations, walls) if inv.step})
        print(f"passes: {len(passes)}, wall_s each: {[round(sum(p['walls']), 3) for p in passes]}; "
              f"setup_s each: {[round(t, 3) for t in setup]}")
        for inv, walls in zip(runner.invocations, zip(*(p["walls"] for p in passes))):
            print(f"  {inv.step or inv.experiment} each: {[round(w, 3) for w in walls]}")
        return metrics, True
    plain, traced = [], []
    while clock.another():
        plain.append(runner.run_pass())
        traced.append(runner.run_pass(trace_dir))
    layers = [p["layers"] for p in traced]
    counts = [key for key, value in layers[0].items() if isinstance(value, int)]
    # counts are exact, so every traced pass must give the same ones
    repeat = all(len({layer[key] for layer in layers}) == 1 for key in counts)
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics.update({key: layers[0][key] for key in counts})
    metrics["trace.overhead_frac"] = sum(median_walls(traced)) / sum(median_walls(plain)) - 1.0
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; counts repeat exactly: {repeat}")
    return metrics, repeat


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "carlab" / "cli.py").is_file():
        print(f"no carlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    trace_dir = workdir / "spans"
    trace_dir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        host = host_facts(runner)
        steal_before = steal_ticks()
        metrics, consistent = measure(runner, args.seconds, bool(args.trace), trace_dir)
        host.update(child_cpu_s=runner.child_cpu_s, steal_ticks_before=steal_before,
                    steal_ticks_after=steal_ticks())
        fed, rejected = runner.self_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark computes no value for {missing}", file=sys.stderr)
        return 1
    print(f"host: {json.dumps(host)}")
    print(f"self-check: {rejected} of {fed} corrupted or non-finite artifacts counted as failed")
    print(f"failed_frac: {runner.failed / runner.attempted} ({runner.failed} of {runner.attempted})")
    for m in declared:
        print(f"  {m['name']:<44} {metrics[m['name']]!r} {m['unit']}")
    result = {
        "correct": runner.failed == 0 and fed == rejected > 0 and consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
