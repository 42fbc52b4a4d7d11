import argparse
import json
import time

import numpy as np
import pytest

from carlab import cli, config, experiments, linalg, sequences, witness
from carlab.errors import SizeLimitError
from carlab.seeding import derive_seeds
from test_process_entry import _fresh


def _run(tmp_path, argv, name):
    out = tmp_path / name
    code = cli.main(argv + ["--output", str(out)])
    return code, out


def _load(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"experiment", "config", "rows", "summary"}
    assert doc["config"]["version"]
    return doc


def _check_search_columns(rows, budget):
    for row in rows:
        assert 1 <= row["evals_used"] <= budget
        assert row["budget_exhausted"] is (row["evals_used"] == budget)
        assert row["final_step"] > 0


def test_min_distance_json(tmp_path):
    code, out = _run(
        tmp_path,
        ["min-distance", "--dim", "2", "--trials", "5", "--seed", "7",
         "--budget", "1500", "--out", "json"],
        "md.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["experiment"] == "min-distance"
    assert len(doc["rows"]) == 5
    assert doc["summary"]["max_abs_error"] <= 1e-4
    assert doc["summary"]["within_tolerance"] is True
    _check_search_columns(doc["rows"], 1500)


def test_exhausted_search_reports_its_converged_restarts(tmp_path):
    # spare restarts spend the budget after the best restart has converged
    code, out = _run(
        tmp_path, ["min-distance", "--dim", "4", "--trials", "5", "--seed", "7"], "md4.json"
    )
    assert code == 0
    rows = _load(out)["rows"]
    assert list(rows[0])[-3:] == ["budget_exhausted", "converged_restarts", "best_step"]
    for row in rows:
        assert row["budget_exhausted"] is True
        assert row["converged_restarts"] >= 1
        assert row["best_step"] < 1e-6


def test_product_distance_json(tmp_path):
    code, out = _run(
        tmp_path,
        ["product-distance", "--pairs", "3", "--seed", "3", "--budget", "4000"],
        "pd.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["single_within_tolerance"] is True
    for row in doc["rows"]:
        assert row["distance_doubled"] == pytest.approx(2 * row["distance_single"])
    _check_search_columns(doc["rows"], 4000)


def test_reduce_equivalent_trend(tmp_path):
    code, out = _run(
        tmp_path,
        ["reduce", "--alpha", "power:2", "--beta", "zero", "--levels", "6",
         "--length", "400"],
        "reduce.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["classification"] == "equivalent-trend"
    assert len(doc["rows"]) == 6
    keys = {"n", "gap_to_prev", "overlap_bound", "eigenphase_norm",
            "overlap_product", "state_distance"}
    assert set(doc["rows"][0]) == keys


def test_reduce_slow_convergence_is_equivalent(tmp_path):
    # sum n^-1.1 converges, though its running product is 0.038 at n = 4000
    code, out = _run(
        tmp_path,
        ["reduce", "--alpha", "power:0.55", "--beta", "zero", "--levels", "4",
         "--length", "4000"],
        "reduce.json",
    )
    assert code == 0
    summary = _load(out)["summary"]
    assert summary["classification"] == "equivalent-trend"
    assert 0.0 < summary["overlap_product"] < 0.05
    assert list(summary) == [
        "classification", "l2_total", "l2_block_ratio", "half_angle_total",
        "half_angle_block_ratio", "overlap_product", "log_overlap_product",
        "log_product_block_ratio", "diagnostic_length",
    ]


def test_reduce_unbounded_block_ratio_is_null(tmp_path):
    # a file sequence zero on [16, 32) and not on [32, 64): strict JSON, null ratios
    angles = tmp_path / "angles.txt"
    angles.write_text("".join("0.2\n" if n == 41 else "0.0\n" for n in range(1, 65)))
    code, out = _run(
        tmp_path,
        ["reduce", "--alpha", f"file:{angles}", "--beta", "zero", "--levels", "3",
         "--length", "64"],
        "reduce.json",
    )
    assert code == 0
    summary = json.loads(out.read_text(), parse_constant=_reject_constant)["summary"]
    assert summary["classification"] == "inequivalent-trend"
    assert summary["l2_block_ratio"] is None


def test_reduce_csv_format(tmp_path):
    code, out = _run(
        tmp_path,
        ["reduce", "--alpha", "power:2", "--beta", "zero", "--levels", "4",
         "--length", "128", "--out", "csv"],
        "reduce.csv",
    )
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert any("config" in c for c in comments)
    header = [line for line in lines if not line.startswith("#")][0]
    assert header.split(",") == [
        "n", "gap_to_prev", "overlap_bound", "eigenphase_norm",
        "overlap_product", "state_distance",
    ]
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 4


def test_cauchy_gaps_flags_reported(tmp_path):
    code, out = _run(
        tmp_path,
        ["cauchy-gaps", "--alpha", "harmonic", "--beta", "zero", "--levels", "6",
         "--max-span", "5"],
        "cg.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["spectral_agreement"] is True
    assert doc["summary"]["flagged_blocks"] >= 1
    assert any(row["exceeds_bound"] for row in doc["rows"])


def test_separation_crossing(tmp_path):
    code, out = _run(
        tmp_path,
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--levels", "10"],
        "sep.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["crossing_level"] == 4
    dist = [row["state_distance"] for row in doc["rows"]]
    assert all(b >= a - 1e-12 for a, b in zip(dist, dist[1:]))


def test_fsigma_search_small(tmp_path):
    code, out = _run(
        tmp_path,
        ["fsigma-search", "--dim", "2", "--pairs", "2", "--epsilon", "0.7",
         "--seed", "5"],
        "fs.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["all_found"] is True
    assert doc["summary"]["net_mode"] == "exhaustive"
    summary = list(doc["summary"])
    assert summary[summary.index("net_resolution") + 1] == "net_covering_radius"
    assert doc["summary"]["net_covering_radius"] == witness.exhaustive_net_plan(2, 0.7)[2] <= 0.7


def test_fsigma_search_random_net(tmp_path):
    code, out = _run(
        tmp_path,
        ["fsigma-search", "--dim", "4", "--pairs", "2", "--epsilon", "0.4",
         "--net", "random", "--net-size", "500", "--seed", "5"],
        "fs4.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["net_mode"] == "random"
    assert doc["summary"]["all_found"] is True
    assert doc["summary"]["net_covering_radius"] is None


def test_fsigma_search_random_net_density_uses_independent_probes(tmp_path):
    # probes drawn with the net's own seed are net elements, at distance 0
    argv = ["fsigma-search", "--dim", "2", "--pairs", "3", "--epsilon", "0.4",
            "--net", "random", "--net-size", "300", "--seed", "1",
            "--density-check", "--density-probes", "40"]
    code, out = _run(tmp_path, argv, "fsr.json")
    assert code == 0
    summary = _load(out)["summary"]
    assert summary["density_max_distance"] > 0.0
    assert summary["density_mean_distance"] > 0.0
    net = witness.random_net(2, 0.4, size=300, seed=1)
    probe_seed = derive_seeds(1, 3 + 2)[-1]
    probes = linalg.haar_unitary(2, np.random.default_rng(probe_seed), count=40)
    dists = witness._nearest(net, probes)[1]
    assert dists.min() > 0.0
    assert dists.max() == summary["density_max_distance"]


def test_fsigma_search_counts_witnesses_at_distance_one(tmp_path):
    # the test-net gap only bounds ||phi - psi o Ad u|| from below
    code, out = _run(
        tmp_path,
        ["fsigma-search", "--dim", "2", "--pairs", "50", "--epsilon", "0.4",
         "--seed", "3"],
        "far.json",
    )
    assert code == 0
    doc = _load(out)
    far = sum(row["norm_distance"] >= 1.0 for row in doc["rows"])
    assert doc["summary"]["found_distance_ge_1"] == far == 33
    assert all(row["gap"] < 1.0 and row["below_two"] for row in doc["rows"])


def test_product_test_families(tmp_path):
    code, out = _run(
        tmp_path,
        ["product-test", "--family", "telescoping", "--terms", "30"],
        "pt.json",
    )
    assert code == 0
    doc = _load(out)
    assert doc["summary"]["sandwich_holds"] is True
    assert doc["summary"]["max_exact_error"] <= 1e-12
    code, out = _run(
        tmp_path,
        ["product-test", "--family", "geometric", "--terms", "40"],
        "pt2.json",
    )
    doc = _load(out)
    assert doc["summary"]["floor_holds"] is True
    assert doc["summary"]["final_product"] >= 0.25


def test_exit_code_config_error(tmp_path):
    code = cli.main(["reduce", "--alpha", "bogus", "--beta", "zero",
                     "--output", str(tmp_path / "x.json")])
    assert code == 2
    code = cli.main(["reduce", "--alpha", "zero"])  # missing --beta
    assert code == 2


def _timed_main(argv):
    start = time.perf_counter()
    code = cli.main(argv)
    # a refusal comes before any net is built
    assert time.perf_counter() - start <= 1.0
    return code


def test_exit_code_size_limit(tmp_path, capsys):
    # no exhaustive net above dim 2
    for dim in ("4", "8"):
        out = tmp_path / "x.json"
        code = _timed_main(["fsigma-search", "--dim", dim, "--net", "exhaustive",
                            "--pairs", "1", "--output", str(out)])
        assert code == 3
        record = _only_error_record(capsys)
        assert record == {"error": "size-limit", "message": record["message"], "exit_code": 3}
        assert f"no exhaustive net at dim {dim}" in record["message"]
        assert not out.exists()


def test_random_net_over_size_cap_refused(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = cli.main(["fsigma-search", "--dim", "16", "--net", "random",
                     "--net-size", "100000000", "--output", str(out)])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "size-limit"
    assert record["estimated_size"] == 100000001
    assert not out.exists()


_HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--alpha", "zero", "--beta", "zero", "--length", _HUGE],
        ["separation", "--alpha", "zero", "--beta", "zero", "--search-limit", _HUGE],
        ["cauchy-gaps", "--alpha", "zero", "--beta", "zero", "--levels", _HUGE],
        ["product-test", "--family", "geometric", "--terms", _HUGE],
        ["fsigma-search", "--dim", "2", "--pairs", "1", "--epsilon", "0.9",
         "--density-check", "--density-probes", _HUGE],
    ],
    ids=lambda argv: argv[0],
)
def test_absurd_counts_are_size_limit_records(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert _timed_main(argv + ["--output", str(out)]) == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert record["exit_code"] == 3
    assert record["estimated_size"] == 1e20
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["min-distance", "--trials", _HUGE],
        ["product-distance", "--pairs", _HUGE],
        ["fsigma-search", "--dim", "2", "--epsilon", "0.9", "--pairs", _HUGE],
        ["fsigma-search", "--dim", "2", "--epsilon", "0.9", "--pairs", "1",
         "--test-elements", _HUGE],
    ],
    ids=["min-distance-trials", "product-distance-pairs", "fsigma-search-pairs",
         "fsigma-search-test-elements"],
)
def test_absurd_seed_and_test_element_counts_are_size_limit_records(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert _timed_main(argv + ["--output", str(out)]) == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert record["estimated_size"] == pytest.approx(1e20)
    assert not out.exists()


def test_count_past_float_range_refused_without_estimate(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = _timed_main(["product-test", "--family", "telescoping", "--terms", str(10**400),
                        "--output", str(out)])
    assert code == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert "estimated_size" not in record
    assert not out.exists()


def test_count_cap_boundary():
    assert config.check_count(config.MAX_COUNT, "count") == config.MAX_COUNT
    with pytest.raises(SizeLimitError):
        config.check_count(config.MAX_COUNT + 1, "count")


@pytest.mark.parametrize("command", ["reduce", "cauchy-gaps", "separation"])
def test_level_cap_is_a_size_limit_in_every_subcommand(tmp_path, capsys, command):
    out = tmp_path / "x.json"
    argv = [command, "--alpha", "zero", "--beta", "zero", "--levels", "13"]
    assert _timed_main(argv + ["--output", str(out)]) == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert record["estimated_size"] == 8192.0
    assert not out.exists()


@pytest.mark.parametrize(
    "command, levels",
    [("cauchy-gaps", "-1"), ("cauchy-gaps", "0"), ("reduce", "-2"), ("reduce", "0")],
)
def test_levels_below_one_name_the_level_rule(tmp_path, capsys, command, levels):
    # not the length the sequences were formed at (1 for cauchy-gaps, 400 for reduce)
    out = tmp_path / "x.json"
    argv = [command, "--alpha", "zero", "--beta", "zero", f"--levels={levels}"]
    assert cli.main(argv + ["--output", str(out)]) == 2
    assert _only_error_record(capsys) == {
        "error": "config",
        "message": f"a chain needs at least 1 level, got {levels}",
        "exit_code": 2,
    }
    assert not out.exists()


@pytest.mark.parametrize("command", ["min-distance", "product-distance"])
def test_low_budget_refused_before_any_draw(tmp_path, capsys, monkeypatch, command):
    def no_draw(*args, **kwargs):
        raise AssertionError("a vector was drawn before the budget was checked")

    monkeypatch.setattr(experiments, "random_unit_vector", no_draw)
    out = tmp_path / "x.json"
    argv = [command, "--budget", "10", "--output", str(out)]
    assert _timed_main(argv) == 2
    record = _only_error_record(capsys)
    assert record["error"] == "config"
    assert "budget must be at least 1000" in record["message"]
    assert not out.exists()


def test_density_probe_cap_refused_before_the_net_is_built(tmp_path, capsys, monkeypatch):
    def no_net(*args, **kwargs):
        raise AssertionError("the net was built before the probe count was checked")

    monkeypatch.setattr(experiments, "enumerate_net", no_net)
    out = tmp_path / "x.json"
    argv = ["fsigma-search", "--density-check", "--density-probes", str(config.MAX_COUNT + 1)]
    assert _timed_main(argv + ["--output", str(out)]) == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert record["estimated_size"] == config.MAX_COUNT + 1
    assert not out.exists()


def test_reduce_short_length_refused_before_the_chain_is_built(tmp_path, capsys, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain was built before the length was checked")

    monkeypatch.setattr(experiments, "build_chain", no_chain)
    out = tmp_path / "x.json"
    argv = ["reduce", "--alpha", "harmonic", "--beta", "zero", "--levels", "5", "--length", "5"]
    assert cli.main(argv + ["--output", str(out)]) == 2
    record = _only_error_record(capsys)
    assert record["error"] == "config"
    assert record["message"] == f"--length 5 is below the minimum of {sequences.MIN_TERMS} terms"
    assert not out.exists()


def test_parser_choice_lists_come_from_config():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def choices(command, dest):
        (action,) = [a for a in subs.choices[command]._actions if a.dest == dest]
        return action.choices

    assert choices("min-distance", "dim") is config.ORACLE_DIMS
    for command in ("reduce", "cauchy-gaps"):
        assert choices(command, "phase_policy") is config.PHASE_POLICIES


def test_parser_offers_every_product_family():
    # the parser names the families without importing the numpy-backed table
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (family,) = [a for a in subs.choices["product-test"]._actions if a.dest == "family"]
    assert tuple(family.choices) == tuple(experiments._FAMILIES)


def _only_error_record(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0], parse_constant=_reject_constant)


@pytest.mark.parametrize("argv, flag", [
    # the default dim-2 exhaustive net ignores --net-size: it ran and
    # echoed "net_size": -5 into its artifact
    (["fsigma-search", "--net-size", "-5", "--pairs", "1"], "--net-size"),
    (["fsigma-search", "--net", "random", "--net-size", "0", "--pairs", "1"], "--net-size"),
    # refused once numpy had loaded, as an "empty search window [0, 64]"
    (["separation", "--alpha", "zero", "--beta", "zero", "--start", "0"], "--start"),
])
def test_non_positive_count_flags_refused_before_numpy_loads(tmp_path, argv, flag):
    code = (
        "import contextlib, io, json, sys\n"
        "import carlab.cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = carlab.cli.main({argv + ['--output', 'x.json']!r})\n"
        "print(json.dumps({'code': code, 'err': err.getvalue(), 'numpy': 'numpy' in sys.modules}))\n"
    )
    result = _fresh(code, tmp_path)
    assert result["code"] == 2
    assert not result["numpy"]
    (line,) = result["err"].strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "config"
    assert f"argument {flag}: expected a positive integer" in record["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1.5"])
def test_bad_resolution_refused_before_numpy_loads(tmp_path, value):
    # refused only once numpy had loaded, by the net's own check
    argv = ["fsigma-search", "--epsilon", value, "--pairs", "1", "--output", "x.json"]
    code = (
        "import contextlib, io, json, sys\n"
        "import carlab.cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = carlab.cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'err': err.getvalue(), 'numpy': 'numpy' in sys.modules}))\n"
    )
    result = _fresh(code, tmp_path)
    assert result["code"] == 2
    assert not result["numpy"]
    (line,) = result["err"].strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "config"
    assert f"argument --epsilon: expected a net resolution in (0, 1], got {value}" in record["message"]
    assert not (tmp_path / "x.json").exists()


def test_exhaustive_net_count_beyond_float_refused(tmp_path, capsys):
    # no exhaustive net above dim 2, however its count would be put
    out = tmp_path / "x.json"
    code = _timed_main(["fsigma-search", "--dim", "16", "--net", "exhaustive",
                        "--pairs", "1", "--output", str(out)])
    assert code == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert "estimated_size" not in record
    assert "no exhaustive net at dim 16" in record["message"]
    assert not out.exists()


def test_subnormal_resolution_refused(tmp_path, capsys):
    # over 8 (sqrt(3) / epsilon)^3 elements: refused before any n is tried
    out = tmp_path / "x.json"
    code = _timed_main(["fsigma-search", "--dim", "2", "--net", "exhaustive",
                        "--epsilon", "1e-320", "--pairs", "1", "--output", str(out)])
    assert code == 3
    record = _only_error_record(capsys)
    assert record["error"] == "size-limit"
    assert record["exit_code"] == 3
    assert "estimated_size" not in record
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, kind, code",
    [
        (MemoryError("Unable to allocate 1.00 TiB"), "size-limit", 3),
        (np.linalg.LinAlgError("Eigenvalues did not converge"), "numerical-invariant", 4),
    ],
)
def test_runtime_failures_become_error_records(tmp_path, monkeypatch, capsys, exc, kind, code):
    def failing(args):
        raise exc

    monkeypatch.setattr(experiments, "run_product_test", failing)
    out = tmp_path / "x.json"
    assert cli.main(["product-test", "--family", "geometric", "--output", str(out)]) == code
    record = _only_error_record(capsys)
    assert record == {"error": kind, "message": str(exc), "exit_code": code}
    assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize(
    "argv",
    [
        ["min-distance", "--trials", "2", "--budget", "1000"],
        ["product-distance", "--pairs", "1", "--budget", "1000"],
        ["reduce", "--alpha", "harmonic", "--beta", "zero", "--levels", "4",
         "--length", "64"],
        ["cauchy-gaps", "--alpha", "harmonic", "--beta", "zero", "--levels", "4"],
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--levels", "4"],
        ["fsigma-search", "--pairs", "2", "--epsilon", "0.9", "--density-check",
         "--density-probes", "3"],
        ["product-test", "--family", "telescoping"],
        ["min-distance", "--dim", "4", "--trials", "5", "--seed", "7"],
    ],
)
def test_artifacts_are_strict_json(tmp_path, argv):
    code, out = _run(tmp_path, argv, "strict.json")
    assert code == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["experiment"] == argv[0]
    # a float column holding an integral value must not read back as an int
    for key in doc["rows"][0]:
        types = {type(row[key]) for row in doc["rows"] if row[key] is not None}
        assert len(types) == 1, (key, types)


def test_exit_code_io_error(tmp_path):
    code = cli.main(["product-test", "--family", "telescoping", "--terms", "5",
                     "--output", str(tmp_path / "missing" / "x.json")])
    assert code == 5


def test_exit_code_numerical_invariant(tmp_path, monkeypatch, capsys):
    from carlab.errors import NumericalInvariantError

    def broken(args):
        raise NumericalInvariantError("drift beyond tolerance")

    monkeypatch.setattr(experiments, "run_product_test", broken)
    code = cli.main(["product-test", "--family", "geometric",
                     "--output", str(tmp_path / "x.json")])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "numerical-invariant"


def test_float_text_is_shortest_round_trip(tmp_path):
    _, out = _run(
        tmp_path,
        ["product-test", "--family", "telescoping", "--terms", "3"],
        "fmt.json",
    )
    text = out.read_text()
    assert '"exact": 0.3333333333333333\n' in text
    assert json.loads(text)["rows"][1]["exact"] == 1.0 / 3.0


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code = cli.main(["product-test", "--family", "telescoping", "--terms", "5"])
    assert code == 0
    assert (tmp_path / "product_test.json").exists()


def test_rerun_byte_identical(tmp_path):
    argv = ["reduce", "--alpha", "power:2", "--beta", "zero", "--levels", "4",
            "--length", "64", "--seed", "9"]
    _, first = _run(tmp_path, argv, "a.json")
    _, second = _run(tmp_path, argv, "b.json")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["min-distance"], ["dim", "trials", "budget"]),
        (["product-distance"], ["pairs", "budget"]),
        (["reduce", "--alpha", "zero", "--beta", "zero"],
         ["alpha", "beta", "levels", "length", "phase_policy"]),
        (["cauchy-gaps", "--alpha", "zero", "--beta", "zero"],
         ["alpha", "beta", "levels", "max_span", "phase_policy"]),
        (["separation", "--alpha", "zero", "--beta", "zero"],
         ["alpha", "beta", "start", "levels", "threshold", "search_limit"]),
        (["fsigma-search"],
         ["dim", "pairs", "epsilon", "net", "net_size", "test_elements",
          "density_check", "density_probes"]),
        (["product-test", "--family", "geometric"], ["family", "terms"]),
    ],
)
def test_config_key_order(argv, keys):
    args = cli.build_parser().parse_args(argv + ["--out", "csv", "--seed", "3"])
    config = cli._config_dict(args)
    assert list(config) == ["version", "format", "seed"] + keys
    assert config["format"] == "csv"
    assert config["seed"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["product-distance", "--pairs", "0"],
        ["min-distance", "--trials", "-3"],
        ["min-distance", "--trials", "two"],
        ["fsigma-search", "--pairs", "0"],
        ["fsigma-search", "--density-check", "--density-probes", "0"],
        ["cauchy-gaps", "--alpha", "harmonic", "--beta", "zero", "--max-span", "0"],
        ["cauchy-gaps", "--alpha", "harmonic", "--beta", "zero", "--levels", "1"],
        ["product-test", "--family", "geometric", "--terms", "0"],
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--threshold", "nan"],
        # fewer terms than the classifier's two dyadic blocks need
        ["reduce", "--alpha", "zero", "--beta", "zero", "--levels", "3", "--length", "15"],
        # the classifier has no knobs left: a removed flag is refused, not ignored
        ["reduce", "--alpha", "zero", "--beta", "zero", "--sum-tolerance", "1e-6"],
        ["reduce", "--alpha", "zero", "--beta", "zero", "--no-such-flag"],
        ["fsigma-search", "--test-elements", "-3"],
        ["reduce", "--alpha", "power:x", "--beta", "zero"],
        ["reduce", "--alpha", "zero", "--beta", "zero", "--levels", "3", "--length", "-5"],
        ["reduce", "--alpha", "zero", "--beta", "zero", "--levels", "3",
         "--length", "2"],
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--search-limit", "-1"],
        ["separation", "--alpha", "invsqrt", "--beta", "zero", "--start", "5",
         "--search-limit", "4"],
    ],
)
def test_bad_input_rejected_with_json_record(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert cli.main(argv + ["--output", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert record["exit_code"] == 2
    assert not out.exists()


@pytest.mark.parametrize("exponent", ["inf", "1e400", "-inf", "nan"])
def test_non_finite_power_exponent_refused(tmp_path, capsys, exponent):
    # power:inf and power:1e400 ran as the sequence (1, 0, 0, ...)
    out = tmp_path / "r.json"
    argv = ["reduce", "--alpha", f"power:{exponent}", "--beta", "zero", "--output", str(out)]
    assert cli.main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert record["message"] == f"power descriptor exponent must be finite, got {exponent}"
    assert not out.exists()


def test_undecodable_angle_file_is_config_record(tmp_path, capsys):
    angles = tmp_path / "angles.txt"
    angles.write_bytes(b"\xff\xfe")
    out = tmp_path / "r.json"
    argv = ["reduce", "--alpha", f"file:{angles}", "--beta", "zero", "--output", str(out)]
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "config" and str(angles) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["2", "2.5", "-1", "-0.5"])
def test_separation_vacuous_threshold_refused(tmp_path, capsys, threshold):
    # distances lie in [0, 2]: none exceeds 2, every one exceeds -1
    out = tmp_path / "s.json"
    argv = ["separation", "--alpha", "invsqrt", "--beta", "zero",
            f"--threshold={threshold}", "--output", str(out)]
    assert cli.main(argv) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config" and "threshold" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fsigma-search", "--net", "random", "--pairs", "1", "--seed", "-1"],
        ["fsigma-search", "--net", "random", "--pairs", "1", "--seed", str(2**64)],
        ["reduce", "--alpha", "random:0.3:-1", "--beta", "zero"],
        ["cauchy-gaps", "--alpha", "zero", "--beta", "random:0.3:-7"],
        # the seed stream is 64-bit: 2^64 would run as seed 0, -1 as 2^64 - 1
        ["min-distance", "--trials", "1", "--seed", str(2**64)],
        ["min-distance", "--trials", "1", "--seed", "-1"],
    ],
)
def test_bad_seed_rejected_with_one_line_record(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    assert cli.main(argv + ["--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "config"
    assert "seed" in record["message"]
    assert not out.exists()


def test_largest_seed_runs_and_is_echoed(tmp_path):
    out = tmp_path / "x.json"
    seed = 2**64 - 1
    argv = ["min-distance", "--trials", "1", "--seed", str(seed), "--output", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["config"]["seed"] == seed


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_value_is_invariant_error(tmp_path, monkeypatch, capsys, fmt, bad):
    def non_finite(args):
        return [{"term": 1, "value": 0.5}], {"final_product": bad}

    monkeypatch.setattr(experiments, "run_product_test", non_finite)
    out = tmp_path / f"x.{fmt}"
    code = cli.main(["product-test", "--family", "geometric", "--out", fmt,
                     "--output", str(out)])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "numerical-invariant"
    assert not out.exists()


_SHORT_FILE_RUNS = [
    # 64 is the default --search-limit, a length the command line never gave
    (["separation", "--levels", "3"], "need 64 (--search-limit)"),
    (["separation", "--start", "4", "--levels", "7", "--search-limit", "5"],
     "need 10 (--start + --levels - 1)"),
    (["reduce", "--levels", "3", "--length", "16"], "need 16 (--length)"),
    (["cauchy-gaps", "--levels", "6"], "need 6 (--levels)"),
]


@pytest.mark.parametrize("argv, need", _SHORT_FILE_RUNS)
def test_short_angle_file_refusal_names_the_length_flag(tmp_path, capsys, argv, need):
    angles = tmp_path / "angles.txt"
    angles.write_text("0.1\n" * 5)
    out = tmp_path / "x.json"
    argv = argv + ["--alpha", f"file:{angles}", "--beta", "zero", "--output", str(out)]
    assert cli.main(argv) == 2
    record = _only_error_record(capsys)
    assert record["error"] == "config"
    assert record["message"] == f"angle file holds 5 values, {need}"
    assert not out.exists()
    if need.endswith("(--search-limit)"):  # the file holds all the run needs
        assert cli.main(argv + ["--search-limit", "5"]) == 0
