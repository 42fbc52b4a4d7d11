"""Distances from overlaps at their edges, against 50-digit references.

The angles sit in [1e-15, 1e-3] and within that range of pi/2, where
1 - cos t cancels and cos t may round to 1 or to a few ulps above 0.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mp
from carlab import cli, linalg, orbit, sequences

EPS = np.finfo(float).eps

_edge = st.floats(-15.0, -3.0).map(lambda e: 10.0**e)
# small angles of either sign, and angles within the same range of pi/2 on either side
_edge_angles = st.tuples(_edge, st.sampled_from(["small", "-small", "below", "above"])).map(
    lambda pair: {
        "small": pair[0],
        "-small": -pair[0],
        "below": np.pi / 2 - pair[0],
        "above": np.pi / 2 + pair[0],
    }[pair[1]]
)


def _tilted_pair(dim, theta, rng):
    """xi and a phase times a stored vector at angle theta from xi's line."""
    xi = linalg.random_unit_vector(dim, rng)
    w = linalg.random_unit_vector(dim, rng)
    w = w - np.vdot(xi, w) * xi
    w /= np.linalg.norm(w)
    eta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * (np.cos(theta) * xi + np.sin(theta) * w)
    return xi, eta


@settings(deadline=None, max_examples=150)
@given(
    dim=st.integers(2, 4),
    thetas=st.lists(_edge_angles.map(abs), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_min_distance_on_vectors_within_4_eps_of_50_digits(dim, thetas, seed):
    rng = np.random.default_rng(seed)
    xis, etas = zip(*(_tilted_pair(dim, t, rng) for t in thetas))
    report = orbit.product_min_distance(list(xis), list(etas))
    p, chord = reference_mp.product_closed_forms(xis, etas)
    assert abs(report.distance_single - float(chord)) <= 4 * EPS
    assert abs(report.overlap_product - float(p)) <= 4 * EPS
    assert report.distance_doubled == 2.0 * report.distance_single


@settings(deadline=None, max_examples=150)
@given(thetas=st.lists(_edge_angles, min_size=1, max_size=12))
def test_cosine_product_distances_within_4_eps_relative_of_50_digits(thetas):
    signs, logs = sequences.cosine_products(thetas)
    chords = sequences.chord_distances(signs, logs)
    traces = sequences.trace_distances(logs)
    products = reference_mp.cosine_products(thetas)
    log_products = reference_mp.log_cosine_products(thetas)
    for n, (p, log_p) in enumerate(zip(products, log_products)):
        chord = float(reference_mp.chord_distance(p))
        trace = float(reference_mp.trace_distance(p))
        assert abs(chords[n] - chord) <= 4 * EPS * chord
        assert abs(traces[n] - trace) <= 4 * EPS * trace
        # a running sum of n + 1 logs, each within 3 eps relative
        assert abs(logs[n] - float(log_p)) <= (3 + n) * EPS * abs(float(log_p))
        # exp(L) turns the absolute error of L into a relative one
        value = signs[n] * np.exp(logs[n])
        assert abs(value - float(p)) <= 4 * EPS * (1 + (3 + n) * abs(float(log_p))) * abs(float(p))


@pytest.mark.parametrize("theta", [1e-8, 1e-10])
def test_single_pair_closed_form_below_cosine_rounding(theta):
    # cos theta rounds to 1 here, where 1 - |<xi|eta>| would round the distance to 0
    xi, eta = np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])
    report = orbit.product_min_distance([xi], [eta])
    assert abs(report.distance_single - theta) <= 4 * EPS * theta


def test_log_product_block_ratio_of_power_2():
    alpha = sequences.angles_from_descriptor("power:2", 400)
    ratio = sequences.classify_pair(alpha, np.zeros(400)).log_product_block_ratio
    assert abs(ratio - 0.12344466475286044) <= 1e-15
    assert abs(ratio - float(reference_mp.log_cosine_block_ratio(alpha))) <= 1e-15


def _run(tmp_path, argv):
    out = tmp_path / "artifact.json"
    code = cli.main(argv + ["--output", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None)


def _assert_bound_is_eigenphase_norm(value, norm):
    # a span-1 gap equals its bound exactly; both come from the one angle
    assert value > 0.0
    assert abs(value - norm) <= 2 * EPS * norm


def test_span_1_block_bounds_survive_cosine_rounding(tmp_path):
    # from block (9, 10) on cos theta rounds to 1, where 1 - prod cos is 0
    argv = ["--alpha", "power:8", "--beta", "zero", "--levels", "12"]
    code, doc = _run(tmp_path, ["cauchy-gaps", *argv, "--max-span", "1"])
    assert code == 0
    assert doc["summary"]["flagged_blocks"] == 0
    for row in doc["rows"]:
        _assert_bound_is_eigenphase_norm(row["overlap_bound"], row["eigenphase_norm"])
    code, doc = _run(tmp_path, ["reduce", *argv, "--length", "16"])
    assert code == 0
    for row in doc["rows"]:
        _assert_bound_is_eigenphase_norm(row["overlap_bound"], row["eigenphase_norm"])


def test_separation_duality_holds_below_cosine_rounding(tmp_path):
    # a dense distance of 2e-8 where cos theta rounds to 1 and 1 - P^2 to 0
    code, doc = _run(
        tmp_path,
        ["separation", "--alpha", "power:8", "--beta", "zero", "--start", "10",
         "--levels", "3", "--search-limit", "4000"],
    )
    assert code == 0
    assert doc["rows"][0]["state_distance"] == pytest.approx(2e-8, rel=1e-6)


def test_crossing_level_sees_distances_below_cosine_rounding(tmp_path):
    code, doc = _run(
        tmp_path,
        ["separation", "--alpha", "power:8", "--beta", "zero", "--start", "20",
         "--levels", "3", "--threshold", "1e-12", "--search-limit", "4000"],
    )
    assert code == 0
    assert doc["rows"][0]["state_distance"] > 1e-12
    assert doc["summary"]["crossing_level"] == 20
