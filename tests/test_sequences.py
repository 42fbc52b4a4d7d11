import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import sequences
from carlab.errors import DomainError, InvalidInputError
from reference import write_angle_file


def test_validate_rejects_boundary():
    with pytest.raises(DomainError):
        sequences.validate_angles([0.0, np.pi / 2])
    with pytest.raises(DomainError):
        sequences.validate_angles([-np.pi / 2])


def test_l2_partial_sums_examples():
    alpha = 1.0 / np.arange(1, 4)
    sums = sequences.l2_partial_sums(alpha, np.zeros(3))
    assert sums[-1] == pytest.approx(49.0 / 36.0, abs=1e-15)
    assert np.all(np.diff(sums) >= 0)
    same = sequences.l2_partial_sums(alpha, alpha)
    np.testing.assert_array_equal(same, np.zeros(3))


def test_l2_partial_sums_harmonic_divergence():
    alpha = 1.0 / np.sqrt(np.arange(1, 201))
    sums = sequences.l2_partial_sums(alpha, np.zeros(200))
    harmonic = np.cumsum(1.0 / np.arange(1, 201))
    np.testing.assert_allclose(sums, harmonic, rtol=1e-12)


def test_l2_length_mismatch():
    with pytest.raises(InvalidInputError):
        sequences.l2_partial_sums([0.1], [0.1, 0.2])


def test_overlap_partial_products_examples():
    alpha = np.array([0.5, -0.2, 0.3])
    ones = sequences.overlap_partial_products(alpha, alpha)
    np.testing.assert_allclose(ones, np.ones(3))
    single = sequences.overlap_partial_products(np.array([0.3]), np.zeros(1))
    assert single[-1] == pytest.approx(np.cos(0.3), abs=1e-15)


def test_overlap_products_dyadic_floor():
    theta = 2.0 ** -np.arange(1.0, 21.0)
    prods = sequences.overlap_partial_products(theta, np.zeros(20))
    assert np.all(np.diff(prods) <= 1e-15)
    assert prods[-1] >= 5.0 / 6.0


def test_partial_products_track_signs_and_zeros():
    got = sequences.partial_products([0.5, -2.0, 0.0, 3.0])
    np.testing.assert_allclose(got, [0.5, -1.0, 0.0, 0.0], atol=1e-15)


def test_partial_products_log_space_accuracy():
    factors = np.full(20_000, np.cos(0.3))
    logs = sequences.log_abs_partial_products(factors)
    assert abs(logs[-1] - 20_000 * np.log(np.cos(0.3))) <= 1e-9
    # the float product underflows to zero but the log value stays exact
    assert sequences.partial_products(factors)[-1] == 0.0
    assert np.isfinite(logs[-1])


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 50))
def test_weierstrass_sandwich(seed, size):
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.0, 1.0, size=size)
    lower, upper = sequences.weierstrass_bounds(factors)
    prods = sequences.partial_products(factors)
    assert np.all(prods >= lower - 1e-12)
    assert np.all(prods <= upper + 1e-12)


@settings(deadline=None, max_examples=200)
@given(theta=st.floats(-np.pi, np.pi))
def test_half_angle_identity(theta):
    assert abs((1 - np.cos(theta)) - 2 * np.sin(theta / 2) ** 2) <= 1e-14


def test_half_angle_sums_match_l2_scale():
    rng = np.random.default_rng(0)
    alpha = rng.uniform(-0.1, 0.1, size=50)
    half = sequences.half_angle_partial_sums(alpha, np.zeros(50))
    l2 = sequences.l2_partial_sums(alpha, np.zeros(50))
    # sin^2(x/2) = x^2/4 - O(x^4); gaps below 0.1 leave a 1e-3 relative tail
    assert abs(half[-1] - l2[-1] / 4.0) <= 1e-3 * l2[-1]


def test_classify_pair_p_series_converges():
    alpha = sequences.angles_from_descriptor("power:2", 400)
    beta = sequences.angles_from_descriptor("zero", 400)
    diag = sequences.classify_pair(alpha, beta)
    assert diag.classification == sequences.EQUIVALENT
    assert diag.product_positive and diag.l2_converging and diag.half_angle_converging


def test_classify_pair_invsqrt_diverges():
    alpha = sequences.angles_from_descriptor("invsqrt", 400)
    beta = sequences.angles_from_descriptor("zero", 400)
    diag = sequences.classify_pair(alpha, beta)
    assert diag.classification == sequences.INEQUIVALENT


def test_classify_pair_equal_sequences():
    alpha = sequences.angles_from_descriptor("harmonic", 64)
    diag = sequences.classify_pair(alpha, alpha)
    assert diag.classification == sequences.EQUIVALENT
    assert diag.l2_total == 0.0
    assert diag.overlap_product == pytest.approx(1.0)


def test_classify_pair_is_symmetric():
    rng = np.random.default_rng(1)
    alpha = rng.uniform(-0.4, 0.4, size=64)
    beta = rng.uniform(-0.4, 0.4, size=64)
    a = sequences.classify_pair(alpha, beta)
    b = sequences.classify_pair(beta, alpha)
    assert a == b


def test_classify_pair_minimum_length():
    with pytest.raises(InvalidInputError):
        sequences.classify_pair([0.1] * 4, [0.0] * 4)


def test_descriptors():
    np.testing.assert_array_equal(sequences.angles_from_descriptor("zero", 3), np.zeros(3))
    np.testing.assert_allclose(
        sequences.angles_from_descriptor("harmonic", 3), [1.0, 0.5, 1 / 3]
    )
    np.testing.assert_allclose(
        sequences.angles_from_descriptor("invsqrt", 2), [1.0, 1 / np.sqrt(2)]
    )
    np.testing.assert_allclose(
        sequences.angles_from_descriptor("power:1.5", 2), [1.0, 2.0**-1.5]
    )
    r1 = sequences.angles_from_descriptor("random:0.3:11", 20)
    r2 = sequences.angles_from_descriptor("random:0.3:11", 20)
    np.testing.assert_array_equal(r1, r2)
    assert np.max(np.abs(r1)) < 0.3


def test_descriptor_errors():
    with pytest.raises(InvalidInputError):
        sequences.angles_from_descriptor("nope", 3)
    with pytest.raises(InvalidInputError):
        sequences.angles_from_descriptor("power:x", 3)
    with pytest.raises(DomainError):
        sequences.angles_from_descriptor("random:2.0:1", 3)


def test_angle_file_roundtrip(tmp_path):
    path = tmp_path / "angles.txt"
    values = np.array([0.25, -0.125, 1.5])
    write_angle_file(path, values)
    back = sequences.angles_from_descriptor(f"file:{path}", 3)
    np.testing.assert_array_equal(back, values)
    with pytest.raises(InvalidInputError):
        sequences.angles_from_descriptor(f"file:{path}", 4)
