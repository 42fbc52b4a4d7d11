import tracemalloc

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
    alpha = np.zeros(16)
    alpha[:3] = 1.0 / np.arange(1, 4)
    total = sequences.classify_pair(alpha, np.zeros(16)).l2_total
    assert total == pytest.approx(49.0 / 36.0, abs=1e-15)
    assert sequences.classify_pair(alpha, alpha).l2_total == 0.0


def test_l2_partial_sums_harmonic_divergence():
    alpha = 1.0 / np.sqrt(np.arange(1, 201))
    total = sequences.classify_pair(alpha, np.zeros(200)).l2_total
    harmonic = np.cumsum(1.0 / np.arange(1, 201))
    np.testing.assert_allclose(total, harmonic[-1], rtol=1e-12)


def test_l2_length_mismatch():
    with pytest.raises(InvalidInputError):
        sequences.classify_pair([0.1] * 16, [0.1] * 17)


def _overlap_products(alpha, beta):
    signs, logs = sequences.cosine_products(alpha - beta)
    return signs * np.exp(logs)


def test_overlap_partial_products_examples():
    alpha = np.array([0.5, -0.2, 0.3])
    ones = _overlap_products(alpha, alpha)
    np.testing.assert_allclose(ones, np.ones(3))
    single = _overlap_products(np.array([0.3]), np.zeros(1))
    assert single[-1] == pytest.approx(np.cos(0.3), abs=1e-15)


def test_overlap_products_dyadic_floor():
    theta = 2.0 ** -np.arange(1.0, 21.0)
    prods = _overlap_products(theta, np.zeros(20))
    assert np.all(np.diff(prods) <= 1e-15)
    assert prods[-1] >= 5.0 / 6.0


def test_partial_products_track_signs_and_zeros():
    got = sequences.partial_products([0.5, -2.0, 0.0, 3.0])
    np.testing.assert_allclose(got, [0.5, -1.0, 0.0, 0.0], atol=1e-15)


def test_partial_products_log_space_accuracy():
    alpha = np.full(20_000, 0.3)
    log_prod = sequences.classify_pair(alpha, np.zeros(20_000)).log_overlap_product
    assert abs(log_prod - 20_000 * np.log(np.cos(0.3))) <= 1e-9
    # the float product underflows to zero but the log value stays exact
    assert sequences.partial_products(np.cos(alpha))[-1] == 0.0
    assert np.isfinite(log_prod)


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
    diag = sequences.classify_pair(alpha, np.zeros(50))
    half, l2 = diag.half_angle_total, diag.l2_total
    # sin^2(x/2) = x^2/4 - O(x^4); gaps below 0.1 leave a 1e-3 relative tail
    assert abs(half - l2 / 4.0) <= 1e-3 * l2


def test_classify_pair_p_series_converges():
    alpha = sequences.angles_from_descriptor("power:2", 400)
    beta = sequences.angles_from_descriptor("zero", 400)
    diag = sequences.classify_pair(alpha, beta)
    assert diag.classification == sequences.EQUIVALENT
    for ratio in _ratios(diag):
        assert ratio <= 1.0 - sequences.CONVERGENCE_MARGIN


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
    assert _ratios(diag) == [0.0, 0.0, 0.0]


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
    with pytest.raises(InvalidInputError):
        sequences.classify_pair([0.1] * 15, [0.0] * 15)
    assert sequences.classify_pair([0.1] * 16, [0.0] * 16).classification == sequences.INEQUIVALENT


def _ratios(diag):
    return [diag.l2_block_ratio, diag.half_angle_block_ratio, diag.log_product_block_ratio]


def _classify(descriptor, length, beta="zero"):
    return sequences.classify_pair(
        sequences.angles_from_descriptor(descriptor, length),
        sequences.angles_from_descriptor(beta, length),
    )


@pytest.mark.parametrize("length", [400, 4000])
@pytest.mark.parametrize(
    "descriptor, verdict",
    [
        ("harmonic", sequences.EQUIVALENT),
        ("power:0.75", sequences.EQUIVALENT),
        ("power:2", sequences.EQUIVALENT),
        # sum n^-1.1 converges, though its running product is below 0.05 at n = 4000
        ("power:0.55", sequences.EQUIVALENT),
        ("zero", sequences.EQUIVALENT),
        ("invsqrt", sequences.INEQUIVALENT),
        ("power:0.45", sequences.INEQUIVALENT),
        ("random:0.3:1", sequences.INEQUIVALENT),
    ],
)
def test_classify_pair_known_verdicts(descriptor, verdict, length):
    assert _classify(descriptor, length).classification == verdict


@pytest.mark.parametrize(
    "descriptor, ratio",
    [("harmonic", 0.497), ("power:0.75", 0.704), ("power:0.6", 0.868), ("invsqrt", 0.997),
     ("power:0.45", 1.069), ("random:0.3:1", 2.176), ("power:2", 0.123)],
)
def test_l2_block_ratios_at_400(descriptor, ratio):
    # blocks [128, 256) over [64, 128); a power n^-p tends to 2^(1 - 2p)
    assert _classify(descriptor, 400).l2_block_ratio == pytest.approx(ratio, abs=5e-4)


# below 0.48 or above 0.54 the verdict is the true one; inside, n^-p is
# too close to the harmonic rate to be told from it at these lengths, and
# within 2^-K above 1/2 it can pass for divergent (K of the last block)
_BAND = (0.48, 0.54)


@settings(deadline=None, max_examples=200)
@given(p=st.floats(0.0, 4.0), length=st.integers(16, 5000))
def test_classify_pair_power_sweep(p, length):
    verdict = _classify(f"power:{p!r}", length).classification
    truth = sequences.EQUIVALENT if p > 0.5 else sequences.INEQUIVALENT
    if not _BAND[0] <= p <= _BAND[1]:
        assert verdict == truth
    elif not 0.5 < p < 0.5 + 2.0 ** -((length + 1).bit_length() - 2):
        assert verdict in (truth, sequences.INCONCLUSIVE)


@settings(deadline=None, max_examples=50)
@given(
    scale=st.floats(1e-6, 1.57),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1023, 4096),
)
def test_classify_pair_random_sweep(scale, seed, length):
    # the last two blocks hold at least 256 and 512 terms, whose sums
    # stay near 1 : 2
    diag = _classify(f"random:{scale!r}:{seed}", length)
    assert diag.classification == sequences.INEQUIVALENT


def test_classify_pair_difference_ending():
    # alpha = beta from n = 40 on: the last block [32, 64) holds 8 nonzero terms
    alpha = sequences.angles_from_descriptor("harmonic", 100)
    alpha[39:] = 0.0
    diag = sequences.classify_pair(alpha, np.zeros(100))
    assert diag.classification == sequences.EQUIVALENT
    alpha[31:] = 0.0
    diag = sequences.classify_pair(alpha, np.zeros(100))
    assert diag.classification == sequences.EQUIVALENT
    assert _ratios(diag) == [0.0, 0.0, 0.0]


def test_classify_pair_zero_block_before_nonzero():
    # blocks [16, 32) zero and [32, 64) not: an unbounded ratio, read as diverging
    alpha = np.zeros(64)
    alpha[40] = 0.2
    diag = sequences.classify_pair(alpha, np.zeros(64))
    assert diag.classification == sequences.INEQUIVALENT
    assert _ratios(diag) == [None, None, None]
    # nor does a nonzero term before them change the reading
    alpha[0] = 0.2
    diag = sequences.classify_pair(alpha, np.zeros(64))
    assert diag.classification == sequences.INEQUIVALENT
    assert _ratios(diag) == [None, None, None]


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


@pytest.mark.parametrize("descriptor", ["zero", "random:0.3:5"])
def test_descriptor_peak_memory_is_its_result(descriptor):
    # no index array n = 1..length where the values do not use it
    tracemalloc.start()
    try:
        values = sequences.angles_from_descriptor(descriptor, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * values.nbytes


def test_angle_file_roundtrip(tmp_path):
    path = tmp_path / "angles.txt"
    values = np.array([0.25, -0.125, 1.5])
    write_angle_file(path, values)
    back = sequences.angles_from_descriptor(f"file:{path}", 3)
    np.testing.assert_array_equal(back, values)
    with pytest.raises(InvalidInputError):
        sequences.angles_from_descriptor(f"file:{path}", 4)
