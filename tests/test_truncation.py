import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import linalg, truncation
from carlab.errors import DomainError, LevelError, SizeLimitError
from reference import level_dim


def test_level_bookkeeping():
    assert level_dim(3) == 8
    assert truncation.level_of_dim(16) == 4
    with pytest.raises(LevelError):
        truncation.level_of_dim(12)
    with pytest.raises(SizeLimitError):
        truncation.check_level(13)


@pytest.mark.parametrize("n, size", [(13, 8192), (1023, 2**1023), (2000, np.inf), (10**100, np.inf)])
def test_level_past_the_cap_is_a_size_limit(n, size):
    # 2^n is formed only once n is known to fit a float
    with pytest.raises(SizeLimitError) as info:
        truncation.check_level(n)
    assert info.value.estimated_size == size


@pytest.mark.parametrize("n, size", [(13, 8192), (2000, np.inf)])
def test_product_vector_past_the_level_cap_is_a_size_limit(n, size):
    with pytest.raises(SizeLimitError) as info:
        truncation.product_vector(np.zeros(n))
    assert info.value.estimated_size == size


def test_embed_identity_cases():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_array_equal(truncation.embed(a, 1), a)
    np.testing.assert_allclose(truncation.embed(np.eye(2), 3), np.eye(8))


def test_embed_preserves_norm():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(
        linalg.operator_norm(truncation.embed(a, 3)) - linalg.operator_norm(a)
    ) <= 1e-12


def test_embed_multiplicative_and_transitive():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = truncation.embed(a @ b, 3)
    rhs = truncation.embed(a, 3) @ truncation.embed(b, 3)
    assert np.linalg.norm(lhs - rhs) <= 1e-12
    np.testing.assert_array_equal(
        truncation.embed(truncation.embed(a, 2), 4), truncation.embed(a, 4)
    )


def test_embed_rejects_downward():
    with pytest.raises(LevelError):
        truncation.embed(np.eye(8), 2)


def test_product_vector_base_cases():
    out = truncation.product_vector([0.0, 0.0, 0.0])
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-15)
    single = truncation.product_vector([0.4])
    np.testing.assert_allclose(single, [np.cos(0.4), np.sin(0.4)], atol=1e-15)


def test_product_vector_overlap_example():
    left = truncation.product_vector([0.1, 0.2])
    right = truncation.product_vector([0.3, 0.5])
    got = np.vdot(left, right)
    assert abs(got - np.cos(0.2) * np.cos(0.3)) <= 1e-12


def test_product_vector_rejects_boundary_angle():
    with pytest.raises(DomainError):
        truncation.product_vector([np.pi / 2])


def test_product_vector_cap():
    with pytest.raises(SizeLimitError):
        truncation.product_vector([0.1] * 13)


@settings(deadline=None, max_examples=60)
@given(
    angles_a=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=12),
    seed=st.integers(0, 2**31),
)
def test_overlap_factorization(angles_a, seed):
    rng = np.random.default_rng(seed)
    angles_b = rng.uniform(-1.5, 1.5, size=len(angles_a))
    left = truncation.product_vector(angles_a)
    right = truncation.product_vector(angles_b)
    expected = np.prod(np.cos(np.asarray(angles_a) - angles_b))
    assert abs(np.vdot(left, right) - expected) <= 1e-10


def test_embedded_elements_see_only_leading_angles():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    angles = rng.uniform(-1.0, 1.0, size=6)
    low = truncation.product_vector(angles[:2])
    full = truncation.product_vector(angles)
    value_low = np.vdot(low, a @ low)
    value_full = np.vdot(full, truncation.embed(a, 6) @ full)
    assert abs(value_low - value_full) <= 1e-12
