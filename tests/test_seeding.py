import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import config
from carlab.errors import InvalidInputError, SizeLimitError
from carlab.seeding import derive_seeds
from reference import derive_seeds_by_loop


@pytest.mark.parametrize("root", [0, 1, 7, 3000, 2**63 + 5, 2**64 - 1])
def test_derive_seeds_matches_the_loop(root):
    seeds = derive_seeds(root, 5000)
    assert seeds == derive_seeds_by_loop(root, 5000)
    assert all(type(seed) is int for seed in seeds)


@settings(deadline=None, max_examples=100)
@given(root=st.integers(0, 2**64 - 1), count=st.integers(0, 64))
def test_derive_seeds_prefixes_agree(root, count):
    seeds = derive_seeds(root, count)
    assert seeds == derive_seeds_by_loop(root, count)
    assert seeds == derive_seeds(root, count + 5)[:count]


def test_derive_seeds_refuses_before_work():
    assert derive_seeds(5, 0) == []
    with pytest.raises(SizeLimitError):
        derive_seeds(5, config.MAX_COUNT + 1)
    with pytest.raises(SizeLimitError):
        derive_seeds(5, 10**20)
    with pytest.raises(InvalidInputError):
        derive_seeds(2**64, 1)
