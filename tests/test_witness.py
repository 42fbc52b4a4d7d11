import numpy as np
import pytest

from carlab import linalg, witness
from carlab.errors import DomainError, InvalidInputError, SizeLimitError
from carlab.states import VectorState, pullback


def test_exhaustive_net_dim1_is_phase_circle():
    net = witness.enumerate_net(1, 0.5)
    assert net.mode == "exhaustive"
    np.testing.assert_allclose(np.abs(net.elements[:, 0, 0]), 1.0, atol=1e-12)
    np.testing.assert_allclose(net.elements[0], np.eye(1))


def test_exhaustive_net_identity_first_and_unitary():
    net = witness.enumerate_net(2, 0.7)
    np.testing.assert_allclose(net.elements[0], np.eye(2), atol=1e-14)
    sample = net.elements[:: max(1, len(net) // 50)]
    for u in sample:
        assert linalg.is_unitary(u)


def test_exhaustive_net_contains_nearby_rotation():
    net = witness.enumerate_net(2, 0.5)
    _, dist = witness.nearest_net_element(net, linalg.rotation_unitary(np.cos(0.3)))
    assert dist <= 0.5


def test_exhaustive_net_size_limit():
    with pytest.raises(SizeLimitError) as info:
        witness.enumerate_net(4, 0.4)
    assert info.value.estimated_size is not None
    assert info.value.estimated_size > 1e6
    # beyond the float range the count is compared exactly and left out
    with pytest.raises(SizeLimitError) as info:
        witness.enumerate_net(16, 0.4)
    assert info.value.estimated_size is None


def test_net_size_cap_is_shared_and_checked_before_allocating():
    # 128 MB of elements: 2,000,000 at dim 2, the largest exhaustive net
    with pytest.raises(SizeLimitError) as info:
        witness.random_net(16, 0.4, size=100_000_000, seed=0)
    assert info.value.estimated_size == 100_000_001
    with pytest.raises(SizeLimitError):
        witness.random_net(2, 0.4, size=2_000_000, seed=0)
    assert len(witness.random_net(16, 0.4, size=10, seed=0)) == 11


def _dedup_reference(elements):
    """The first-occurrence set loop that _dedup must reproduce."""
    seen, keep = set(), []
    rounded = np.round(elements, 9)
    for i in range(elements.shape[0]):
        key = rounded[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return elements[keep]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dedup_keeps_first_occurrences(dim):
    rng = np.random.default_rng(dim)
    base = linalg.haar_unitary(dim, rng, count=40)
    picks = rng.integers(0, 40, size=300)
    noisy = base[picks] + 1e-13 * rng.normal(size=(300, dim, dim))
    out = witness._dedup(noisy)
    assert np.array_equal(out, _dedup_reference(noisy))
    assert len(np.unique(picks)) <= len(out) < 300


def test_exhaustive_net_statistical_density():
    net = witness.enumerate_net(2, 0.7)
    report = witness.net_density_report(net, probes=100, seed=5)
    assert report.max_distance <= 0.7 + 1e-6
    assert report.within_resolution


def test_random_net_shape_and_determinism():
    a = witness.random_net(4, 0.4, size=50, seed=9)
    b = witness.random_net(4, 0.4, size=50, seed=9)
    np.testing.assert_array_equal(a.elements, b.elements)
    np.testing.assert_allclose(a.elements[0], np.eye(4))
    assert a.mode == "random"
    report = witness.net_density_report(a, probes=10, seed=1)
    assert report.max_distance <= 2.0


def test_net_resolution_validation():
    with pytest.raises(DomainError):
        witness.enumerate_net(2, 0.0)
    with pytest.raises(InvalidInputError):
        witness.random_net(2, 0.5, size=0, seed=0)


def test_test_element_net_contractions():
    net = witness.build_test_element_net(4, n_random=10, seed=3)
    assert net.dim == 4
    assert len(net.elements) == 16 + 10
    for a in net.elements:
        assert linalg.operator_norm(a) <= 1.0 + 1e-9


def test_witness_search_identical_states():
    rng = np.random.default_rng(20)
    psi = VectorState(linalg.random_unit_vector(2, rng))
    net = witness.enumerate_net(2, 0.7)
    tests = witness.build_test_element_net(2, n_random=8, seed=4)
    result = witness.witness_search(psi, psi, net, tests)
    assert result is not None
    assert result.index == 0
    assert result.gap <= 1e-12


def test_witness_search_finds_pulled_back_pairs():
    rng = np.random.default_rng(21)
    net = witness.enumerate_net(2, 0.4)
    tests = witness.build_test_element_net(2, n_random=12, seed=5)
    for _ in range(5):
        psi = VectorState(linalg.random_unit_vector(2, rng))
        v = linalg.haar_unitary(2, rng)
        phi = pullback(psi, v)
        result = witness.witness_search(phi, psi, net, tests)
        assert result is not None
        assert result.gap < 1.0
        bound = witness.distance_bound_check(phi, psi, result.unitary)
        assert bound.norm_distance < 2.0
        assert bound.below_two


def test_witness_search_soundness_on_random_net():
    rng = np.random.default_rng(22)
    net = witness.random_net(4, 0.4, size=800, seed=11)
    tests = witness.build_test_element_net(4, n_random=12, seed=6)
    psi = VectorState(linalg.random_unit_vector(4, rng))
    v = linalg.haar_unitary(4, rng)
    phi = pullback(psi, v)
    result = witness.witness_search(phi, psi, net, tests)
    assert result is not None
    assert witness.distance_bound_check(phi, psi, result.unitary).below_two


def test_witness_gap_tracks_state_distance_when_identity_probe():
    # sup over a rich test net sits between 2(1-c^2) and 2 sqrt(1-c^2)
    from carlab.states import sup_gap

    tests = witness.build_test_element_net(2, n_random=16, seed=7)
    previous = None
    for c in np.linspace(0.95, 0.1, 8):
        xi = np.array([1.0, 0.0])
        eta = np.array([c, np.sqrt(1 - c * c)])
        phi, psi = VectorState(xi), VectorState(eta)
        observable = linalg.projector(xi) - linalg.projector(eta)
        elements = list(tests.elements) + [observable]
        gap = sup_gap(phi, psi, np.eye(2), elements)
        assert 2 * (1 - c * c) - 1e-9 <= gap <= 2 * np.sqrt(1 - c * c) + 1e-9
        if previous is not None:
            assert gap >= previous - 1e-9
        previous = gap


def test_distance_bound_check_cases():
    rng = np.random.default_rng(23)
    psi = VectorState(linalg.random_unit_vector(4, rng))
    v = linalg.haar_unitary(4, rng)
    phi = pullback(psi, v)
    exact = witness.distance_bound_check(phi, psi, v)
    assert exact.norm_distance <= 1e-8
    assert exact.below_two

    e1 = VectorState(np.array([1.0, 0, 0, 0]))
    e2 = VectorState(np.array([0.0, 1, 0, 0]))
    orth = witness.distance_bound_check(e1, e2, np.eye(4))
    assert orth.norm_distance == pytest.approx(2.0, abs=1e-10)
    assert not orth.below_two

    with pytest.raises(InvalidInputError):
        witness.distance_bound_check(e1, e2, np.diag([1.0, 2.0, 1.0, 1.0]))


def test_distance_bound_duality_random():
    rng = np.random.default_rng(24)
    for _ in range(10):
        phi = VectorState(linalg.random_unit_vector(4, rng))
        psi = VectorState(linalg.random_unit_vector(4, rng))
        u = linalg.haar_unitary(4, rng)
        c = abs(np.vdot(phi.vector, u.conj().T @ psi.vector))
        got = witness.distance_bound_check(phi, psi, u).norm_distance
        assert abs(got - 2 * np.sqrt(1 - c * c)) <= 1e-8
