import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import linalg
from carlab.errors import InvalidInputError
from carlab.states import (
    VectorState,
    pullback,
    separation_witness,
    state_distance,
)
from reference import evaluate, projector, rotation_unitary, sup_gap


def _pair_with_overlap(c: float, dim: int = 4) -> tuple[np.ndarray, np.ndarray]:
    xi = np.zeros(dim)
    xi[0] = 1.0
    eta = np.zeros(dim)
    eta[0] = c
    eta[1] = np.sqrt(1 - c * c)
    return xi, eta


def test_vector_state_rejects_bad_norm():
    with pytest.raises(InvalidInputError):
        VectorState(np.array([1.0, 1.0]))


def test_evaluate_identity_and_diagonal():
    phi = VectorState(np.array([1.0, 0.0]))
    assert evaluate(phi, np.eye(2)) == pytest.approx(1.0)
    assert evaluate(phi, np.diag([3.0, 5.0])) == pytest.approx(3.0)


def test_evaluate_dimension_mismatch():
    phi = VectorState(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        evaluate(phi, np.eye(3))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_evaluate_hermitian_gives_real(seed):
    rng = np.random.default_rng(seed)
    phi = VectorState(linalg.random_unit_vector(4, rng))
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    assert abs(evaluate(phi, h).imag) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(phase=st.floats(0, 2 * np.pi), seed=st.integers(0, 2**32 - 1))
def test_evaluate_ignores_global_phase(phase, seed):
    rng = np.random.default_rng(seed)
    v = linalg.random_unit_vector(3, rng)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    plain = evaluate(VectorState(v), a)
    spun = evaluate(VectorState(np.exp(1j * phase) * v), a)
    assert abs(plain - spun) <= 1e-12


def test_pullback_identity():
    rng = np.random.default_rng(5)
    phi = VectorState(linalg.random_unit_vector(4, rng))
    np.testing.assert_allclose(pullback(phi, np.eye(4)).vector, phi.vector)


def test_pullback_rotation_straightens_vector():
    t = 0.3
    xi = np.array([t, np.sqrt(1 - t * t)])
    out = pullback(VectorState(xi), rotation_unitary(t))
    assert abs(abs(out.vector[0]) - 1.0) <= 1e-12


def test_pullback_rejects_non_unitary():
    phi = VectorState(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        pullback(phi, np.diag([1.0, 2.0]))


def test_pullback_matches_conjugated_evaluation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        phi = VectorState(linalg.random_unit_vector(4, rng))
        u = linalg.haar_unitary(4, rng)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = evaluate(pullback(phi, u), a)
        rhs = evaluate(phi, u @ a @ u.conj().T)
        assert abs(lhs - rhs) <= 1e-12


def test_pullback_composes_contravariantly():
    rng = np.random.default_rng(7)
    phi = VectorState(linalg.random_unit_vector(4, rng))
    u = linalg.haar_unitary(4, rng)
    w = linalg.haar_unitary(4, rng)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    twice = evaluate(pullback(pullback(phi, u), w), a)
    once = evaluate(pullback(phi, u @ w), a)
    assert abs(twice - once) <= 1e-12


def test_state_distance_base_cases():
    xi, eta = _pair_with_overlap(0.0)
    phi, psi = VectorState(xi), VectorState(eta)
    assert state_distance(phi, phi) == pytest.approx(0.0, abs=1e-12)
    assert state_distance(phi, psi) == pytest.approx(2.0, abs=1e-10)


def test_state_distance_overlap_point_six():
    xi, eta = _pair_with_overlap(0.6)
    assert state_distance(VectorState(xi), VectorState(eta)) == pytest.approx(
        1.6, abs=1e-8
    )


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_state_distance_duality(dim):
    rng = np.random.default_rng(dim)
    for _ in range(100):
        xi = linalg.random_unit_vector(dim, rng)
        eta = linalg.random_unit_vector(dim, rng)
        c = abs(np.vdot(xi, eta))
        got = state_distance(VectorState(xi), VectorState(eta))
        assert abs(got - 2 * np.sqrt(1 - c * c)) <= 1e-8


def test_separation_witness_equal_and_orthogonal():
    xi = np.array([1.0, 0.0])
    same = separation_witness(xi, xi)
    assert same.norm <= 1e-14
    assert same.first_value == pytest.approx(0.0, abs=1e-14)
    assert same.second_value == pytest.approx(0.0, abs=1e-14)
    other = separation_witness(xi, np.array([0.0, 1.0]))
    assert other.first_value == pytest.approx(1.0, abs=1e-12)
    assert other.second_value == pytest.approx(-1.0, abs=1e-12)
    assert other.norm == pytest.approx(1.0, abs=1e-12)


def test_separation_witness_quarter_overlap():
    xi, eta = _pair_with_overlap(0.25)
    wit = separation_witness(xi, eta)
    assert abs(wit.first_value - 0.9375) <= 1e-10
    assert abs(wit.second_value + 0.9375) <= 1e-10
    assert abs(wit.norm - np.sqrt(1 - 0.0625)) <= 1e-8


def _span_test_pair(dim, kind, s, phase, seed):
    rng = np.random.default_rng(seed)
    xi = linalg.random_unit_vector(dim, rng)
    if kind == "colinear" or dim == 1:
        return xi, np.exp(1j * phase) * xi
    w = linalg.random_unit_vector(dim, rng)
    w -= np.vdot(xi, w) * xi
    w -= np.vdot(xi, w) * xi
    w /= np.linalg.norm(w)
    if kind == "orthogonal":
        return xi, w
    return xi, np.sqrt(1.0 - s * s) * np.exp(1j * phase) * xi + s * w


@settings(deadline=None, max_examples=120)
@given(
    dim=st.sampled_from([1, 2, 3, 8, 64, 256]),
    kind=st.sampled_from(["colinear", "orthogonal", "general"]),
    log_s=st.floats(-15.0, 0.0),
    phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_quantities_match_dense_projector_difference(dim, kind, log_s, phase, seed):
    """Cross-check against the dense d x d difference of projections."""
    xi, eta = _span_test_pair(dim, kind, 10.0**log_s, phase, seed)
    dense = projector(xi) - projector(eta)
    got = state_distance(VectorState(xi), VectorState(eta))
    assert abs(got - linalg.trace_norm(dense)) <= 1e-12
    wit = separation_witness(xi, eta)
    assert abs(wit.first_value - np.vdot(xi, dense @ xi).real) <= 1e-12
    assert abs(wit.second_value - np.vdot(eta, dense @ eta).real) <= 1e-12
    assert abs(wit.norm - linalg.operator_norm(dense)) <= 1e-12


def test_state_distance_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        state_distance(VectorState(np.array([1.0, 0.0])), VectorState(np.array([1.0, 0, 0])))
    with pytest.raises(InvalidInputError):
        separation_witness(np.array([1.0, 0.0]), np.array([1.0, 0, 0]))


def test_sup_gap_trivial():
    rng = np.random.default_rng(8)
    phi = VectorState(linalg.random_unit_vector(4, rng))
    tests = [np.eye(4), linalg.random_hermitian_contraction(4, rng)]
    assert sup_gap(phi, phi, np.eye(4), tests) == pytest.approx(0.0, abs=1e-14)


def test_sup_gap_rejects_expansive_test_elements():
    rng = np.random.default_rng(9)
    phi = VectorState(linalg.random_unit_vector(2, rng))
    with pytest.raises(InvalidInputError):
        sup_gap(phi, phi, np.eye(2), [np.diag([2.0, 0.0])])


def test_sup_gap_below_one_for_nearby_unitary():
    rng = np.random.default_rng(10)
    for _ in range(10):
        psi = VectorState(linalg.random_unit_vector(4, rng))
        v = linalg.haar_unitary(4, rng)
        phi = pullback(psi, v)
        # any unitary within 1/2 of v keeps every unit-ball gap below 1
        k = linalg.random_hermitian_contraction(4, rng)
        w, vecs = np.linalg.eigh(k)
        u = v @ ((vecs * np.exp(0.4j * w)) @ vecs.conj().T)
        assert linalg.operator_norm(u - v) < 0.5
        tests = [linalg.random_hermitian_contraction(4, rng) for _ in range(10)]
        assert sup_gap(phi, psi, u, tests) < 1.0


def test_sup_gap_dominated_by_state_distance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi = VectorState(linalg.random_unit_vector(4, rng))
        psi = VectorState(linalg.random_unit_vector(4, rng))
        u = linalg.haar_unitary(4, rng)
        tests = [linalg.random_hermitian_contraction(4, rng) for _ in range(8)]
        gap = sup_gap(phi, psi, u, tests)
        assert gap <= state_distance(phi, pullback(psi, u)) + 1e-9


def test_sup_gap_perturbation_bound():
    rng = np.random.default_rng(12)
    for delta in (0.1, 0.25, 0.49):
        psi = VectorState(linalg.random_unit_vector(4, rng))
        v = linalg.haar_unitary(4, rng)
        phi = pullback(psi, v)
        # u = v e^{isK} with ||K|| = 1 and s tuned so ||u - v|| is exactly delta
        k = linalg.random_hermitian_contraction(4, rng)
        s = 2 * np.arcsin(delta / 2)
        w, vecs = np.linalg.eigh(k)
        u = v @ ((vecs * np.exp(1j * s * w)) @ vecs.conj().T)
        measured = linalg.operator_norm(u - v)
        assert measured <= delta + 1e-12
        tests = [linalg.random_hermitian_contraction(4, rng) for _ in range(12)]
        assert sup_gap(phi, psi, u, tests) <= 2 * measured + 1e-9
