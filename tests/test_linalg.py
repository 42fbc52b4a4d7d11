import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import intertwiner, linalg, orbit, states
from carlab.errors import DomainError, InvalidInputError, SizeLimitError
from reference import (
    projector,
    rotation_unitary,
    step_unitary,
    two_plane_pair,
    two_plane_reference,
)


def test_operator_norm_basics():
    assert linalg.operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
    assert linalg.operator_norm(np.diag([0.0, 2.0])) == pytest.approx(2.0, abs=1e-14)


def test_operator_norm_rotation_matches_closed_form():
    theta = 0.6
    gap = linalg.operator_norm(np.eye(2) - step_unitary(0.0, theta))
    assert abs(gap - np.sqrt(2 - 2 * np.cos(theta))) <= 1e-10


def test_operator_norm_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        linalg.operator_norm(np.array([[np.nan, 0], [0, 1]]))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_operator_norm_unitarily_invariant_and_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w = linalg.haar_unitary(3, rng)
    assert abs(linalg.operator_norm(w @ a) - linalg.operator_norm(a)) <= 1e-10
    assert linalg.operator_norm(a @ b) <= linalg.operator_norm(a) * linalg.operator_norm(b) + 1e-10


def test_trace_norm_basics():
    assert linalg.trace_norm(np.zeros((3, 3))) == 0.0
    assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)


def test_trace_norm_projection_difference():
    # independent oracle: eigenvalues of the rank-<=2 Hermitian difference
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = linalg.random_unit_vector(5, rng)
        eta = linalg.random_unit_vector(5, rng)
        diff = projector(xi) - projector(eta)
        oracle = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        assert abs(linalg.trace_norm(diff) - oracle) <= 1e-12
        c = abs(np.vdot(xi, eta))
        assert abs(linalg.trace_norm(diff) - 2 * np.sqrt(1 - c * c)) <= 1e-8


def test_trace_norm_refuses_non_hermitian():
    # the only caller passes an exactly Hermitian difference of projections
    with pytest.raises(InvalidInputError):
        linalg.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        linalg.trace_norm(np.diag([1.0, 1.0j]))


def test_is_unitary():
    assert linalg.is_unitary(np.eye(4))
    assert not linalg.is_unitary(np.diag([1.0, 2.0]))
    # the tolerance is UNITARY_TOL = 1e-10
    assert linalg.is_unitary(np.diag([1.0, 1.0 + 4e-11]))
    assert not linalg.is_unitary(np.diag([1.0, 1.0 + 6e-11]))


def _hermitian_reference(x, k):
    """Entry-by-entry assembly, the layout hermitian_from_params must match."""
    h = np.zeros((k, k), dtype=np.complex128)
    h[np.diag_indices(k)] = x[:k]
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            h[i, j] = x[pos] + 1j * x[pos + 1]
            h[j, i] = np.conj(h[i, j])
            pos += 2
    return h


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hermitian_from_params_batched_equals_reference(k):
    rng = np.random.default_rng(k)
    params = rng.normal(size=(6, k * k))
    params[0] = 0.0
    batch = linalg.hermitian_from_params(params, k)
    assert batch.shape == (6, k, k)
    for x, h in zip(params, batch):
        assert np.array_equal(h, _hermitian_reference(x, k))
        assert np.array_equal(linalg.hermitian_from_params(x, k), h)
        assert np.array_equal(h, h.conj().T)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expi_hermitian_batched_equals_per_matrix(k):
    rng = np.random.default_rng(10 + k)
    h = linalg.hermitian_from_params(rng.normal(size=(5, k * k)), k)
    batch = linalg.expi_hermitian(h)
    for hi, ui in zip(h, batch):
        assert np.max(np.abs(linalg.expi_hermitian(hi) - ui)) <= 1e-12
        w, v = np.linalg.eigh(hi)
        assert np.max(np.abs((v * np.exp(1j * w)) @ v.conj().T - ui)) <= 1e-12
        assert linalg.is_unitary(ui)
    assert np.max(np.abs(linalg.expi_hermitian(np.zeros((k, k))) - np.eye(k))) == 0.0


def _expi_eigh(h):
    """exp(iH) through eigh: the kernel the 1x1 and 2x2 closed forms replace."""
    w, v = np.linalg.eigh(h)
    return np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())


def _unitarity_error(u):
    gram = np.einsum("...ji,...jk->...ik", u.conj(), u)
    return float(np.max(np.abs(gram - np.eye(u.shape[-1]))))


def test_expi_hermitian_1x1_equals_eigh_bit_for_bit():
    params = np.random.default_rng(3).uniform(-4.0, 4.0, size=(1000, 1))
    h = linalg.hermitian_from_params(params, 1)
    assert np.array_equal(linalg.expi_hermitian(h), _expi_eigh(h))


_NEAR_PI = np.nextafter(np.pi, 0.0)


@pytest.mark.parametrize(
    "h",
    [
        0.7 * np.eye(2),  # r = 0: a scalar H
        np.zeros((2, 2)),
        [[0.3, 5e-320], [5e-320, 0.3]],  # subnormal r from the off-diagonal
        [[3e-310, 0.0], [0.0, -3e-310]],  # subnormal r from the diagonal
        [[np.pi, 0.0], [0.0, -np.pi]],  # r = pi
        [[0.5, np.pi], [np.pi, 0.5]],
        [[0.6 * np.pi, 0.8j * np.pi], [-0.8j * np.pi, -0.6 * np.pi]],
        [[0.0, _NEAR_PI], [_NEAR_PI, 0.0]],  # r just below pi
        [[0.1, 2 * np.pi * (1 - 1e-15)], [2 * np.pi * (1 - 1e-15), 0.1]],  # r near 2 pi
        [[-1.0, 3 * np.pi + 1e-12], [3 * np.pi + 1e-12, -1.0]],  # r near 3 pi
        [[8.0, 3 + 4j], [3 - 4j, -6.0]],  # large |h|
        [[-9.5, 2 - 7j], [2 + 7j, 9.9]],
    ],
)
def test_expi_hermitian_2x2_closed_form_edges(h):
    h = np.asarray(h, dtype=np.complex128)
    u = linalg.expi_hermitian(h)
    assert np.max(np.abs(u - _expi_eigh(h))) <= 1e-14
    assert _unitarity_error(u) <= 1e-14


@settings(deadline=None, max_examples=100)
@given(
    params=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, np.pi, 1e2, 1e4, 1e6]),
)
def test_expi_hermitian_2x2_unitary_at_any_scale(params, scale):
    h = linalg.hermitian_from_params(scale * np.array(params), 2)
    u = linalg.expi_hermitian(h)
    assert _unitarity_error(u) <= 1e-14
    # exp(iH) itself moves by |H| eps when H is rounded, and eigh carries
    # that error too; within it the two kernels agree
    assert np.max(np.abs(u - _expi_eigh(h))) <= 1e-14 * max(1.0, linalg.operator_norm(h))


@pytest.mark.parametrize("d", [2, 4])
def test_operator_norms_batched_equals_per_matrix(d):
    rng = np.random.default_rng(20 + d)
    a = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    a[0] = 0.0
    norms = linalg.operator_norms(a)
    assert norms.shape == (7,)
    for ai, n in zip(a, norms):
        assert abs(linalg.operator_norm(ai) - n) <= 1e-12
    # equal singular values: the 2x2 closed form must not cancel
    unitaries = linalg.haar_unitary(d, rng, count=200)
    scales = rng.uniform(0.1, 3.0, size=(200, 1, 1))
    for stack in (unitaries, scales * unitaries):
        for ai, n in zip(stack, linalg.operator_norms(stack)):
            assert abs(linalg.operator_norm(ai) - n) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_haar_unitary_stack_equals_single_draws(dim):
    single_rng = np.random.default_rng(dim)
    singles = [linalg.haar_unitary(dim, single_rng) for _ in range(50)]
    stack = linalg.haar_unitary(dim, np.random.default_rng(dim), count=50)
    assert stack.shape == (50, dim, dim)
    assert np.array_equal(stack, np.stack(singles))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_hermitian_contraction_stack_equals_single_draws(dim):
    single_rng = np.random.default_rng(dim)
    singles = [linalg.random_hermitian_contraction(dim, single_rng) for _ in range(50)]
    stack = linalg.random_hermitian_contraction(dim, np.random.default_rng(dim), count=50)
    assert stack.shape == (50, dim, dim)
    assert np.array_equal(stack, np.stack(singles))
    assert linalg.random_hermitian_contraction(dim, single_rng, count=0).shape == (0, dim, dim)


def test_rotation_columns_orthonormal():
    u = rotation_unitary(np.cos(0.3))
    gram = u.conj().T @ u
    assert np.linalg.norm(gram - np.eye(2)) <= 1e-12
    assert linalg.is_unitary(u)


def test_rotation_unitary_endpoints():
    np.testing.assert_allclose(rotation_unitary(1.0), np.eye(2))
    u = rotation_unitary(0.0)
    np.testing.assert_allclose(u @ np.array([1.0, 0.0]), np.array([0.0, 1.0]), atol=1e-15)
    assert abs(linalg.operator_norm(np.eye(2) - u) - np.sqrt(2)) <= 1e-12


def test_rotation_unitary_gap_identity():
    u = rotation_unitary(0.8)
    assert abs(linalg.operator_norm(np.eye(2) - u) ** 2 - 0.4) <= 1e-12


def test_rotation_unitary_domain():
    with pytest.raises(DomainError):
        rotation_unitary(1.0 + 1e-9)


@settings(deadline=None, max_examples=80)
@given(t=st.floats(-1.0, 1.0))
def test_rotation_gap_identity_everywhere(t):
    u = rotation_unitary(t)
    assert abs(linalg.operator_norm(np.eye(2) - u) ** 2 - (2 - 2 * t)) <= 1e-10


def test_two_plane_unitary_fixed_point():
    xi = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(linalg.two_plane_unitary(xi, xi), np.eye(3), atol=1e-14)


def test_two_plane_unitary_basis_case():
    e1 = np.array([1.0, 0, 0, 0])
    e2 = np.array([0.0, 1, 0, 0])
    u = linalg.two_plane_unitary(e1, e2)
    np.testing.assert_allclose(u @ e1, e2, atol=1e-14)
    # identity off the rotation plane
    np.testing.assert_allclose(u[2:, 2:], np.eye(2), atol=1e-14)
    assert np.linalg.norm(u[:2, 2:]) <= 1e-14
    assert np.linalg.norm(u[2:, :2]) <= 1e-14


def test_two_plane_unitary_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        xi = linalg.random_unit_vector(8, rng)
        eta = linalg.random_unit_vector(8, rng)
        u = linalg.two_plane_unitary(xi, eta)
        assert np.linalg.norm(u @ xi - eta) <= 1e-10
        assert linalg.is_unitary(u)
        # independent check via Gram-Schmidt of the excursion size
        c = np.vdot(xi, eta)
        assert abs(linalg.operator_norm(np.eye(8) - u) - np.sqrt(2 * (1 - c.real))) <= 1e-8
        # identity on the orthogonal complement of the span
        zeta = eta - c * xi
        zeta /= np.linalg.norm(zeta)
        w = linalg.random_unit_vector(8, rng)
        w -= np.vdot(xi, w) * xi + np.vdot(zeta, w) * zeta
        if np.linalg.norm(w) > 1e-6:
            w /= np.linalg.norm(w)
            assert np.linalg.norm(u @ w - w) <= 1e-10


def test_two_plane_unitary_colinear():
    rng = np.random.default_rng(13)
    xi = linalg.random_unit_vector(4, rng)
    lam = np.exp(1.7j)
    u = linalg.two_plane_unitary(xi, lam * xi)
    assert np.linalg.norm(u @ xi - lam * xi) <= 1e-12
    assert linalg.is_unitary(u)


@settings(deadline=None, max_examples=200)
@given(
    dim=st.integers(2, 4),
    log_s=st.floats(-15.0, -6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_plane_unitary_nearly_colinear(dim, log_s, seed):
    # eta = c xi + s w with w orthogonal to xi and |c|^2 + s^2 = 1
    rng = np.random.default_rng(seed)
    s = 10.0**log_s
    xi = linalg.random_unit_vector(dim, rng)
    w = linalg.random_unit_vector(dim, rng)
    w -= np.vdot(xi, w) * xi
    w -= np.vdot(xi, w) * xi
    w /= np.linalg.norm(w)
    eta = np.sqrt(1.0 - s * s) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * xi + s * w
    u = linalg.two_plane_unitary(xi, eta)
    assert linalg.operator_norm(u.conj().T @ u - np.eye(dim)) <= 1e-10
    assert np.linalg.norm(u @ xi - eta) <= 1e-9


@settings(deadline=None, max_examples=200)
@given(
    dim=st.integers(2, 6),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(["random", "colinear", "near"]),
            # at s = 1e-12 the kernel and the reference may round s to
            # opposite sides of the colinear threshold and take different,
            # valid branches
            st.floats(-15.0, -1.0).filter(lambda v: abs(v + 12.0) > 1e-3),
        ),
        min_size=1,
        max_size=5,
    ),
    phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_plane_terms_rows_and_reference(dim, pairs, phase, seed):
    rng = np.random.default_rng(seed)
    xis, etas = map(np.stack, zip(*[two_plane_pair(kind, log_s, dim, rng) for kind, log_s in pairs]))
    z = np.exp(1j * phase)
    terms = linalg.two_plane_terms(xis, etas)
    for k, (xi, eta) in enumerate(zip(xis, etas)):
        # a row's terms do not depend on the rest of the stack, bit for bit
        alone = linalg.two_plane_terms(xis[k : k + 1], etas[k : k + 1])
        for stacked, single in zip(terms, alone):
            assert stacked[k].tobytes() == single[0].tobytes()
        got = terms[0][k] + z * terms[1][k] + np.conj(z) * terms[2][k]
        assert np.max(np.abs(got.conj().T @ got - np.eye(dim))) <= 1e-14
        # zeta = r / s carries a rounding error of about eps / s in either
        # construction, which moves the map on zeta's line by as much
        s = np.linalg.norm(eta - np.vdot(xi, eta) * xi)
        slack = 16 * np.finfo(np.float64).eps / s if s > 1e-12 else 0.0
        want = two_plane_reference(xi, z * eta)
        assert np.max(np.abs(got - want)) <= max(1e-14, slack)


def test_two_plane_unitary_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        linalg.two_plane_unitary(np.array([1.0, 0.0]), np.array([1.0, 0, 0]))


def _state_distance(xi, eta):
    return states.state_distance(states.VectorState(xi), states.VectorState(eta))


def _build_chain(alpha, beta):
    return intertwiner.build_chain(alpha, beta, 1)


def _product_min_distance(xi, eta):
    return orbit.product_min_distance([xi], [eta])


_VECTORS = (np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
_ANGLES = (np.array([0.1, 0.2]), np.array([0.1, 0.2, 0.3]))
_MISMATCHED = [
    (linalg.unit_vector_pair, _VECTORS),
    (linalg.two_plane_unitary, _VECTORS),
    (linalg.phase_align, _VECTORS),
    (_product_min_distance, _VECTORS),
    (orbit.min_distance_bruteforce, _VECTORS),
    (orbit.state_min_distance_bruteforce, _VECTORS),
    (_state_distance, _VECTORS),
    (states.separation_witness, _VECTORS),
    (_build_chain, _ANGLES),
    (intertwiner.separation_rows, _ANGLES),
    (intertwiner.distance_crossing_level, _ANGLES),
]


@pytest.mark.parametrize("entry, pair", _MISMATCHED, ids=[e.__name__ for e, _ in _MISMATCHED])
def test_mismatched_pair_rejected_at_every_entry_point(entry, pair):
    with pytest.raises(InvalidInputError):
        entry(*pair)


@pytest.mark.parametrize("k, size", [(25, 2**25), (5000, np.inf)])
def test_phase_combination_norm_sign_patterns_are_a_count(k, size):
    # 2^k sign patterns: one past the count cap is refused, and so is one past a float
    with pytest.raises(SizeLimitError) as info:
        linalg.phase_combination_norm([(0.1, -0.1)] * k)
    assert info.value.estimated_size == size


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_rotation_block_norm_matches_dense(k):
    rng = np.random.default_rng(100 + k)
    thetas = rng.uniform(-1.2, 1.2, size=k)
    block = np.eye(1, dtype=complex)
    for t in thetas:
        block = np.kron(block, step_unitary(0.0, t))
    dense = linalg.operator_norm(np.eye(2**k) - block)
    closed = linalg.phase_combination_norm([(t, -t) for t in thetas])
    assert abs(dense - closed) <= 1e-10
    # brute-force sign-pattern oracle, written out independently
    oracle = max(
        abs(1 - np.exp(1j * sum(e * t for e, t in zip(eps, thetas))))
        for eps in itertools.product((1, -1), repeat=k)
    )
    assert abs(closed - oracle) <= 1e-12


def test_phase_align():
    rng = np.random.default_rng(14)
    xi = linalg.random_unit_vector(3, rng)
    eta = linalg.random_unit_vector(3, rng)
    aligned = linalg.phase_align(xi, eta)
    t = np.vdot(xi, aligned)
    assert t.imag <= 1e-12 and t.real >= 0
    assert abs(abs(np.vdot(xi, eta)) - t.real) <= 1e-12
