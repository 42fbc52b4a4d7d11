import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import intertwiner, linalg, sequences, truncation
from carlab.errors import InvalidInputError, LevelError, NumericalInvariantError
from carlab.states import VectorState
from carlab.witness import build_test_element_net
from reference import evaluate


def _angles(desc, n):
    return sequences.angles_from_descriptor(desc, n)


def _dense_level(chain, n):
    """Reference only: the 2^n x 2^n level unitary u_1 (x) ... (x) u_n, v_0 = 1."""
    return reduce(np.kron, chain.factors[:n], np.eye(1))


def test_truncated_product_state_zero_angles():
    state = VectorState(truncation.product_vector(np.zeros(4)[:3]))
    a = np.diag(np.arange(8.0))
    assert evaluate(state, a) == pytest.approx(0.0)
    assert truncation.level_of_dim(state.dim) == 3


def test_truncated_product_state_single_factor():
    state = VectorState(truncation.product_vector([0.3]))
    np.testing.assert_allclose(state.vector, [np.cos(0.3), np.sin(0.3)])


def test_truncated_state_embedding_consistency():
    rng = np.random.default_rng(0)
    alpha = rng.uniform(-1.0, 1.0, size=6)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    low = evaluate(VectorState(truncation.product_vector(alpha[:2])), a)
    high = evaluate(VectorState(truncation.product_vector(alpha)), truncation.embed(a, 6))
    assert abs(low - high) <= 1e-12


def test_step_unitary_carries_angle_vectors():
    u = intertwiner.step_unitary(0.3, -0.5)
    got = u @ np.array([np.cos(0.3), np.sin(0.3)])
    np.testing.assert_allclose(got, [np.cos(-0.5), np.sin(-0.5)], atol=1e-14)


def test_chain_identity_when_angles_equal():
    alpha = _angles("harmonic", 5)
    chain = intertwiner.build_chain(alpha, alpha, 5)
    for n in range(1, 6):
        np.testing.assert_allclose(_dense_level(chain, n), np.eye(2**n), atol=1e-14)
        assert intertwiner.block_gap(chain, n - 1, n).measured == pytest.approx(0.0, abs=1e-12)


def test_chain_single_step_gap():
    theta = 0.7
    chain = intertwiner.build_chain([theta], [0.0], 1)
    gap = intertwiner.block_gap(chain, 0, 1)
    assert gap.measured == pytest.approx(2 * abs(np.sin(theta / 2)), abs=1e-12)
    assert gap.measured == pytest.approx(np.sqrt(2 * (1 - np.cos(theta))), abs=1e-12)
    assert gap.overlap_bound == pytest.approx(gap.measured, abs=1e-12)


def test_chain_per_step_gap_identity():
    alpha = _angles("harmonic", 8)
    beta = _angles("zero", 8)
    chain = intertwiner.build_chain(alpha, beta, 8)
    for n in range(1, 9):
        gap = intertwiner.block_gap(chain, n - 1, n)
        theta = alpha[n - 1]
        assert abs(gap.measured - np.sqrt(2 * (1 - np.cos(theta)))) <= 1e-10
        assert abs(gap.eigenphase_norm - gap.measured) <= 1e-10


def test_chain_carries_product_vectors():
    rng = np.random.default_rng(1)
    alpha = rng.uniform(-1.2, 1.2, size=7)
    beta = rng.uniform(-1.2, 1.2, size=7)
    chain = intertwiner.build_chain(alpha, beta, 7)
    for n in (1, 4, 7):
        xi = truncation.product_vector(alpha[:n])
        eta = truncation.product_vector(beta[:n])
        assert np.linalg.norm(_dense_level(chain, n) @ xi - eta) <= 1e-9


@pytest.mark.parametrize("policy", intertwiner.PHASE_POLICIES)
def test_dense_level_cross_check(policy):
    rng = np.random.default_rng(3)
    alpha = rng.uniform(-1.2, 1.2, size=8)
    beta = rng.uniform(-1.2, 1.2, size=8)
    chain = intertwiner.build_chain(alpha, beta, 8, phase_policy=policy)
    for n in range(1, 9):
        v = _dense_level(chain, n)
        assert linalg.operator_norm(v.conj().T @ v - np.eye(2**n)) <= 1e-10
        image = v @ truncation.product_vector(alpha[:n])
        eta = truncation.product_vector(beta[:n])
        if policy == "none":
            assert np.linalg.norm(image - eta) <= 1e-12
        else:
            assert abs(1.0 - abs(np.vdot(image, eta))) <= 1e-12


def test_verify_chain_bounds_accumulated_drift():
    # each factor is off unitarity by 3e-10, under the 1e-9 tolerance alone;
    # the level-n product is off by (1 + 3e-10)^n - 1, over it from n = 4
    chain = intertwiner.build_chain(np.zeros(8), np.zeros(8), 8)
    scaled = chain.factors * (1.0 + 1.5e-10)
    intertwiner._verify_chain(replace(chain, factors=scaled[:3]))
    with pytest.raises(NumericalInvariantError, match="level 4 is not unitary"):
        intertwiner._verify_chain(replace(chain, factors=scaled))


def test_verify_chain_rejects_missed_carrier():
    chain = intertwiner.build_chain([0.3, 0.2], [0.1, 0.0], 2)
    swapped = replace(chain, beta=chain.beta[::-1].copy())
    with pytest.raises(NumericalInvariantError, match="carrier"):
        intertwiner._verify_chain(swapped)


def test_chain_length_validation():
    with pytest.raises(InvalidInputError):
        intertwiner.build_chain([0.1, 0.2], [0.0], 2)
    with pytest.raises(InvalidInputError):
        intertwiner.build_chain([0.1], [0.0], 2)


@pytest.mark.parametrize("levels", [0, -1, -400])
def test_chain_level_below_one_has_its_own_message(levels):
    # the level rule, not the sequence length, whatever length was given
    with pytest.raises(LevelError, match=f"^a chain needs at least 1 level, got {levels}$"):
        intertwiner.build_chain([0.1] * 400, [0.0] * 400, levels)
    with pytest.raises(InvalidInputError, match="^levels 3 exceed the 2 angle pairs given$"):
        intertwiner.build_chain([0.1, 0.2], [0.0, 0.0], 3)


def test_block_gap_measured_equals_eigenphase_formula():
    alpha = _angles("harmonic", 7)
    beta = _angles("zero", 7)
    chain = intertwiner.build_chain(alpha, beta, 7)
    for gap in intertwiner.block_gaps(chain, max_span=6):
        assert abs(gap.measured - gap.eigenphase_norm) <= 1e-8
    # the harmonic family makes long blocks overshoot the claimed bound
    flagged = [g for g in intertwiner.block_gaps(chain, max_span=6) if g.exceeds_bound]
    assert flagged


def test_block_gap_against_tail_product_example():
    alpha = _angles("harmonic", 6)
    beta = _angles("zero", 6)
    chain = intertwiner.build_chain(alpha, beta, 6)
    gap = intertwiner.block_gap(chain, 2, 6)
    prod = np.prod(np.cos(alpha[2:6]))
    assert gap.overlap_bound == pytest.approx(np.sqrt(2 * (1 - prod)), abs=1e-12)
    assert gap.measured == pytest.approx(
        linalg.phase_combination_norm([(t, -t) for t in alpha[2:6]]), abs=1e-10
    )


@pytest.mark.parametrize("policy", intertwiner.PHASE_POLICIES)
def test_block_gap_dense_cross_check(policy):
    alpha = _angles("random:0.9:5", 8)
    beta = _angles("harmonic", 8)
    chain = intertwiner.build_chain(alpha, beta, 8, phase_policy=policy)
    # blocks from v_0 = 1 too: with block_gaps' span-1 blocks, every per-level gap
    from_unit = [intertwiner.block_gap(chain, 0, n) for n in range(1, 8)]
    for gap in from_unit + intertwiner.block_gaps(chain, max_span=7):
        vm = truncation.embed(_dense_level(chain, gap.start), gap.end)
        dense = linalg.operator_norm(vm - _dense_level(chain, gap.end))
        assert abs(gap.measured - dense) <= 1e-12


def _dense_block_gap(chain, m, n):
    """Reference only: ||I - W|| for the dense W = u_{m+1} (x) ... (x) u_n."""
    block = reduce(np.kron, chain.factors[m:n])
    return linalg.operator_norm(np.eye(block.shape[0]) - block)


# (alpha_j, beta_j) pairs at the edges of the factor spectra: equal angles
# (theta = alpha - beta = 0, an identity factor) and theta = +-(pi/2 - 1e-9),
# where the factor's eigenvalues are near -+i and cos theta near 0
_HALF = np.pi / 2 - 1e-9
_angle = st.floats(-_HALF, _HALF, allow_subnormal=False)
_pair = st.one_of(
    st.sampled_from([(0.0, 0.0), (_HALF, 0.0), (0.0, _HALF), (-_HALF, 0.0), (0.0, -_HALF)]),
    _angle.map(lambda a: (a, a)),
    st.tuples(_angle, _angle),
)


@settings(deadline=None, max_examples=150)
@given(
    policy=st.sampled_from(intertwiner.PHASE_POLICIES),
    start=st.sampled_from([0, 1]),
    pairs=st.integers(1, 8).flatmap(lambda span: st.one_of(
        st.lists(_pair, min_size=span, max_size=span),
        _pair.map(lambda p: [p] * span),
    )),
)
def test_block_gap_equals_dense_norm_at_spectral_edges(policy, start, pairs):
    # repeated pairs give coincident factor eigenvalues; under
    # "eigenvalue-one" every factor has eigenvalue 1, exactly so at theta = 0.
    # From start 0, a span-1 block is the per-level gap of level 1.
    alpha, beta = np.array([(0.3, 0.0)] * start + pairs).T
    end = start + len(pairs)
    chain = intertwiner.build_chain(alpha, beta, end, phase_policy=policy)
    gap = intertwiner.block_gap(chain, start, end)
    assert abs(gap.measured - _dense_block_gap(chain, start, end)) <= 1e-12


@pytest.mark.parametrize("policy", intertwiner.PHASE_POLICIES)
def test_block_gap_working_memory_is_small(policy):
    # from the factor spectra: 2^10 eigenvalue products, where the dense
    # 1024 x 1024 complex block alone took 16 MB
    chain = intertwiner.build_chain(
        _angles("harmonic", 12), _angles("zero", 12), 12, phase_policy=policy
    )
    tracemalloc.start()
    try:
        gap = intertwiner.block_gap(chain, 1, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(gap.measured - gap.eigenphase_norm) <= 1e-8
    assert peak <= 1 << 20


def test_block_gap_bad_indices():
    chain = intertwiner.build_chain([0.1, 0.2], [0.0, 0.0], 2)
    for m, n in ((2, 2), (-1, 1)):
        with pytest.raises(LevelError):
            intertwiner.block_gap(chain, m, n)


def test_intertwining_gap_identity_element():
    alpha = _angles("random:0.8:3", 6)
    beta = _angles("random:0.8:4", 6)
    chain = intertwiner.build_chain(alpha, beta, 6)
    assert intertwiner.intertwining_gap(chain, 6, [np.eye(4)]) <= 1e-12


def test_intertwining_gap_random_elements():
    rng = np.random.default_rng(2)
    alpha = rng.uniform(-1.0, 1.0, size=8)
    beta = rng.uniform(-1.0, 1.0, size=8)
    chain = intertwiner.build_chain(alpha, beta, 8)
    hermitians = []
    for _ in range(10):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hermitians.append((h + h.conj().T) / 4)
    assert intertwiner.intertwining_gap(chain, 6, hermitians) <= 1e-10
    batch = build_test_element_net(4, n_random=50, seed=7).elements
    assert intertwiner.intertwining_gap(chain, 8, batch) <= 1e-9


def test_intertwining_gap_with_phase_policy():
    alpha = _angles("harmonic", 6)
    beta = _angles("zero", 6)
    chain = intertwiner.build_chain(alpha, beta, 6, phase_policy="eigenvalue-one")
    batch = build_test_element_net(4, n_random=10, seed=8).elements
    # phases cancel inside a -> v a v*, so the identity still holds
    assert intertwiner.intertwining_gap(chain, 6, batch) <= 1e-9
    # but the per-step gaps differ from the bare-rotation chain
    bare = intertwiner.build_chain(alpha, beta, 6)
    assert intertwiner.block_gap(chain, 0, 1).measured > intertwiner.block_gap(bare, 0, 1).measured


@pytest.mark.parametrize("policy", intertwiner.PHASE_POLICIES)
def test_intertwining_gap_dense_cross_check(policy):
    rng = np.random.default_rng(4)
    alpha = rng.uniform(-1.2, 1.2, size=8)
    beta = rng.uniform(-1.2, 1.2, size=8)
    chain = intertwiner.build_chain(alpha, beta, 8, phase_policy=policy)
    for n in (1, 5, 8):
        xi = truncation.product_vector(alpha[:n])
        pulled = _dense_level(chain, n).conj().T @ truncation.product_vector(beta[:n])
        for m in range(0, n + 1, 2):
            elements = [
                rng.normal(size=(2**m, 2**m)) + 1j * rng.normal(size=(2**m, 2**m))
                for _ in range(3)
            ]
            dense = max(
                abs(np.vdot(xi, truncation.embed(a, n) @ xi)
                    - np.vdot(pulled, truncation.embed(a, n) @ pulled))
                for a in elements
            )
            assert abs(intertwiner.intertwining_gap(chain, n, elements) - dense) <= 1e-12


def test_intertwining_gap_rejects_bad_levels_and_elements():
    chain = intertwiner.build_chain([0.1, 0.2, 0.3], [0.0, 0.0, 0.0], 3)
    with pytest.raises(LevelError):
        intertwiner.intertwining_gap(chain, 2, [np.eye(8)])
    with pytest.raises(LevelError):
        intertwiner.intertwining_gap(chain, 4, [np.eye(2)])
    with pytest.raises(LevelError):
        intertwiner.intertwining_gap(chain, 3, [np.eye(3)])
    with pytest.raises(InvalidInputError):
        intertwiner.intertwining_gap(chain, 3, [np.ones((2, 4))])
    with pytest.raises(InvalidInputError):
        intertwiner.intertwining_gap(chain, 3, [np.diag([1.0, np.nan])])


def test_separation_rows_equal_angles():
    alpha = _angles("harmonic", 6)
    rows = intertwiner.separation_rows(alpha, alpha, start=1, stop=6)
    for row in rows:
        assert row.state_distance == pytest.approx(0.0, abs=1e-10)
        assert row.overlap == pytest.approx(1.0, abs=1e-12)


def test_separation_rows_invsqrt_marches_to_two():
    alpha = _angles("invsqrt", 10)
    beta = _angles("zero", 10)
    rows = intertwiner.separation_rows(alpha, beta, start=1, stop=10)
    distances = [row.state_distance for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(distances, distances[1:]))
    assert distances[-1] > 1.9
    for row in rows:
        # witness expectations follow the overlap exactly
        assert abs(row.witness_first - (1 - row.overlap**2)) <= 1e-10
        assert abs(row.witness_second - (row.overlap**2 - 1)) <= 1e-10


def test_separation_near_orthogonal_single_factor():
    theta = np.pi / 2 - 1e-6
    rows = intertwiner.separation_rows([theta], [0.0], start=1, stop=1)
    assert rows[0].state_distance >= 2 - 1e-5


def test_distance_crossing_level_invsqrt():
    alpha = _angles("invsqrt", 64)
    beta = _angles("zero", 64)
    level = intertwiner.distance_crossing_level(alpha, beta, threshold=1.9)
    assert level == 4
    none = intertwiner.distance_crossing_level(
        _angles("power:2", 64), beta, threshold=1.9
    )
    assert none is None


def test_distance_crossing_level_refuses_vacuous_thresholds():
    alpha, beta = _angles("invsqrt", 64), _angles("zero", 64)
    for threshold in (-1.0, -1e-300, 2.0, 2.5, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="threshold"):
            intertwiner.distance_crossing_level(alpha, beta, threshold=threshold)
    assert intertwiner.distance_crossing_level(alpha, beta, threshold=0.0) == 1
    assert intertwiner.distance_crossing_level(alpha, beta, threshold=np.nextafter(2.0, 0)) is None


@pytest.mark.parametrize(
    "start, limit",
    [(70, 64), (0, 64), (-3, 64), (5, 3), (65, 100)],
)
def test_distance_crossing_level_refuses_empty_windows(start, limit):
    # a None here would read as "never crosses"; levels 1..min(64, limit) exist
    alpha, beta = _angles("invsqrt", 64), _angles("zero", 64)
    with pytest.raises(InvalidInputError, match="window"):
        intertwiner.distance_crossing_level(alpha, beta, start=start, limit=limit)
