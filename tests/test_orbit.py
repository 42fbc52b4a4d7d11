import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import cli, config, linalg, orbit
from carlab.errors import DomainError, InvalidInputError, SizeLimitError
from reference import search_minimum, two_plane_pair, two_plane_reference


def _aligned_pair(dim, rng):
    xi = linalg.random_unit_vector(dim, rng)
    eta = linalg.phase_align(xi, linalg.random_unit_vector(dim, rng))
    return xi, eta


def test_closed_form_base_cases():
    xi = np.array([1.0, 0.0])
    assert orbit.product_min_distance([xi], [xi]).distance_single == pytest.approx(0.0)
    perp = orbit.product_min_distance([xi], [np.array([0.0, 1.0])])
    assert perp.distance_single == pytest.approx(np.sqrt(2), abs=1e-12)


def test_closed_form_half_overlap():
    xi = np.array([1.0, 0.0])
    eta = np.array([0.5, np.sqrt(0.75)])
    report = orbit.product_min_distance([xi], [eta])
    assert report.overlap_product == pytest.approx(0.5, abs=1e-12)
    assert report.distance_single == pytest.approx(1.0, abs=1e-12)


def test_overlap_report_internal_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        report = orbit.product_min_distance(
            [linalg.random_unit_vector(3, rng)], [linalg.random_unit_vector(3, rng)]
        )
        assert abs(
            report.distance_single - np.sqrt(2 * (1 - report.overlap_product))
        ) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(phase=st.floats(0, 2 * np.pi), seed=st.integers(0, 2**32 - 1))
def test_closed_form_phase_invariance(phase, seed):
    rng = np.random.default_rng(seed)
    xi = linalg.random_unit_vector(3, rng)
    eta = linalg.random_unit_vector(3, rng)
    a = orbit.product_min_distance([xi], [eta])
    b = orbit.product_min_distance([xi], [np.exp(1j * phase) * eta])
    assert abs(a.overlap_product - b.overlap_product) <= 1e-12
    assert abs(a.distance_single - b.distance_single) <= 1e-12


def test_closed_form_monotone_in_overlap():
    xi = np.array([1.0, 0.0])
    values = []
    for c in np.linspace(0.0, 1.0, 30):
        eta = np.array([c, np.sqrt(1 - c * c)])
        values.append(orbit.product_min_distance([xi], [eta]).distance_single)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bruteforce_finds_identity_for_equal_vectors():
    xi = np.array([1.0, 0.0, 0.0])
    assert orbit.min_distance_bruteforce(xi, xi, budget=1000, seed=0).distance <= 1e-10


def test_bruteforce_matches_closed_form_dim2():
    xi = np.array([1.0, 0.0])
    eta = np.array([0.8, 0.6])
    found = orbit.min_distance_bruteforce(xi, eta, budget=2000, seed=3).distance
    assert abs(found - 0.6324555320336759) <= 1e-4


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bruteforce_matches_closed_form_random(dim):
    rng = np.random.default_rng(40 + dim)
    xis, etas = zip(*(_aligned_pair(dim, rng) for _ in range(12)))
    # one batched search; trial k runs on seed k
    results = orbit.min_distance_searches(xis, etas, 10_000, list(range(12)))
    for xi, eta, result in zip(xis, etas, results):
        closed = orbit.product_min_distance([xi], [eta]).distance_single
        assert result.distance >= closed - 1e-6
        assert abs(result.distance - closed) <= 1e-4


def test_bruteforce_never_below_exact_carrier_floor():
    # without phase alignment the floor is ||xi - eta||, above the closed form
    rng = np.random.default_rng(50)
    xis, etas = zip(*((linalg.random_unit_vector(3, rng), linalg.random_unit_vector(3, rng))
                      for _ in range(8)))
    # one batched search; trial k runs on seed k
    results = orbit.min_distance_searches(xis, etas, 4000, list(range(8)))
    for xi, eta, result in zip(xis, etas, results):
        floor = np.linalg.norm(xi - eta)
        closed = orbit.product_min_distance([xi], [eta]).distance_single
        found = result.distance
        assert found >= closed - 1e-6
        assert abs(found - floor) <= 1e-4


def test_bruteforce_rejects_unsupported_dimension():
    rng = np.random.default_rng(51)
    xi = linalg.random_unit_vector(5, rng)
    with pytest.raises(DomainError):
        orbit.min_distance_bruteforce(xi, xi, budget=1000, seed=0)


def test_bruteforce_rejects_small_budget():
    xi = np.array([1.0, 0.0])
    with pytest.raises(InvalidInputError):
        orbit.min_distance_bruteforce(xi, xi, budget=10, seed=0)


def test_product_min_distance_base_cases():
    xi = np.array([1.0, 0.0])
    report = orbit.product_min_distance([xi, xi], [xi, xi])
    assert report.distance_single == pytest.approx(0.0)
    assert report.distance_doubled == pytest.approx(0.0)


def test_product_min_distance_two_factor_example():
    x1 = np.array([1.0, 0.0])
    e1 = np.array([0.9, np.sqrt(1 - 0.81)])
    x2 = np.array([0.0, 1.0])
    e2 = np.array([np.sqrt(1 - 0.64), 0.8])
    report = orbit.product_min_distance([x1, x2], [e1, e2])
    assert report.overlap_product == pytest.approx(0.72, abs=1e-12)
    assert report.distance_single == pytest.approx(0.7483314773547883, abs=1e-12)
    assert report.distance_doubled == pytest.approx(2 * 0.7483314773547883, abs=1e-12)


def test_product_min_distance_cap():
    xi = np.array([1.0] + [0.0] * 63)
    # 64^2 = 4096 sits exactly at the cap; a third factor crosses it
    orbit.product_min_distance([xi, xi], [xi, xi])
    with pytest.raises(SizeLimitError):
        orbit.product_min_distance([xi, xi, xi], [xi, xi, xi])


def test_state_oracle_adjudicates_the_constant():
    # on two-qubit products the state-equality search lands on the
    # single-constant value and stays far from the doubled one
    rng = np.random.default_rng(53)
    factors = [[linalg.random_unit_vector(2, rng) for _ in range(4)] for _ in range(8)]
    xis = [np.kron(x1, x2) for x1, x2, _, _ in factors]
    etas = [np.kron(e1, e2) for _, _, e1, e2 in factors]
    # one batched search; trial k runs on seed k
    results = orbit.state_min_distance_searches(xis, etas, 8000, list(range(8)))
    for (x1, x2, e1, e2), result in zip(factors, results):
        report = orbit.product_min_distance([x1, x2], [e1, e2])
        found = result.distance
        assert found >= report.distance_single - 1e-6
        assert abs(found - report.distance_single) <= 1e-3
        if report.overlap_product < 0.9:
            margin = report.distance_doubled - report.distance_single
            assert abs(found - report.distance_doubled) >= margin - 1e-3


def test_state_oracle_absorbs_phases():
    rng = np.random.default_rng(54)
    xi = linalg.random_unit_vector(2, rng)
    eta = np.exp(1.3j) * xi
    found = orbit.state_min_distance_bruteforce(xi, eta, budget=2000, seed=0).distance
    assert found <= 1e-6


def _scalar_objective(xi, eta, x, state):
    """One point of either oracle's objective, composed matrix by matrix."""
    d = xi.shape[0]
    q = np.linalg.qr(eta.reshape(d, 1), mode="complete")[0][:, 1:]
    proj = np.outer(eta, eta.conj())
    target, params = (np.exp(1j * x[0]) * eta, x[1:]) if state else (eta, x)
    base = two_plane_reference(xi, target)
    w = linalg.expi_hermitian(linalg.hermitian_from_params(params, d - 1))
    u = (proj + q @ w @ q.conj().T) @ base
    return linalg.operator_norm(np.eye(d) - u)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("state", [False, True])
def test_batched_objective_equals_scalar_composition(dim, state):
    rng = np.random.default_rng(60 + dim)
    xis = np.stack([linalg.random_unit_vector(dim, rng) for _ in range(3)])
    etas = np.stack([linalg.random_unit_vector(dim, rng) for _ in range(3)])
    build = orbit._state_objective if state else orbit._exact_image_objective
    n = (dim - 1) ** 2 + state
    x = rng.normal(size=n)
    moves = np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    # a poll around x, then free rows; in state mode phases repeat and differ
    stack = np.concatenate([x + 0.25 * moves, rng.normal(size=(7, n))])
    if state:
        stack[-7:-3, 0] = stack[0, 0]
    # the rows belong to the three trials in turn, so every trial sees every phase
    trial = np.arange(stack.shape[0]) % 3
    objective = build(xis, etas)
    for _ in range(2):  # a call leaves the trials' carrier terms as they were
        got = objective(stack, trial)
        assert got.shape == (stack.shape[0],)
        want = [_scalar_objective(xis[k], etas[k], row, state) for row, k in zip(stack, trial)]
        assert np.max(np.abs(got - want)) <= 1e-14


def _eta_frame(eta):
    """E = [eta | Q] with Q the oracle's QR complement of eta."""
    q = np.linalg.qr(eta.reshape(-1, 1), mode="complete")[0]
    return np.concatenate([eta.reshape(-1, 1), q[:, 1:]], axis=1)


@settings(deadline=None, max_examples=300)
@given(
    dim=st.integers(2, 4),
    kind=st.sampled_from(["random", "colinear", "near"]),
    # at s = 1e-12 the kernel and the reference may round s to opposite
    # sides of the colinear threshold and take different, valid branches
    log_s=st.floats(-15.0, -1.0).filter(lambda v: abs(v + 12.0) > 1e-3),
    phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_carrier_equals_two_plane_unitary_in_eta_frame(dim, kind, log_s, phase, seed):
    xi, eta = two_plane_pair(kind, log_s, dim, np.random.default_rng(seed))
    z = np.exp(1j * phase)
    a, m1, m2 = orbit._frame(xi[None], eta[None])
    got = a[0] + z * m1[0] + np.conj(z) * m2[0]
    e = _eta_frame(eta)
    want = e.conj().T @ two_plane_reference(xi, z * eta) @ e
    assert np.max(np.abs(got.conj().T @ got - np.eye(dim))) <= 1e-14
    # zeta = r / s carries a rounding error of about eps / s in either
    # construction, which moves the carrier on zeta's line by as much
    s = np.linalg.norm(eta - np.vdot(xi, eta) * xi)
    slack = 16 * np.finfo(np.float64).eps / s if s > 1e-12 else 0.0
    assert np.max(np.abs(got - want)) <= max(1e-14, slack)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_state_objective_at_zero_phase_equals_exact_objective(dim):
    rng = np.random.default_rng(63 + dim)
    xis = np.stack([linalg.random_unit_vector(dim, rng) for _ in range(3)])
    etas = np.stack([linalg.random_unit_vector(dim, rng) for _ in range(3)])
    rows = rng.normal(size=(12, (dim - 1) ** 2))
    trial = np.arange(12) % 3
    exact = orbit._exact_image_objective(xis, etas)(rows, trial)
    state = orbit._state_objective(xis, etas)(np.hstack([np.zeros((12, 1)), rows]), trial)
    np.testing.assert_array_equal(state, exact)


@settings(deadline=None, max_examples=20)
@given(
    dim=st.sampled_from([2, 3, 4]),
    state=st.booleans(),
    budget=st.integers(1000, 2500),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_budget_accounting(dim, state, budget, seed):
    rng = np.random.default_rng(seed)
    xi, eta = _aligned_pair(dim, rng)
    oracle = orbit.state_min_distance_bruteforce if state else orbit.min_distance_bruteforce
    result = oracle(xi, eta, budget=budget, seed=seed)
    assert 1 <= result.evals_used <= budget
    assert result.budget_exhausted == (result.evals_used == budget)
    # a cut-off search ends at a step it still polled; a finished one below the floor
    assert result.budget_exhausted == (result.final_step >= orbit._STEP_MIN)
    # only the budget stops restarting early, so a search it never cut converged every restart
    if not result.budget_exhausted:
        assert result.converged_restarts == orbit._MAX_RESTARTS


def test_pattern_search_minimizes_separable_quadratic():
    center = np.array([0.3, -1.7, 2.05, 0.0123])
    weight = np.array([1.0, 3.0, 0.5, 2.0])

    def f(x, trial):
        return np.sum(weight * (x - center) ** 2, axis=-1)

    (result,) = orbit._lockstep_search(f, 4, budget=100_000, seeds=[0])
    assert result.final_step < orbit._STEP_MIN and result.evals_used < 100_000
    # a failed poll at step s leaves each coordinate within s/2 of the center
    assert result.distance <= np.sum(weight) * orbit._STEP_MIN**2


def test_finished_trials_keep_their_slots_and_add_no_rows():
    # each trial minimizes a quadratic of its own: trials 0 and 1 converge
    # every restart and finish at different calls, with budget left, while
    # trial 2's far center keeps it polling until the budget runs out
    centers = np.array([[0.3, -1.7], [2.0, 0.5], [-40.0, 25.0]])
    weights = np.array([[1.0, 3.0], [0.5, 2.0], [1.0, 1.0]])
    seeds = [0, 1, 2]

    def f(x, trial):
        return np.sum(weights[trial] * (x - centers[trial]) ** 2, axis=-1)

    rows = []

    def recording(x, trial):
        rows.append(np.bincount(trial, minlength=len(seeds)))
        return f(x, trial)

    results = orbit._lockstep_search(recording, 2, 3000, seeds)
    for k, result in enumerate(results):
        want = search_minimum(lambda x: f(x, np.full(len(x), k)), 2, 3000, seeds[k])
        assert result == want
    assert [r.budget_exhausted for r in results] == [False, False, True]
    rows = np.array(rows)
    assert rows.sum(axis=0).tolist() == [r.evals_used for r in results]
    last_call = [int(np.flatnonzero(rows[:, k])[-1]) for k in range(len(seeds))]
    assert last_call[0] < last_call[1] < last_call[2] == len(rows) - 1


def _pairs(dim, count, rng):
    pairs = [_aligned_pair(dim, rng) for _ in range(count)]
    return [xi for xi, _ in pairs], [eta for _, eta in pairs]


@settings(deadline=None, max_examples=30)
@given(
    dim=st.sampled_from([2, 3, 4]),
    state=st.booleans(),
    trials=st.integers(1, 6),
    budget=st.integers(1000, 2500),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_searches_equal_sequential_reference(dim, state, trials, budget, seed):
    # at dims 3 and 4 most searches at these budgets end in a poll cut to
    # the budget left, so cut polls are compared too
    rng = np.random.default_rng(seed)
    xis, etas = _pairs(dim, trials, rng)
    seeds = [int(s) for s in rng.integers(0, 2**32, size=trials)]
    searches = orbit.state_min_distance_searches if state else orbit.min_distance_searches
    build = orbit._state_objective if state else orbit._exact_image_objective
    results = searches(xis, etas, budget, seeds)
    assert len(results) == trials
    for xi, eta, pair_seed, result in zip(xis, etas, seeds, results):
        objective = build(xi[None], eta[None])
        want = search_minimum(
            lambda x: objective(x, np.zeros(len(x), dtype=np.int64)),
            (dim - 1) ** 2 + state,
            budget,
            pair_seed,
        )
        # equal floats, counts and flags field by field
        assert result == want


@pytest.mark.parametrize(
    "dim, state, first", [(3, False, 1262), (4, False, 1497), (3, True, 1635), (4, True, 1403)]
)
def test_lockstep_restart_edges_equal_sequential_reference(dim, state, first):
    # At budget `first`, trial 0's last restart starts at the last evaluation,
    # so budgets first .. first + 2P - 1 cut its first poll after 0 .. 2P - 1
    # moves; the other trials end elsewhere in their searches.
    rng = np.random.default_rng(5)
    xis, etas = _pairs(dim, 3, rng)
    seeds = [1, 3, 2]
    n_params = (dim - 1) ** 2 + state
    build = orbit._state_objective if state else orbit._exact_image_objective

    def reference(k, budget):
        objective = build(xis[k][None], etas[k][None])
        return search_minimum(
            lambda x: objective(x, np.zeros(len(x), dtype=np.int64)), n_params, budget, seeds[k]
        )

    rows = []

    def recording_build(xis, etas):
        objective = build(xis, etas)

        def recording(x, trial):
            rows.append(np.bincount(trial, minlength=len(seeds)))
            return objective(x, trial)

        return recording

    # one evaluation less ends inside an earlier restart, below the initial step
    assert reference(0, first - 1).final_step < orbit._STEP_INIT
    finishes = set()
    for budget in range(first, first + 2 * n_params):
        rows.clear()
        results = orbit._searches(recording_build, int(state), xis, etas, budget, seeds)
        # equal floats, counts and flags field by field
        assert results == [reference(k, budget) for k in range(len(seeds))]
        assert results[0].final_step == orbit._STEP_INIT and results[0].budget_exhausted
        calls = np.array(rows)
        # a finished trial adds no rows
        assert calls.sum(axis=0).tolist() == [r.evals_used for r in results]
        finishes.add(tuple(int(np.flatnonzero(calls[:, k])[-1]) for k in range(len(seeds))))
    # at some budgets a trial stays finished in its slot while the others poll
    assert any(len(set(last)) > 1 for last in finishes)


@pytest.mark.parametrize("state", [False, True])
def test_blocks_of_trials_leave_results_unchanged(state):
    rng = np.random.default_rng(62)
    xis, etas = _pairs(3, 7, rng)
    seeds = list(range(7))
    searches = orbit.state_min_distance_searches if state else orbit.min_distance_searches
    whole = searches(xis, etas, 1200, seeds)
    # a cap below one trial's poll runs every trial in a block of its own; one
    # of three state-mode polls (2 * 5 rows of 3 x 3 complex matrices) gives
    # blocks of 3, 3 and 1 trials in both modes
    with mock.patch.object(config, "BLOCK_BYTES", 1):
        assert searches(xis, etas, 1200, seeds) == whole
    with mock.patch.object(config, "BLOCK_BYTES", 3 * 2 * 5 * 16 * 9):
        assert searches(xis, etas, 1200, seeds) == whole


def test_min_distance_working_memory_is_bounded(tmp_path):
    # the trials' stacked polls run in blocks of at most BLOCK_BYTES of
    # d x d matrices, so the transient memory does not grow with the trials
    cap = 1 << 16
    argv = ["min-distance", "--dim", "4", "--trials", "200", "--budget", "1000",
            "--seed", "3", "--out-dir", str(tmp_path)]
    with mock.patch.object(config, "BLOCK_BYTES", cap):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 16 * cap + 200 * 4096


def test_searches_reject_malformed_batches():
    xi = np.array([1.0, 0.0])
    wide = np.array([1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        orbit.min_distance_searches([], [], 1000, [])
    with pytest.raises(InvalidInputError):
        orbit.min_distance_searches([xi, xi], [xi, xi], 1000, [0])
    with pytest.raises(InvalidInputError):
        orbit.state_min_distance_searches([xi, wide], [xi, wide], 1000, [0, 1])


@pytest.mark.parametrize("state", [False, True])
def test_oracle_reruns_are_bit_identical(state):
    rng = np.random.default_rng(61)
    xi, eta = _aligned_pair(4, rng)
    oracle = orbit.state_min_distance_bruteforce if state else orbit.min_distance_bruteforce
    # equal floats, counts and flags field by field
    assert oracle(xi, eta, budget=1500, seed=9) == oracle(xi, eta, budget=1500, seed=9)
