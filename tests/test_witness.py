import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlab import cli, config, linalg, witness
from carlab.errors import DomainError, InvalidInputError, NumericalInvariantError, SizeLimitError
from carlab.states import VectorState, pullback
from reference import (
    exhaustive_net_by_products,
    nearest_net_element,
    projector,
    random_test_elements_by_loop,
    rotation_unitary,
    stack_net,
    su2_grid_by_stacking,
    sup_gap,
    witness_search_by_chunks,
)


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
    _, dist = nearest_net_element(net, rotation_unitary(np.cos(0.3)))
    assert dist <= 0.5


def test_exhaustive_net_size_limit():
    # none above dim 2, and none past the cap: refused with no count, either
    # by the closed-form bound (1e-320, 0.02) or by the search over n (0.028)
    cases = [(d, 1.0) for d in (3, 4, 5, 8, 16, config.MAX_DIM)]
    for dim, epsilon in cases + [(2, 1e-320), (2, 0.02), (2, 0.028), (1, 1e-320), (1, 3e-7)]:
        with pytest.raises(SizeLimitError) as info:
            witness.enumerate_net(dim, epsilon)
        assert info.value.estimated_size is None


def test_net_size_cap_is_shared_and_checked_before_allocating():
    # 128 MB of elements: 2,000,000 at dim 2, the largest exhaustive net
    with pytest.raises(SizeLimitError) as info:
        witness.random_net(16, 0.4, size=100_000_000, seed=0)
    assert info.value.estimated_size == 100_000_001
    with pytest.raises(SizeLimitError):
        witness.random_net(2, 0.4, size=2_000_000, seed=0)
    assert len(witness.random_net(16, 0.4, size=10, seed=0)) == 11


# the witness-scan tests size their nets around the 8,192-element chunk
# the scans once took
_CHUNK = 8192


def _boom(*args, **kwargs):
    raise AssertionError("the exhaustive net takes no exponential")


def test_exhaustive_net_count_does_not_depend_on_exp_kernel():
    with mock.patch.object(linalg, "expi_hermitian", _boom), \
            mock.patch.object(np.linalg, "eigh", _boom):
        net = witness.enumerate_net(2, 0.4)
    assert len(net) == 26_640
    assert witness.exhaustive_net_plan(2, 0.4) == (6, 15, pytest.approx(0.39335, abs=1e-5))
    assert witness.exhaustive_net_plan(2, 0.2) == (12, 29, pytest.approx(0.19850, abs=1e-5))


def _su2(q):
    """SU(2) matrices of the rows of q, normalized to unit quaternions."""
    a, b, c, d = (q / np.linalg.norm(q, axis=-1, keepdims=True)).T
    return np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b], axis=1).reshape(-1, 2, 2)


def _adversarial_probes(dim, n, m, rng, count):
    """Haar probes, phase midpoints and projected cube-cell centres.

    A phase midpoint is an element turned by half a phase step, e^{i pi /
    (dim m)}; at dim 2 the midpoint phases multiply SU(2) matrices at the
    centres of random cells of the cube-surface grid, the points of S^3
    farthest from the grid before projection.
    """
    turn = np.exp(1j * np.pi * (2 * rng.integers(0, m, size=count) + 1) / (dim * m))
    if dim == 1:
        special = np.ones((count, 1, 1))
    else:
        h = 2.0 / n
        q = (rng.integers(0, n, size=(count, 4)) + 0.5) * h - 1.0
        axis = rng.integers(0, 4, size=count)
        q[np.arange(count), axis] = rng.choice([-1.0, 1.0], size=count)
        special = _su2(q)
    return np.concatenate([
        linalg.haar_unitary(dim, rng, count=count),
        turn[:, None, None] * special,
    ])


def _assert_covered(dim, epsilon, seed):
    net = witness.enumerate_net(dim, epsilon)
    n, m, radius = witness.exhaustive_net_plan(dim, epsilon)
    assert net.covering_radius == radius <= epsilon
    probes = _adversarial_probes(dim, n, m, np.random.default_rng(seed), 40)
    dists = witness._nearest(net, probes)[1]
    # 1e-12 is rounding: a dim-1 phase midpoint sits at the radius exactly
    assert dists.max() <= radius + 1e-12


@settings(deadline=None, max_examples=25)
@given(epsilon=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_exhaustive_net_covers_within_proven_radius_dim2(epsilon, seed):
    _assert_covered(2, epsilon, seed)


@settings(deadline=None, max_examples=40)
@given(epsilon=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
def test_exhaustive_net_covers_within_proven_radius_dim1(epsilon, seed):
    try:
        witness.exhaustive_net_plan(1, epsilon)
    except SizeLimitError:
        # at most 8,000,000 phases: too few to come within epsilon < 3.93e-7
        assert np.pi / epsilon > config.MAX_NET_BYTES // 16
        return
    _assert_covered(1, epsilon, seed)


@pytest.mark.parametrize(
    "dim, epsilon", [(1, 0.5), (1, 1.0), (2, 1.0), (2, 0.7), (2, 0.4), (2, 0.2)]
)
def test_exhaustive_net_is_exact_identity_first_and_distinct(dim, epsilon):
    net = witness.enumerate_net(dim, epsilon)
    n, m, radius = witness.exhaustive_net_plan(dim, epsilon)
    assert len(net) == m * (8 * n**3 + 8 * n if dim == 2 else 1)
    assert np.array_equal(net.elements[0], np.eye(dim))
    witness._check_all_unitary(net.elements)
    flat = net.elements.reshape(len(net), -1)
    # exact repeats, or repeats to 9 digits, would collapse under rounding
    assert len(np.unique(np.round(flat, 9) + 0.0, axis=0)) == len(net)
    if len(net) <= 1000:
        # every pair: ||a - b||_F^2 = 2 dim - 2 Re <a, b> for unitaries
        x = np.concatenate([flat.real, flat.imag], axis=1)
        gram = x @ x.T
        np.fill_diagonal(gram, -np.inf)
        assert 2 * dim - 2 * gram.max() > 1e-3


def _nearest_reference(elements, u):
    """The per-probe full scan that _nearest must reproduce bit for bit."""
    dists = linalg.operator_norms(elements - u)
    i = int(np.argmin(dists))
    return i, dists[i]


def _assert_nearest_matches_reference(net, probes):
    index, dist = witness._nearest(net, probes)
    assert index.shape == dist.shape == (len(probes),)
    elements = net.elements
    for k, u in enumerate(probes):
        i, d = _nearest_reference(elements, u)
        assert (index[k], dist[k]) == (i, d)


@settings(deadline=None, max_examples=150)
@given(
    dim=st.integers(1, 4),
    size=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    probes=st.sampled_from(["independent", "members", "scaled"]),
    ties=st.sampled_from(["none", "some", "every"]),
    tile_probes=st.sampled_from([1, 4, witness._TILE_PROBES]),
    # 1 byte: every exact slice holds a single pair
    block_bytes=st.sampled_from([1, 64, config.BLOCK_BYTES]),
)
# nets with fewer elements than the best-first pass norms first
@example(dim=4, size=3, seed=0, probes="independent", ties="none",
         tile_probes=witness._TILE_PROBES, block_bytes=config.BLOCK_BYTES)
@example(dim=2, size=1, seed=1, probes="scaled", ties="none", tile_probes=4, block_bytes=1)
# every least distance tied across the first and the second exact pass
@example(dim=4, size=40, seed=2, probes="independent", ties="every", tile_probes=1,
         block_bytes=1)
@example(dim=3, size=2, seed=3, probes="members", ties="every", tile_probes=4, block_bytes=64)
def test_nearest_equals_full_scan(dim, size, seed, probes, ties, tile_probes, block_bytes):
    rng = np.random.default_rng(seed)
    elements = linalg.haar_unitary(dim, rng, count=size)
    if ties == "some":
        # repeated elements: equal distances, of which the first index wins
        elements = elements[rng.integers(0, size, size=2 * size)]
    elif ties == "every":
        # each element more often than the best-first pass norms first,
        # shuffled, so ties at the least distance straddle both passes
        copies = np.repeat(np.arange(size), 2 * witness._FIRST_NORMS + 1)
        elements = elements[rng.permutation(copies)]
    if probes == "independent":
        u = linalg.haar_unitary(dim, rng, count=9)
    elif probes == "members":
        u = elements[rng.integers(0, len(elements), size=9)]
    else:
        # non-unitary probes, far inside and far outside the unit ball
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(9, 1, 1))
        u = scales * linalg.haar_unitary(dim, rng, count=9)
    with mock.patch.object(witness, "_TILE_PROBES", tile_probes), \
            mock.patch.object(config, "BLOCK_BYTES", block_bytes):
        _assert_nearest_matches_reference(stack_net(elements), u)


def _exhaustive_probes(net, rng):
    """Haar draws, members of later phases, and both scaled by 10^-3 and 10^3."""
    size = len(net.base)
    haar = linalg.haar_unitary(net.dim, rng, count=6)
    members = net.take(rng.integers(size, len(net), size=6))
    both = np.concatenate([haar, members])
    return np.concatenate([both, 1e-3 * both, 1e3 * both])


def _exhaustive_net_with_moduli(dim, epsilon, modulus):
    """`enumerate_net(dim, epsilon)` with every phase past the first scaled by 1 + modulus."""
    net = witness.enumerate_net(dim, epsilon)
    phases = net.phases.copy()
    phases[1:] *= 1.0 + modulus
    return dataclasses.replace(net, phases=phases)


_MODULI = st.sampled_from([0.0, -1e-10, 1e-10])


@settings(deadline=None, max_examples=25)
@given(dim=st.sampled_from([1, 2]), epsilon=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1),
       modulus=_MODULI)
@example(dim=2, epsilon=0.3, seed=0, modulus=-1e-10)
def test_grid_bound_never_exceeds_an_element_distance(dim, epsilon, seed, modulus):
    # the grid bound of each (probe, grid point), and each phase's bound,
    # less their slack, are within the squared exact distance of every
    # phase's element; phases off the unit circle by 1e-10 need the slack
    # for their moduli, and members of later phases scaled by 10^-3 show it
    net = _exhaustive_net_with_moduli(dim, epsilon, modulus)
    size, m = len(net.base), len(net.phases)
    probes = _exhaustive_probes(net, np.random.default_rng(seed))
    scan = witness._ProbeTile(net, probes, size)
    grid = scan.grid(0, size)
    q, points = np.repeat(np.arange(len(probes)), size), np.tile(np.arange(size), len(probes))
    ((_, phases),) = scan.phases(q, points, m)
    phases = phases.reshape(len(probes), size, m)
    for p, u in enumerate(probes):
        dist = linalg.operator_norms(net.elements - u).reshape(m, size)
        assert (grid[p] <= (dist * dist).min(axis=0)).all()
        assert (phases[p].T <= dist * dist).all()


@settings(deadline=None, max_examples=25)
@given(dim=st.sampled_from([1, 2]), epsilon=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1),
       modulus=_MODULI)
# a net of 15 phases; identity, a grid neighbour, the last element, and a
# probe 1e-12 from it
@example(dim=2, epsilon=0.7, seed=31, modulus=0.0)
def test_nearest_on_exhaustive_net_equals_full_scan(dim, epsilon, seed, modulus):
    net = _exhaustive_net_with_moduli(dim, epsilon, modulus)
    rng = np.random.default_rng(seed)
    probes = np.concatenate([
        linalg.haar_unitary(dim, rng, count=20),
        net.elements[[0, 1, len(net) - 1]],
        net.elements[-1:] + 1e-12,
        _exhaustive_probes(net, rng),
    ])
    _assert_nearest_matches_reference(net, probes)
    for u in probes[:3]:
        assert nearest_net_element(net, u) == tuple(_nearest_reference(net.elements, u))


def _density_reference(net, probes, seed):
    """The per-probe full scan the batched density report replaces."""
    rng = np.random.default_rng(seed)
    elements = net.elements
    return np.array([_nearest_reference(elements, linalg.haar_unitary(net.dim, rng))[1]
                     for _ in range(probes)])


@pytest.mark.parametrize("dim, size", [(2, 400), (4, 300)])
def test_density_report_equals_per_probe_scan(dim, size):
    net = witness.random_net(dim, 0.4, size=size, seed=3)
    dists = _density_reference(net, 50, seed=4)
    with mock.patch.object(config, "BLOCK_BYTES", 4096):
        report = witness.net_density_report(net, probes=50, seed=4)
    assert report.max_distance == dists.max()
    assert report.mean_distance == dists.mean()
    assert report.max_distance > 0.0


def test_density_report_working_memory_is_bounded():
    # a sparse net prunes few pairs; their exact norms are taken in slices,
    # so the transient memory stays a few block budgets at any probe count
    net = witness.random_net(4, 0.4, size=20, seed=2)
    tracemalloc.start()
    try:
        witness.net_density_report(net, probes=30_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * config.BLOCK_BYTES + 30_000 * 8


@pytest.mark.parametrize("build, probes", [
    (lambda: witness.enumerate_net(2, 0.4), 30),
    (lambda: witness.random_net(4, 0.4, size=3000, seed=1), 40),
], ids=["exhaustive-dim2", "random-dim4"])
def test_density_report_transient_memory_is_bounded(build, probes):
    # The witness benchmark's first two nets.  With element chunks outside
    # and probe tiles inside, the scan holds one chunk's columns and one
    # tile pair at a time: a few L2-sized budgets.  (Probe, element) tiles
    # of 4 MiB, each probe tile forming the chunk's columns anew, took
    # 6.4 MB and 4.7 MB here.
    assert config.BLOCK_BYTES <= 1 << 18
    net = build()
    witness.net_density_report(net, probes=1, seed=0)  # one-time allocations
    tracemalloc.start()
    try:
        witness.net_density_report(net, probes=probes, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config.BLOCK_BYTES


@pytest.mark.parametrize("build, probes", [
    (lambda: witness.enumerate_net(2, 0.4), 30),
    (lambda: witness.random_net(4, 0.4, size=3000, seed=1), 40),
    (lambda: witness.random_net(2, 0.4, size=5000, seed=1), 100),
], ids=["exhaustive-dim2", "random-dim4", "random-dim2"])
def test_density_scan_working_memory_is_three_budgets(build, probes):
    # The witness benchmark's three nets.  The scan forms no chunk of
    # elements nor its columns: a (probe, grid point) tile of one budget,
    # phase bounds, and exact norms of the few candidates.  Scanning
    # chunks of up to 8,192 elements took 1.85, 1.68 and 0.90 MB here.
    net = build()
    witness.net_density_report(net, probes=1, seed=0)  # one-time allocations
    tracemalloc.start()
    try:
        witness.net_density_report(net, probes=probes, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * config.BLOCK_BYTES


def test_density_report_refuses_no_probes():
    net = witness.random_net(2, 0.4, size=10, seed=0)
    for probes in (0, -1):
        with pytest.raises(InvalidInputError, match="density probe count"):
            witness.net_density_report(net, probes=probes)


# The witness benchmark's nets.  Norming every candidate within the seed's
# reach takes 13,183 and 9,054 exact norms at dim 4 (seeds 1 and 23), and
# 714 and 251 at dim 2: the best-first pass takes far fewer at dim 4 and
# never more.  Reusing the seed's norm in the first pass takes seed 1 at
# dim 4 from 2,159 to 2,119.
@pytest.mark.parametrize("argv, most", [
    ("--dim 4 --net random --net-size 3000 --pairs 15 --density-probes 40 --seed 1", 2119),
    ("--dim 4 --net random --net-size 3000 --pairs 15 --density-probes 40 --seed 23", 3500),
    ("--dim 2 --pairs 20 --density-probes 30 --seed 1", 714),
    ("--dim 2 --net random --net-size 5000 --pairs 50 --seed 1", 251),
])
def test_density_check_takes_few_exact_norms(tmp_path, argv, most):
    normed = []

    def counting(a):
        normed.append(len(a))
        return linalg.operator_norms(a)

    cli_argv = ["fsigma-search", "--epsilon", "0.4", "--density-check",
                *argv.split(), "--output", str(tmp_path / "w.json")]
    with mock.patch.object(witness, "operator_norms", counting):
        assert cli.main(cli_argv) == 0
    assert 0 < sum(normed) <= most


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


def _random_net_reference(dim, size, seed):
    """One draw of the whole stack behind the identity."""
    stack = linalg.haar_unitary(dim, np.random.default_rng(seed), count=size)
    return np.concatenate([np.eye(dim, dtype=np.complex128)[None], stack])


@pytest.mark.parametrize("dim, size", [(2, 5000), (4, 3000)])
@pytest.mark.parametrize("block_bytes", [1 << 12, config.BLOCK_BYTES])
def test_random_net_drawn_in_blocks_is_byte_identical(dim, size, block_bytes):
    with mock.patch.object(config, "BLOCK_BYTES", block_bytes):
        net = witness.random_net(dim, 0.4, size=size, seed=7)
    assert net.elements.tobytes() == _random_net_reference(dim, size, 7).tobytes()


def test_random_net_transient_memory_is_bounded():
    # a single draw peaks at about 5x the element array (167 MB here); in
    # blocks the transient beyond the elements stays a few block budgets
    tracemalloc.start()
    try:
        net = witness.random_net(16, 0.4, size=8000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= net.elements.nbytes + 8 * config.BLOCK_BYTES


def test_exhaustive_net_transient_memory_is_bounded():
    # the unitarity check of the whole 403,680-element net at once peaked
    # at about 3.3x the element array; in blocks it adds a few block budgets
    tracemalloc.start()
    try:
        net = witness.enumerate_net(2, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= net.elements.nbytes + 6 * config.BLOCK_BYTES


def test_su2_grid_is_byte_identical_to_stacked_form():
    for n in range(2, 41, 2):
        assert witness._su2_grid(n).tobytes() == su2_grid_by_stacking(n).tobytes()


def test_su2_grid_transient_memory_is_bounded_by_the_grid():
    # each face is written into the grid's own rows and normalized there;
    # per-face meshgrids, their stack and the four component arrays took
    # 3.13 MB for this 0.89 MB grid
    witness.enumerate_net(2, 1.0)  # one-time allocations
    tracemalloc.start()
    try:
        net = witness.enumerate_net(2, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * net.base.nbytes


@pytest.mark.parametrize("build", [
    lambda: witness.enumerate_net(1, 0.5),
    lambda: witness.enumerate_net(2, 0.7),
    lambda: witness.random_net(3, 0.4, size=50, seed=2),
], ids=["exhaustive-dim1", "exhaustive-dim2", "random-dim3"])
def test_take_equals_rows(build):
    net = build()
    index = np.random.default_rng(7).permutation(len(net))
    assert net.take(index).tobytes() == net.elements[index].tobytes()


@settings(deadline=None, max_examples=60)
@given(
    dim=st.sampled_from([1, 2]),
    epsilon=st.floats(0.15, 1.0),
    span=st.sampled_from(["phase 0", "one later phase", "across phases"]),
    data=st.data(),
)
def test_exhaustive_net_rows_equal_products_formed_whole(dim, epsilon, span, data):
    net = witness.enumerate_net(dim, epsilon)
    size, m = len(net.base), len(net.phases)
    assert len(net) == size * m
    first = {"phase 0": 0, "one later phase": data.draw(st.integers(1, m - 1)),
             "across phases": data.draw(st.integers(0, m - 2))}[span]
    lo = first * size + data.draw(st.integers(0, size - 1))
    end = (first + 1) * size
    hi = data.draw(st.integers(lo + 1, end) if span != "across phases"
                   else st.integers(end + 1, min(len(net), lo + 3 * size + 1)))
    last = (hi - 1) // size + 1
    expected = exhaustive_net_by_products(dim, epsilon, first, last)
    block = net.rows(lo, hi)
    assert block.shape == (hi - lo, dim, dim)
    assert block.tobytes() == expected[lo - first * size : hi - first * size].tobytes()
    # rows of phase 0 are the base itself, not a copy
    assert np.shares_memory(block, net.base) == (span == "phase 0")


@pytest.mark.parametrize("dim, epsilon", [(1, 0.5), (2, 0.7)])
def test_exhaustive_net_elements_equal_products_formed_whole(dim, epsilon):
    net = witness.enumerate_net(dim, epsilon)
    assert net.elements.tobytes() == exhaustive_net_by_products(dim, epsilon).tobytes()


@pytest.mark.parametrize("dim, epsilon, probes", [(1, 0.05, 20), (2, 0.7, 40), (2, 0.4, 30)])
def test_exhaustive_net_density_and_nearest_equal_full_scans(dim, epsilon, probes):
    net = witness.enumerate_net(dim, epsilon)
    size = len(net.base)
    # elements of phases 1 and later, at distance 0 from themselves
    members = [size, 2 * size - 1, len(net) // 2, len(net) - 1]
    haar = linalg.haar_unitary(dim, np.random.default_rng(5), count=10)
    probes_at = np.concatenate([haar, net.elements[members]])
    _assert_nearest_matches_reference(net, probes_at)
    index, dist = witness._nearest(net, probes_at)
    assert index[10:].tolist() == members and not dist[10:].any()
    report = witness.net_density_report(net, probes=probes, seed=4)
    dists = _density_reference(net, probes, seed=4)
    assert report.max_distance == dists.max()
    assert report.mean_distance == dists.mean()


@pytest.mark.parametrize("dim, epsilon", [(1, 0.5), (2, 1.0), (2, 0.4)])
def test_witness_search_on_exhaustive_net_equals_chunk_scan(dim, epsilon):
    net = witness.enumerate_net(dim, epsilon)
    tests = witness.build_test_element_net(dim, n_random=24, seed=dim)
    rng = np.random.default_rng(26)
    for _ in range(6):
        psi = VectorState(linalg.random_unit_vector(dim, rng))
        phi = pullback(psi, linalg.haar_unitary(dim, rng))
        _assert_scan_matches_chunks(phi, psi, net, tests)
    if dim == 2:
        # a test element of norm 1000 leaves no witness: the whole grid is
        # scanned, and the chunk scan over every phase finds none either
        e0 = np.eye(2, dtype=np.complex128)[0]
        wide = witness.TestElementNet(2, np.diag([1000.0, -1000.0]).astype(complex)[None])
        psi = VectorState(np.array([0.6, 0.8], dtype=np.complex128))
        assert witness.witness_search(VectorState(e0), psi, net, wide) is None
        _assert_scan_matches_chunks(VectorState(e0), psi, net, wide)


@pytest.mark.parametrize("epsilon", [1.0, 0.4])
def test_witness_free_search_reads_only_the_grid(epsilon, monkeypatch):
    # Ad(z u) = Ad(u), so no phase past the first is read: a witness-free
    # search scans the K grid points, not the m K elements
    net = witness.enumerate_net(2, epsilon)
    assert len(net.phases) > 1
    wide = witness.TestElementNet(2, np.diag([1000.0, -1000.0]).astype(complex)[None])
    phi = VectorState(np.eye(2, dtype=np.complex128)[0])
    psi = VectorState(np.array([0.6, 0.8], dtype=np.complex128))
    assert witness_search_by_chunks(phi, psi, net, wide) is None

    def no_rows(self, lo, hi):
        raise AssertionError("the witness search formed elements past the grid")

    monkeypatch.setattr(witness.UnitaryNet, "rows", no_rows)
    assert witness.witness_search(phi, psi, net, wide) is None


def test_exhaustive_net_scan_memory_is_bounded_by_the_grid():
    # the net is its phases and its 13,920-point grid (0.89 MB); formed
    # whole it was 25.8 MB.  Building the grid peaks at about 1.3x its
    # bytes; the scan adds a tile of one budget and the phase bounds and
    # exact norms of its few candidates.
    tracemalloc.start()
    try:
        net = witness.enumerate_net(2, 0.2)
        witness.net_density_report(net, probes=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net) == 403_680
    assert peak <= net.base.nbytes + 10 * config.BLOCK_BYTES


@settings(deadline=None, max_examples=60)
@given(
    case=st.sampled_from([(1, "phase"), (2, "phase"), (2, "grid")]),
    which=st.integers(0, 2**16),
    scale=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(2, "grid"), which=3, scale=4.0, seed=0)
@example(case=(2, "phase"), which=0, scale=0.05, seed=0)
def test_product_check_refuses_wherever_a_full_check_would(case, which, scale, seed):
    dim, target = case
    epsilon = 0.7
    n, m, _ = witness.exhaustive_net_plan(dim, epsilon)
    grid = witness._su2_grid(n) if dim == 2 else None
    phases = np.exp(2j * np.pi * np.arange(m) / (dim * m))
    delta = scale * config.CONSTRUCTION_TOL
    if target == "grid":
        # one grid point moved by delta in Frobenius norm, in a random direction
        rng = np.random.default_rng(seed)
        step = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        grid[which % len(grid)] += delta * step / np.linalg.norm(step)
    else:
        phases[which % m] *= 1.0 + delta * (1 if seed % 2 else -1)
    base = grid if dim == 2 else np.ones((1, 1, 1), dtype=np.complex128)
    try:
        worst = witness._check_all_unitary((phases[:, None, None, None] * base).reshape(-1, dim, dim))
    except NumericalInvariantError:
        worst = None  # a full check of the products refuses them
    with mock.patch.object(witness, "_su2_grid", lambda n: grid.copy()), \
            mock.patch.object(np, "exp", lambda x: phases.copy()):
        if worst is None:
            with pytest.raises(NumericalInvariantError, match="off unitarity"):
                witness.enumerate_net(dim, epsilon)
        elif worst < config.CONSTRUCTION_TOL - 1e-12:
            # and no stricter than the full check, but for the rounding it adds
            witness.enumerate_net(dim, epsilon)


@pytest.mark.parametrize(
    "request_net",
    [
        lambda: witness.enumerate_net(config.MAX_DIM + 1, 0.4),
        lambda: witness.random_net(config.MAX_DIM + 1, 0.4, size=1, seed=0),
        lambda: witness.build_test_element_net(config.MAX_DIM + 1),
    ],
    ids=["enumerate_net", "random_net", "build_test_element_net"],
)
def test_net_dimension_past_the_cap_is_a_size_limit(request_net):
    with pytest.raises(SizeLimitError) as info:
        request_net()
    assert info.value.estimated_size == config.MAX_DIM + 1


def test_net_resolution_validation():
    with pytest.raises(DomainError):
        witness.enumerate_net(2, 0.0)
    with pytest.raises(InvalidInputError):
        witness.random_net(2, 0.5, size=0, seed=0)


@pytest.mark.parametrize(
    "request_net, error, message",
    [
        # the dimension first, then a random net's size, then the resolution
        (lambda: witness.enumerate_net(0, 2.0), InvalidInputError, "bad net dimension"),
        (lambda: witness.exhaustive_net_plan(0, 2.0), InvalidInputError, "bad net dimension"),
        (lambda: witness.random_net(0, 2.0, size=0, seed=0), InvalidInputError, "bad net dimension"),
        (lambda: witness.random_net(2, 2.0, size=0, seed=0), InvalidInputError, "net size"),
        (lambda: witness.exhaustive_net_plan(2, 2.0), DomainError, "resolution"),
        # and the resolution before the byte cap
        (lambda: witness.random_net(2, 2.0, size=10**9, seed=0), DomainError, "resolution"),
    ],
)
def test_net_request_checks_run_in_order(request_net, error, message):
    with pytest.raises(error, match=message):
        request_net()


def test_test_element_net_contractions():
    net = witness.build_test_element_net(4, n_random=10, seed=3)
    assert net.dim == 4
    assert len(net.elements) == 16 + 10
    for a in net.elements:
        assert linalg.operator_norm(a) <= 1.0 + 1e-9


def test_test_element_net_cap_refused_before_drawing():
    # 128 MB of complex128 elements: 2,000,000 at dim 2, 31,250 at dim 16
    draws = mock.patch.object(witness, "random_hermitian_contraction",
                              wraps=linalg.random_hermitian_contraction)
    with draws as draw:
        with pytest.raises(SizeLimitError) as info:
            witness.build_test_element_net(2, n_random=2_000_000 - 3)
        assert info.value.estimated_size == 2_000_001
        with pytest.raises(SizeLimitError):
            witness.build_test_element_net(16, n_random=31_250 - 255)
        with pytest.raises(SizeLimitError):
            witness.build_test_element_net(2, n_random=10**20)
        draw.assert_not_called()
        # the mock is what draws: a net within the cap goes through it
        witness.build_test_element_net(2, n_random=3)
    draw.assert_called_once()


def test_test_element_net_refuses_negative_count():
    with pytest.raises(InvalidInputError, match="negative"):
        witness.build_test_element_net(2, n_random=-1)


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
@pytest.mark.parametrize("n_random, rows", [
    (0, None), (1, None), (24, None),
    # block edges, with three drawn contractions to a block
    (2, 3), (3, 3), (4, 3), (7, 3),
])
def test_test_element_net_equals_draws_one_at_a_time(dim, n_random, rows):
    budget = config.BLOCK_BYTES if rows is None else rows * 64 * dim * dim
    with mock.patch.object(config, "BLOCK_BYTES", budget):
        net = witness.build_test_element_net(dim, n_random=n_random, seed=dim + n_random)
    expected = random_test_elements_by_loop(dim, n_random, seed=dim + n_random)
    assert net.elements.shape == (dim * dim + n_random, dim, dim)
    assert net.elements.tobytes() == expected.tobytes()


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


def _witness_reference(phi, psi, net, test_net):
    """The three-operand einsum scan that the one-GEMM scan replaces."""
    phi_vals = np.array([np.vdot(phi.vector, a @ phi.vector) for a in test_net.elements])
    pulled = np.einsum("nji,j->ni", net.elements.conj(), psi.vector)
    vals = np.einsum("ni,aij,nj->na", pulled.conj(), test_net.elements, pulled)
    gaps = np.max(np.abs(vals - phi_vals[None, :]), axis=1)
    hits = np.nonzero(gaps < 1.0 - witness.WITNESS_STRICTNESS)[0]
    return (int(hits[0]), gaps[hits[0]]) if hits.size else None


@pytest.mark.parametrize("dim", [2, 4])
def test_witness_search_equals_einsum_scan(dim):
    rng = np.random.default_rng(25 + dim)
    net = witness.random_net(dim, 0.4, size=20_000, seed=dim)
    tests = witness.build_test_element_net(dim, n_random=10, seed=dim)
    for _ in range(6):
        psi = VectorState(linalg.random_unit_vector(dim, rng))
        phi = pullback(psi, linalg.haar_unitary(dim, rng))
        result = witness.witness_search(phi, psi, net, tests)
        expected = _witness_reference(phi, psi, net, tests)
        assert result is not None and expected is not None
        assert result.index == expected[0]
        assert abs(result.gap - expected[1]) <= 1e-14


def _net_with_one_witness(dim, size, k, seed, vary_bad=False, n_random=10):
    """States phi = e_0 and psi near it, and a net whose only witness is I at k.

    Every other element u sends psi to a vector orthogonal to phi, so the
    matrix unit E_00 alone gives it gap 1; `vary_bad` right-multiplies
    each by its own unitary fixing e_0, which keeps that gap.  k = None
    puts no witness in the net.
    """
    rng = np.random.default_rng(seed)
    phi = np.eye(dim, dtype=np.complex128)[0]
    psi = phi + 0.1 * linalg.random_unit_vector(dim, rng)
    psi /= np.linalg.norm(psi)
    bad = linalg.two_plane_unitary(psi, np.eye(dim)[1]).conj().T
    elements = np.repeat(bad[None], size, axis=0)
    if vary_bad:
        elements[:, :, 1:] = elements[:, :, 1:] @ linalg.haar_unitary(dim - 1, rng, count=size)
    if k is not None:
        elements[k] = np.eye(dim)
    net = stack_net(elements)
    tests = witness.build_test_element_net(dim, n_random=n_random, seed=seed)
    return VectorState(phi), VectorState(psi), net, tests


def _assert_scan_matches_chunks(phi, psi, net, tests):
    result = witness.witness_search(phi, psi, net, tests)
    expected = witness_search_by_chunks(phi, psi, net, tests)
    if expected is None:
        assert result is None
        return
    assert result is not None
    assert result.index == expected.index
    assert np.array_equal(result.unitary, expected.unitary)
    assert result.gap == expected.gap


@pytest.mark.parametrize("k", [0, 63, 64, 65, 191, 8191, 8192, 8193, 20000])
@pytest.mark.parametrize("extra", [1, 2, None])
def test_growing_scan_equals_chunk_scan(k, extra):
    # extra rows after the witness; None makes a 3-chunk net with a 1-row tail
    size = 3 * _CHUNK + 1 if extra is None else k + extra
    phi, psi, net, tests = _net_with_one_witness(2, size, k, seed=k)
    result = witness.witness_search(phi, psi, net, tests)
    assert result is not None and result.index == k and result.gap < 1.0
    _assert_scan_matches_chunks(phi, psi, net, tests)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("size", [65, 129, 4097])
def test_growing_scan_keeps_gap_of_lone_last_row(dim, size):
    # a witness in the last row, one past a block boundary; numpy's
    # vector-matrix product changes such a gap in the last bit for about
    # a third of these states
    for seed in range(12):
        _assert_scan_matches_chunks(*_net_with_one_witness(dim, size, size - 1, seed))


def test_growing_scan_without_witness_returns_none():
    phi, psi, net, tests = _net_with_one_witness(2, 20_001, None, seed=3)
    assert witness.witness_search(phi, psi, net, tests) is None
    _assert_scan_matches_chunks(phi, psi, net, tests)


@settings(deadline=None, max_examples=30)
@given(
    dim=st.sampled_from([2, 4]),
    k=st.integers(0, 20_000),
    extra=st.integers(1, 9000),
    seed=st.integers(0, 2**16),
)
def test_growing_scan_equals_chunk_scan_random(dim, k, extra, seed):
    phi, psi, net, tests = _net_with_one_witness(dim, k + extra, k, seed, vary_bad=True)
    _assert_scan_matches_chunks(phi, psi, net, tests)


def _assert_scan_schedule(n, most):
    # contiguous cover of [0, n), a first block of at most 64 rows (65 when
    # it takes a 65-row net's lone last row along), no one-row block unless
    # n = 1, and at most most + 1 rows per block
    blocks = list(witness._scan_blocks(n, most))
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert blocks[0][1] <= witness._FIRST_BLOCK + (n == witness._FIRST_BLOCK + 1)
    assert all(hi - lo > 1 for lo, hi in blocks) or n == 1
    assert all(hi - lo <= most + 1 for lo, hi in blocks)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 4097, 8191, 8192, 8193, 8194, 16385, 30000])
def test_scan_blocks_grow_and_keep_one_row_blocks_where_chunks_have_them(n):
    # the names predate the schedule's indifference to chunks: no block has
    # one row unless the net has one, wherever _CHUNK falls
    _assert_scan_schedule(n, _CHUNK)
    _assert_scan_schedule(n, 2048)


@pytest.mark.parametrize("most", [2, 3, 5, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 30, 31, 32, 65, 8191, 8192, 8193, 8194, 16387])
def test_scan_blocks_capped_keep_one_row_blocks_where_chunks_have_them(n, most):
    _assert_scan_schedule(n, most)


def _scan_rows(tests):
    return max(2, config.block_rows(16 * (tests.dim**2 + len(tests.elements))))


@pytest.mark.parametrize("n_random, most", [(6000, 2), (5000, 3)])
@pytest.mark.parametrize("size", [30, 31, 32])
def test_capped_scan_on_wide_test_nets_equals_chunk_scan(n_random, most, size):
    # test nets so wide that a scan block holds 2 or 3 rows; net sizes
    # 0, 1 and 2 modulo that cap, witnesses up to the last row
    for k, seed in [(size - 1, 0), (size - 2, 1), (size - 3, 2), (size // 2, 3)]:
        phi, psi, net, tests = _net_with_one_witness(
            2, size, k, seed, vary_bad=True, n_random=n_random
        )
        assert _scan_rows(tests) == most
        result = witness.witness_search(phi, psi, net, tests)
        assert result is not None and result.index == k
        _assert_scan_matches_chunks(phi, psi, net, tests)


@pytest.mark.parametrize("most", [2, 3])
def test_capped_scan_across_a_chunk_equals_chunk_scan(most):
    # n = _CHUNK + 1 at a 2- or 3-row cap; the budget is shrunk instead of
    # the test net widened, as the whole-chunk reference would form
    # (_CHUNK, k) arrays of about 800 MB at such widths
    size = _CHUNK + 1
    for k in (size - 3, size - 2, size - 1):
        phi, psi, net, tests = _net_with_one_witness(2, size, k, seed=k, vary_bad=True)
        row_bytes = 16 * (tests.dim**2 + len(tests.elements))
        with mock.patch.object(config, "BLOCK_BYTES", most * row_bytes):
            assert _scan_rows(tests) == most
            result = witness.witness_search(phi, psi, net, tests)
        assert result is not None and result.index == k
        _assert_scan_matches_chunks(phi, psi, net, tests)


def test_witness_scan_memory_is_bounded_by_test_net_width():
    # 4,000 test elements: the 64-row first block alone formed 4 MB
    # arrays, and a scan reaching the 8192-row blocks would need about 1 GB
    phi, psi, net, tests = _net_with_one_witness(2, 300, 200, seed=5, n_random=4000)
    witness.witness_search(phi, psi, net, tests)  # one-time allocations
    tracemalloc.start()
    try:
        result = witness.witness_search(phi, psi, net, tests)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is not None and result.index == 200
    assert peak <= 4 * config.BLOCK_BYTES


def test_witness_gap_tracks_state_distance_when_identity_probe():
    # sup over a rich test net sits between 2(1-c^2) and 2 sqrt(1-c^2)
    tests = witness.build_test_element_net(2, n_random=16, seed=7)
    previous = None
    for c in np.linspace(0.95, 0.1, 8):
        xi = np.array([1.0, 0.0])
        eta = np.array([c, np.sqrt(1 - c * c)])
        phi, psi = VectorState(xi), VectorState(eta)
        observable = projector(xi) - projector(eta)
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
