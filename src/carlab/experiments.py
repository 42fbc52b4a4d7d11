"""The experiments behind the command-line subcommands, one `run_*` each.

Each run takes the parsed flags and returns the artifact's rows and
summary.  `carlab.cli` imports this module only once the flags have
parsed, so help, version and flag refusals never import numpy.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .config import check_count
from .errors import InvalidInputError, NumericalInvariantError
from .intertwiner import (
    block_gap,
    block_gaps,
    build_chain,
    distance_crossing_level,
    separation_rows,
)
from .linalg import haar_unitary, phase_align, random_unit_vector
from .orbit import (
    SearchResult,
    min_distance_searches,
    product_min_distance,
    state_min_distance_searches,
)
from .seeding import derive_seeds
from .sequences import MIN_TERMS, angles_from_descriptor, classify_pair
from .sequences import partial_products, weierstrass_bounds
from .states import VectorState, pullback
from .truncation import kron_vectors
from .witness import (
    distance_bound_check,
    enumerate_net,
    net_density_report,
    random_net,
    build_test_element_net,
    witness_search,
)


def run(args):
    """Rows and summary of the run that `args.run` names.

    A failed eigen-decomposition is a numerical-invariant error (exit 4).
    """
    try:
        return globals()[args.run](args)
    except np.linalg.LinAlgError as exc:
        raise NumericalInvariantError(str(exc)) from exc


def _search_diagnostics(search: SearchResult) -> dict:
    """How an oracle's search ended: every field of the result but the distance."""
    diagnostics = asdict(search)
    del diagnostics["distance"]
    return diagnostics


def _angle_pair(args, length: int, length_from: str):
    """alpha and beta at `length`; a file too short for it is refused naming `length_from`."""
    return tuple(angles_from_descriptor(d, length, length_from) for d in (args.alpha, args.beta))


def run_min_distance(args):
    """Closed form vs exact-image search oracle on random vector pairs."""
    seeds = derive_seeds(args.seed, args.trials)
    xis, etas = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        xi = random_unit_vector(args.dim, rng)
        xis.append(xi)
        # states forget global phases, so compare on the aligned representative
        etas.append(phase_align(xi, random_unit_vector(args.dim, rng)))
    searches = min_distance_searches(xis, etas, args.budget, seeds)
    rows = []
    worst = 0.0
    for trial, (xi, eta, search) in enumerate(zip(xis, etas, searches)):
        report = product_min_distance([xi], [eta])
        err = abs(search.distance - report.distance_single)
        worst = max(worst, err)
        rows.append(
            {
                "trial": trial,
                "abs_overlap": report.overlap_product,
                "closed_form": report.distance_single,
                "oracle": search.distance,
                "abs_error": err,
                **_search_diagnostics(search),
            }
        )
    summary = {
        "trials": args.trials,
        "max_abs_error": worst,
        "tolerance": 1e-4,
        "within_tolerance": worst <= 1e-4,
    }
    return rows, summary


def run_product_distance(args):
    """Adjudicate the two rival product-state constants with the oracle."""
    seeds = derive_seeds(args.seed, args.pairs)
    reports, xis, etas = [], [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x1, x2 = random_unit_vector(2, rng), random_unit_vector(2, rng)
        e1, e2 = random_unit_vector(2, rng), random_unit_vector(2, rng)
        reports.append(product_min_distance([x1, x2], [e1, e2]))
        xis.append(kron_vectors(np.array([x1, x2])))
        etas.append(kron_vectors(np.array([e1, e2])))
    searches = state_min_distance_searches(xis, etas, args.budget, seeds)
    rows = []
    max_err_single = 0.0
    min_dev_doubled = np.inf
    for pair, (report, search) in enumerate(zip(reports, searches)):
        err_single = abs(search.distance - report.distance_single)
        dev_doubled = abs(search.distance - report.distance_doubled)
        max_err_single = max(max_err_single, err_single)
        min_dev_doubled = min(min_dev_doubled, dev_doubled)
        rows.append(
            {
                "pair": pair,
                "overlap_product": report.overlap_product,
                "distance_single": report.distance_single,
                "distance_doubled": report.distance_doubled,
                "oracle": search.distance,
                "error_single": err_single,
                "deviation_doubled": dev_doubled,
                **_search_diagnostics(search),
            }
        )
    summary = {
        "pairs": args.pairs,
        "max_error_single": max_err_single,
        "min_deviation_doubled": float(min_dev_doubled),
        "tolerance": 1e-3,
        "single_within_tolerance": max_err_single <= 1e-3,
    }
    return rows, summary


def run_reduce(args):
    """Per-level chain table plus the scalar trend classification."""
    if args.length < args.levels:
        raise InvalidInputError(
            f"--length {args.length} is below --levels {args.levels}"
        )
    if args.length < MIN_TERMS:  # refused before any chain or row is built
        raise InvalidInputError(f"--length {args.length} is below the minimum of {MIN_TERMS} terms")
    alpha, beta = _angle_pair(args, args.length, "--length")
    chain = build_chain(alpha, beta, args.levels, phase_policy=args.phase_policy)
    rows = []
    for tail in separation_rows(alpha, beta, 1, args.levels):
        gap = block_gap(chain, tail.n - 1, tail.n)
        rows.append(
            {
                "n": tail.n,
                "gap_to_prev": gap.measured,
                "overlap_bound": gap.overlap_bound,
                "eigenphase_norm": gap.eigenphase_norm,
                "overlap_product": tail.overlap,
                "state_distance": tail.state_distance,
            }
        )
    summary = asdict(classify_pair(alpha, beta))
    summary["diagnostic_length"] = args.length
    return rows, summary


def run_cauchy_gaps(args):
    """Chain block gaps: factor-spectrum measurement vs closed form vs claimed bound."""
    alpha, beta = _angle_pair(args, max(args.levels, 1), "--levels")
    chain = build_chain(alpha, beta, args.levels, phase_policy=args.phase_policy)
    gaps = block_gaps(chain, max_span=args.max_span)
    if not gaps:
        raise InvalidInputError("cauchy-gaps needs --levels >= 2 to form a block")
    worst_mismatch = max(abs(g.measured - g.eigenphase_norm) for g in gaps)
    summary = {
        "blocks": len(gaps),
        "flagged_blocks": sum(g.exceeds_bound for g in gaps),
        "max_spectral_mismatch": worst_mismatch,
        "spectral_agreement": worst_mismatch <= 1e-8,
    }
    return [asdict(g) for g in gaps], summary


def run_separation(args):
    """Tail-state overlap decay, distances, and separating witnesses."""
    stop = args.start + args.levels - 1
    # the crossing search reads --search-limit angles, the rows `stop`
    flag = "--search-limit" if args.search_limit >= stop else "--start + --levels - 1"
    alpha, beta = _angle_pair(args, max(args.search_limit, stop), flag)
    crossing = distance_crossing_level(
        alpha, beta, threshold=args.threshold, start=args.start, limit=args.search_limit
    )
    rows = [asdict(r) for r in separation_rows(alpha, beta, start=args.start, stop=stop)]
    summary = {
        "threshold": args.threshold,
        "crossing_level": crossing,
        "search_limit": args.search_limit,
    }
    return rows, summary


def run_fsigma_search(args):
    """Witness search over a unitary net for pulled-back state pairs."""
    if args.density_check:  # refused before the net is built and searched
        check_count(args.density_probes, "density probe count")
    if args.net == "exhaustive" or (args.net == "auto" and args.dim == 2):
        net = enumerate_net(args.dim, args.epsilon)
    else:
        net = random_net(args.dim, args.epsilon, size=args.net_size, seed=args.seed)
    # pairs, then the test elements, then the density probes: the probes
    # need a stream of their own, as the net's seed would redraw the net
    seeds = derive_seeds(args.seed, args.pairs + 2)
    tests = build_test_element_net(args.dim, n_random=args.test_elements, seed=seeds[args.pairs])
    rows = []
    found_count = 0
    far_count = 0
    for pair, seed in enumerate(seeds[: args.pairs]):
        rng = np.random.default_rng(seed)
        psi = VectorState(random_unit_vector(args.dim, rng))
        v = haar_unitary(args.dim, rng)
        phi = pullback(psi, v)
        result = witness_search(phi, psi, net, tests)
        if result is None:
            rows.append(
                {
                    "pair": pair,
                    "found": False,
                    "witness_index": None,
                    "gap": None,
                    "norm_distance": None,
                    "below_two": False,
                }
            )
            continue
        found_count += 1
        bound = distance_bound_check(phi, psi, result.unitary)
        far_count += bound.norm_distance >= 1.0
        rows.append(
            {
                "pair": pair,
                "found": True,
                "witness_index": result.index,
                "gap": result.gap,
                "norm_distance": bound.norm_distance,
                "below_two": bound.below_two,
            }
        )
    summary = {
        "pairs": args.pairs,
        "found": found_count,
        "all_found": found_count == args.pairs,
        "found_distance_ge_1": far_count,
        "net_mode": net.mode,
        "net_size": len(net),
        "net_resolution": net.resolution,
        "net_covering_radius": net.covering_radius,
    }
    if args.density_check:
        report = net_density_report(net, probes=args.density_probes, seed=seeds[-1])
        summary["density_probes"] = report.probes
        summary["density_max_distance"] = report.max_distance
        summary["density_mean_distance"] = report.mean_distance
        summary["density_within_resolution"] = report.within_resolution
    return rows, summary


_FAMILIES = {
    "geometric": lambda n: 1.0 - 0.5 ** np.arange(1, n + 1),
    "telescoping": lambda n: 1.0 - 1.0 / np.arange(2, n + 2),
}


def run_product_test(args):
    """Running products of a factor family against their sandwich bounds."""
    factors = _FAMILIES[args.family](check_count(args.terms, "factor count"))
    products = partial_products(factors)
    lower, upper = weierstrass_bounds(factors)
    rows = []
    sandwich_ok = True
    for j in range(args.terms):
        exact = 1.0 / (j + 2) if args.family == "telescoping" else None
        sandwich_ok &= bool(
            lower[j] - 1e-12 <= products[j] <= upper[j] + 1e-12
        )
        rows.append(
            {
                "term": j + 1,
                "factor": float(factors[j]),
                "partial_product": float(products[j]),
                "lower_bound": float(lower[j]),
                "upper_bound": float(upper[j]),
                "exact": exact,
            }
        )
    summary = {
        "family": args.family,
        "terms": args.terms,
        "sandwich_holds": sandwich_ok,
        "final_product": float(products[-1]),
    }
    if args.family == "geometric":
        # first factor pulled out, Weierstrass applied to the tail
        refined = float(factors[0]) * (1.0 - float(np.sum(1.0 - factors[1:])))
        summary["refined_floor"] = refined
        summary["floor_holds"] = bool(products[-1] >= refined - 1e-12)
    if args.family == "telescoping":
        exact_vals = 1.0 / np.arange(2, args.terms + 2)
        summary["max_exact_error"] = float(np.max(np.abs(products - exact_vals)))
    return rows, summary
