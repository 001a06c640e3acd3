"""Solvers: interpolation, ball algorithm, adaptive algorithm."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, GuardExceeded,
                      OutOfRangeError, Partition, Problem, SingularSpectrum,
                      Walk, adaptive_algorithm, adaptive_sweep, ball_algorithm,
                      ball_budget, block_norm, cone_membership,
                      derivative_coefficients, derivative_problem,
                      enumerate_derivative_spectrum, interpolate,
                      periodic_approximation_spectrum, random_periodic_input,
                      random_cone_member, stop_threshold, tail_norm,
                      tail_norms, true_error)
from adaptlin import algorithm as algorithm_module
from adaptlin.cli import _sweep

from conftest import (CountedHarmonic, brute_tail, coefficient_of,
                      profile_member, unit_spectrum)


def geometric_coefficients(support=8):
    return CoefficientSource.from_vector([2.0 ** -i
                                          for i in range(1, support + 1)])


def spied(f):
    """``f``, whose ``coefficients`` now records each index it is asked
    for, and the list of them."""
    asked = []
    read = f.coefficients

    def coefficients(indices):
        asked.extend(indices)
        return read(indices)

    f.coefficients = coefficients
    return f, asked


# -- stop_threshold ----------------------------------------------------------

def test_stop_threshold_values():
    cone = ConeParams(2.0, 0.5)
    assert stop_threshold(cone, 0.1) == pytest.approx(
        0.1 * math.sqrt(0.75), rel=1e-15)
    assert stop_threshold(cone, 0.05) == pytest.approx(
        0.04330127018922193, rel=1e-15)


# -- interpolate -------------------------------------------------------------

def test_interpolate_empty_budget(harmonic_doubling):
    approx = interpolate(harmonic_doubling, geometric_coefficients(), 0)
    assert approx.cost == 0
    assert approx.values.tolist() == []
    assert approx.stop_block is None
    assert approx.error_bound is None


def test_interpolate_products(harmonic_doubling):
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0])
    approx = interpolate(harmonic_doubling, f, 2)
    assert approx.values.tolist() == [1.0, 0.5]
    assert approx.cost == 2


def test_interpolate_zero_input(harmonic_doubling):
    approx = interpolate(harmonic_doubling, CoefficientSource.zero(), 5)
    assert approx.cost == 5
    assert approx.values.size == 0  # zero support: every product implied


def test_interpolate_rejects_negative(harmonic_doubling):
    with pytest.raises(ValueError):
        interpolate(harmonic_doubling, CoefficientSource.zero(), -1)


@pytest.mark.parametrize("support", [0, 3, 7, 12])
def test_interpolate_past_the_support_has_the_bits_of_the_products(
        harmonic_doubling, support):
    f = CoefficientSource.from_vector(
        np.random.default_rng(8).normal(size=support))
    approx = interpolate(harmonic_doubling, f, 9)
    span = range(1, 10)
    products = harmonic_doubling.spectrum.values(span) * f.coefficients(span)
    # values stop at the support; the zeros through the cost are implied
    top = min(support, 9)
    assert approx.values.tobytes() == products[:top].tobytes()  # +0.0 included
    assert not products[top:].any()
    assert approx.cost == 9


def test_interpolate_reads_lam_only_through_the_support():
    # n far past a three-entry support: lam is read through index 3 alone
    spectrum = CountedHarmonic()
    problem = Problem(spectrum, Partition.doubling(1), ConeParams(2.0, 0.5))
    before = len(spectrum.reads)
    f = CoefficientSource.from_vector([1.0, 0.5, 0.25])
    assert interpolate(problem, f, 2 ** 26).values.tolist() == [1.0, 0.25,
                                                               0.25 / 3]
    assert all(read.max() <= 3 for read in spectrum.reads[before:])


def test_an_overflowing_product_is_inf_without_a_warning():
    # lam_1 * fhat_1 = 1e300 * 1e160 is past the float range; the ball
    # budget at 4e299 is 2, since lam_3 = 1e300 / 3 <= 4e299 < lam_2
    problem = Problem(SingularSpectrum.from_rule(lambda i: 1e300 / i),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1e160, 1.0])
    assert interpolate(problem, f, 2).values.tolist() == [math.inf, 5e299]
    assert ball_algorithm(problem, f, 4e299, 1.0).values.tolist() \
        == [math.inf, 5e299]


def test_interpolate_past_a_finite_table_raises():
    problem = Problem(SingularSpectrum.from_values([1.0, 0.5, 0.25]),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    assert interpolate(problem, CoefficientSource.zero(), 3).cost == 3
    with pytest.raises(OutOfRangeError):
        interpolate(problem, CoefficientSource.zero(), 4)


# -- ball_algorithm ----------------------------------------------------------

def test_ball_matches_periodic_closed_form():
    problem = Problem(periodic_approximation_spectrum(2.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    approx = ball_algorithm(problem, CoefficientSource.zero(), 0.1, 10.0)
    assert approx.cost == 19  # 2 * ceil((rho/eps)**(1/r)) - 1
    assert approx.tolerance == 0.1


def test_ball_zero_budget_when_first_weight_qualifies():
    problem = Problem(SingularSpectrum.geometric(2.0, 2.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    for eps in (1.0, math.inf):
        approx = ball_algorithm(problem, CoefficientSource.zero(), eps, 1.0)
        assert approx.cost == 0


def test_ball_scan_example():
    # lam_i = 2**(1-i): lam_3 = 1/4 <= 0.3 < lam_2 = 1/2
    problem = Problem(SingularSpectrum.geometric(2.0, 2.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    approx = ball_algorithm(problem, CoefficientSource.zero(), 0.3, 1.0)
    assert approx.cost == 2


def test_ball_guarantee_over_ball(harmonic_doubling):
    rng = np.random.default_rng(20)
    rho = 2.0
    for eps in (1.0, 0.3, 0.05):
        raw = rng.normal(size=50)
        raw *= rho / np.linalg.norm(raw)
        f = CoefficientSource.from_vector(raw)
        approx = ball_algorithm(harmonic_doubling, f, eps, rho)
        # a priori certificate, checked against the realized error
        n_next = harmonic_doubling.spectrum.value(approx.cost + 1)
        assert n_next * rho <= eps * (1 + 1e-12)
        assert true_error(harmonic_doubling, f, approx) <= eps


def test_ball_guard():
    # lam_i = 1/i: a budget of 10**12 is past the 2**30 scan limit
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    with pytest.raises(GuardExceeded, match="within 1073741824 indices"):
        ball_algorithm(problem, CoefficientSource.zero(), 1e-12, 1.0)


def test_a_quotient_below_the_float_range_leaves_no_positive_lam():
    # epsilon / rho = 1e-600: only t = 0 has t * rho <= epsilon
    with pytest.raises(GuardExceeded, match="below the float range"):
        ball_budget(SingularSpectrum.algebraic(1.0, 1.0), 1e-300, 1e300)
    table = SingularSpectrum.from_values([1.0, 0.5, 0.25])
    assert ball_budget(table, 1e-300, 1e300) == 3


@pytest.mark.parametrize("epsilon, rho", [
    (1e-300, 1e300), (9.8e-321, 1e-320), (5e-324, 1e-320), (1.0, 5e-324),
    (0.1, 1.0), (1e-10, 3.0), (0.7, 0.3), (1e300, 1e-300)])
def test_the_ball_level_is_the_largest_t_with_t_rho_at_most_epsilon(
        epsilon, rho):
    # the level is what the budget is read against: the largest float t
    # whose exact product t * rho is at most epsilon, which no float above
    # t has (the quotient 0.7 / 0.3 rounds up past it, and at 9.8e-321 and
    # 1e-320 floats above t have a product that rounds to epsilon)
    spectrum, levels = SingularSpectrum.algebraic(1.0, 1.0), []
    spectrum.first_at_or_below = lambda t: levels.append(t) or 1
    epsilon_, rho_ = Fraction(epsilon), Fraction(rho)
    try:
        ball_budget(spectrum, epsilon, rho)
    except GuardExceeded:  # t = 0
        assert levels == [] \
            and Fraction(math.nextafter(0.0, 1.0)) * rho_ > epsilon_
        return
    (t,) = levels
    assert Fraction(t) * rho_ <= epsilon_
    assert t == sys.float_info.max \
        or Fraction(math.nextafter(t, math.inf)) * rho_ > epsilon_


def test_a_subnormal_rho_settles_the_level_in_a_bounded_search():
    # the level search once stepped one ulp at a time from epsilon / rho,
    # while t * rho with a subnormal rho moves only every ~10**12 ulps
    src = str(Path(algorithm_module.__file__).resolve().parents[1])
    code = ("from adaptlin import ball_budget\n"
            "from adaptlin.problems import periodic_approximation_spectrum\n"
            "print(ball_budget(periodic_approximation_spectrum(2.0), "
            "9.772372209558107e-321, 1e-320))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3\n"


def test_ball_keeps_whole_finite_table_when_threshold_undercuts():
    spec = SingularSpectrum.from_values([1.0, 0.5, 0.25])
    problem = Problem(spec, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0])
    approx = ball_algorithm(problem, f, 1e-6, 1.0)
    assert approx.cost == 3
    assert true_error(problem, f, approx) == 0.0


def test_ball_rejects_bad_parameters(harmonic_doubling):
    with pytest.raises(ValueError):
        ball_algorithm(harmonic_doubling, CoefficientSource.zero(), 0.0, 1.0)
    with pytest.raises(ValueError):
        ball_algorithm(harmonic_doubling, CoefficientSource.zero(), 0.1, -1.0)
    with pytest.raises(ValueError):
        ball_algorithm(harmonic_doubling, CoefficientSource.zero(), math.nan, 1.0)


# -- adaptive_algorithm ------------------------------------------------------

def test_adaptive_zero_input_stops_first_block(unit_doubling):
    approx = adaptive_algorithm(unit_doubling, CoefficientSource.zero(), 0.1)
    assert approx.stop_block == 1
    assert approx.cost == unit_doubling.partition.boundary(1)
    assert approx.error_bound == 0.0


def test_adaptive_worked_example(unit_doubling):
    # sigma = (1/4, sqrt(5)/16, ~0.036) against threshold ~0.0433
    f = geometric_coefficients(8)
    approx = adaptive_algorithm(unit_doubling, f, 0.05)
    assert approx.stop_block == 3
    assert approx.cost == 8
    sigma3 = block_norm(unit_doubling, f, 3)
    assert sigma3 == pytest.approx(0.03601384553630034, rel=1e-14)
    assert approx.error_bound == pytest.approx(0.04158520682987321, rel=1e-14)
    assert approx.error_bound <= approx.tolerance
    assert true_error(unit_doubling, f, approx) == 0.0  # support ends at 8


def test_adaptive_retains_interpolation_through_boundary(unit_doubling):
    f = geometric_coefficients(8)
    approx = adaptive_algorithm(unit_doubling, f, 0.05)
    assert approx.cost == 8
    assert np.allclose(approx.values, f.dense(8))


def test_adaptive_evaluates_each_coefficient_once(unit_doubling):
    # the support runs far past the stop, so only the walk's reads show
    f, asked = spied(geometric_coefficients(64))
    approx = adaptive_algorithm(unit_doubling, f, 0.05)
    assert approx.cost == 8
    assert sorted(asked) == list(range(1, approx.cost + 1))


def test_adaptive_stopping_index_identity(harmonic_doubling):
    # j* is the first j whose independently recomputed sigma_j passes
    rng = np.random.default_rng(21)
    f = profile_member(harmonic_doubling, rng, blocks=10)
    for eps in (0.5, 0.1, 0.02, 0.004):
        approx = adaptive_algorithm(harmonic_doubling, f, eps)
        level = stop_threshold(harmonic_doubling.cone, eps)
        sigmas = [block_norm(harmonic_doubling, f, j)
                  for j in range(1, approx.stop_block + 1)]
        assert sigmas[-1] <= level
        assert all(s > level for s in sigmas[:-1])


def test_adaptive_cost_monotone_in_tolerance(harmonic_doubling):
    rng = np.random.default_rng(22)
    f = profile_member(harmonic_doubling, rng, blocks=10)
    costs = [adaptive_algorithm(harmonic_doubling, f, eps).cost
             for eps in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003)]
    assert costs == sorted(costs)


def test_adaptive_minimal_cost_single_leading_coefficient():
    # only fhat_1 != 0 and n_0 > 0: sigma_1 = 0 stops immediately at cost n_1
    problem = Problem(unit_spectrum(), Partition.doubling(4),
                      ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([3.0])
    approx = adaptive_algorithm(problem, f, 0.01)
    assert approx.stop_block == 1
    assert approx.cost == problem.partition.boundary(1) == 8


def test_adaptive_guard(unit_doubling):
    # constant weights, constant coefficients: sigma_j grows, never stops
    f = CoefficientSource.from_vector(np.ones(300))  # n_8 = 256
    with pytest.raises(GuardExceeded):
        adaptive_algorithm(unit_doubling, f, 0.1, block_limit=8)


def test_adaptive_rejects_nonpositive_tolerance(unit_doubling):
    # NaN included, and before any coefficient is read
    f, asked = spied(CoefficientSource.from_vector(np.ones(300)))
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            adaptive_algorithm(unit_doubling, f, bad)
        with pytest.raises(ValueError):
            adaptive_sweep(unit_doubling, f, [0.1, bad])
    assert asked == []


def test_adaptive_clips_to_enumerated_length():
    # ten-mode operator: a tolerance below any reachable tail resolves all
    # ten modes and stops with a zero block, never stepping past the table
    spec = SingularSpectrum.from_values([2.0 ** -i for i in range(10)])
    problem = Problem(spec, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(np.ones(10))
    approx = adaptive_algorithm(problem, f, 1e-12)
    assert approx.cost == 10
    assert true_error(problem, f, approx) == 0.0


def test_adaptive_guarantee_on_cone_members(harmonic_doubling):
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = profile_member(harmonic_doubling, rng, blocks=8)
        eps = 10.0 ** rng.uniform(-3, 0)
        approx = adaptive_algorithm(harmonic_doubling, f, eps)
        err = brute_tail(harmonic_doubling.spectrum.value, coefficient_of(f),
                         approx.cost, f.support_bound)
        assert err <= approx.error_bound * (1 + 1e-12)
        assert approx.error_bound <= eps


# -- adaptive_sweep ----------------------------------------------------------

def harmonic_sweep():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = profile_member(problem, np.random.default_rng(31), blocks=12,
                       head=True)
    # unsorted, with a repeat; stop blocks range from 1 to 13
    return problem, f, [0.3, 1e-3, 2.0, 0.05, 1e-3, 1e-5], 64


def derivative_sweep():
    # 156 enumerated modes: block 6 (indices 257..512) lies past the table,
    # so the tightest tolerance stops there on an empty block at cost 156
    mis = enumerate_derivative_spectrum(2, 6)
    problem = derivative_problem(mis)
    f = derivative_coefficients(mis, random_periodic_input(2, 6, 5))
    return problem, f, [10.0, 1.0, 1e-2, 1e-9], 64


def guarded_sweep():
    # four blocks settle the loose tolerances but not the tight ones
    problem, f, _, _ = harmonic_sweep()
    return problem, f, [1e-6, 0.3, 2.0, 1e-3], 4


@pytest.mark.parametrize("case", [harmonic_sweep, derivative_sweep,
                                  guarded_sweep],
                         ids=["harmonic-doubling", "clipped-derivative",
                              "block-limit"])
def test_sweep_matches_one_run_per_tolerance(case):
    problem, f, epsilons, limit = case()
    walk = adaptive_sweep(problem, f, epsilons, block_limit=limit)
    runs, norms = walk.runs, list(walk.norms)
    assert len(runs) == len(epsilons)
    for eps, run in zip(epsilons, runs):
        try:
            single = adaptive_algorithm(problem, f, eps, block_limit=limit)
        except GuardExceeded:
            assert run is None
            continue
        assert run.tolerance == eps
        assert run.stop_block == single.stop_block
        assert run.cost == single.cost
        assert run.error_bound.hex() == single.error_bound.hex()
        assert np.array_equal(run.values, single.values)
    settled = [run.stop_block for run in runs if run is not None]
    assert settled
    # the walk ends at the last stop block, or at the limit if one is left
    assert len(norms) == (limit if None in runs else max(settled))
    assert norms == [block_norm(problem, f, j)
                     for j in range(1, len(norms) + 1)]


def test_sweep_cases_cover_guard_and_clipping():
    walk = adaptive_sweep(*guarded_sweep()[:3], block_limit=4)
    assert [run is None for run in walk.runs] == [True, False, False, True]
    problem, f, epsilons, _ = derivative_sweep()
    walk = adaptive_sweep(problem, f, epsilons)
    assert walk.runs[-1].cost == problem.spectrum.enumerated_length == 156
    assert walk.norms[-1] == 0.0


def test_sweep_stops_on_a_norm_equal_to_the_level(harmonic_doubling):
    f = profile_member(harmonic_doubling, np.random.default_rng(33), 8)
    sigma = block_norm(harmonic_doubling, f, 4)
    eps = sigma / math.sqrt(0.75)  # a * b = 1: level = eps * sqrt(3/4)
    while stop_threshold(harmonic_doubling.cone, eps) < sigma:
        eps = math.nextafter(eps, math.inf)
    while stop_threshold(harmonic_doubling.cone, eps) > sigma:
        eps = math.nextafter(eps, 0.0)
    assert stop_threshold(harmonic_doubling.cone, eps) == sigma
    walk = adaptive_sweep(harmonic_doubling, f, [eps])
    (run,) = walk.runs
    assert all(s > sigma for s in walk.norms[:3])
    assert run.stop_block == 4


def test_sweep_runs_share_one_read_only_array(harmonic_doubling):
    f = profile_member(harmonic_doubling, np.random.default_rng(32), 10)
    loose, tight = adaptive_sweep(harmonic_doubling, f, [0.5, 0.01]).runs
    assert loose.cost < tight.cost
    for run in (loose, tight):
        assert not run.values.flags.writeable
    assert np.shares_memory(loose.values, tight.values)
    with pytest.raises(ValueError):
        tight.values[0] = 1.0


def test_sweep_returns_one_frozen_walk_record(harmonic_doubling):
    f = profile_member(harmonic_doubling, np.random.default_rng(34), 14)
    walk = adaptive_sweep(harmonic_doubling, f, [1e-4, 0.1])
    assert isinstance(walk, Walk)
    with pytest.raises(dataclasses.FrozenInstanceError):
        walk.norms = ()
    blocks = len(walk.norms)
    assert walk.stops == tuple(run.stop_block for run in walk.runs)
    assert max(walk.stops) == blocks >= 12
    assert walk.ends == tuple(harmonic_doubling.partition.boundary(j)
                              for j in range(blocks + 1))
    assert walk.values.size == min(walk.ends[-1], f.support_bound)
    assert not walk.values.flags.writeable
    # blocks of 2**9 entries or more keep an exact sum; fsum summed the rest
    sizes = np.diff((0,) + walk.ends)
    assert [total is None for total in walk.sums] == list(sizes < 2 ** 9)
    assert walk.true_errors() == tail_norms(
        harmonic_doubling, f, [run.cost for run in walk.runs])


@pytest.mark.parametrize("coeffs", [[1.0, math.nan, 0.1],
                                    [1.0, 0.5, -math.inf, 0.1],
                                    [math.nan, 0.1]],
                         ids=["nan-in-block", "inf-in-block", "nan-in-head"])
def test_non_finite_data_never_certified(harmonic_doubling, coeffs):
    f = CoefficientSource.from_vector(coeffs)
    with pytest.raises(ValueError, match="non-finite"):
        adaptive_algorithm(harmonic_doubling, f, 0.1)


def test_sum_of_squares_past_the_float_range_is_rejected(harmonic_doubling):
    # every square is finite (the largest is 1.69e308), their exact sum is not
    f = CoefficientSource.from_vector([0.0, 2e154, 3.9e154, 5.2e154])
    assert tail_norm(harmonic_doubling, f, 0) == math.inf
    with pytest.raises(ValueError, match="non-finite norm"):
        adaptive_algorithm(harmonic_doubling, f, 0.1)


@pytest.mark.parametrize("rule", [
    lambda i: np.where(i <= 20, 1.0 / i, 1.0),
    lambda i: np.where(i <= 16, 1.0 / i, 1.0 + 1.0 / i),
    lambda i: np.where(i <= 20, 1.0 / i, 0.0),
], ids=["rises-after-20", "rises-at-block-start", "vanishes-after-20"])
def test_sweep_checks_spectrum_on_every_block_read(rule):
    # Problem checks only indices 1..16, so each rule is accepted; block 5
    # covers indices 17..32, and lam_16 = 1/16 < lam_17 = 1 + 1/17 is a rise
    # between blocks 4 and 5
    problem = Problem(SingularSpectrum.from_rule(rule, name="bad"),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(np.ones(64))
    assert adaptive_sweep(problem, f, [10.0]).runs[0].stop_block == 1
    with pytest.raises(ValueError, match="bad: singular values"):
        adaptive_sweep(problem, f, [10.0, 1e-6])


def test_walk_checks_spectrum_past_the_support():
    # block 2 runs to index 70000 in chunks; those past the support of 64
    # form no product, but their weights are still read and checked
    problem = Problem(
        SingularSpectrum.from_rule(lambda i: np.where(i <= 50_000, 1.0 / i, 0.0),
                                   name="bad"),
        Partition.from_boundaries([1, 8, 70_000]), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(np.ones(64))
    with pytest.raises(ValueError, match="bad: singular values must be positive"):
        adaptive_sweep(problem, f, [1e-9])


def test_infinite_weight_past_the_support_is_not_certified():
    # lam_1 = inf is no singular value of a bounded operator: the problem is
    # refused before any walk could multiply it by a zero coefficient
    with pytest.raises(ValueError, match="rule: singular values must be finite"):
        Problem(SingularSpectrum.from_rule(
            lambda i: np.where(i > 1, 1.0 / np.maximum(i - 1.0, 1.0), np.inf)),
            Partition.doubling(1), ConeParams(2.0, 0.5))


# -- the walk's one buffer ---------------------------------------------------

def traced_peak(action):
    """``action()`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = action()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_walk_stores_no_product_past_the_support(harmonic_doubling):
    # support 2**17; the tightest tolerance stops on block 18,
    # 2**17+1..2**18, the first block past the support.  Per-block arrays,
    # that block's zeros and a final concatenate need about four times the
    # product array; one buffer that ends at the support needs it once,
    # plus the chunk scratch (a chunk of weights and its squares and bits)
    f = random_cone_member(harmonic_doubling, np.random.default_rng(44), 17)

    def sweep():
        walk = adaptive_sweep(harmonic_doubling, f, [0.1, 1e-3, 1e-12])
        return walk, walk.true_errors()

    (walk, errors), peak = traced_peak(sweep)
    assert walk.stops[-1] == 18
    assert walk.values.size == f.support_bound == 2 ** 17
    assert [run.cost for run in walk.runs] \
        == [harmonic_doubling.partition.boundary(j) for j in walk.stops]
    assert errors == tail_norms(harmonic_doubling, f,
                                [run.cost for run in walk.runs])
    assert peak < walk.values.nbytes + 2 ** 20


def straddled_sources():
    """Sources with support 100, inside block 7 (65..128) of harmonic
    doubling: a vector on a rule spectrum and on a 1000-entry table of it,
    and the same coefficients, every one nonzero, as a sparse source."""
    coeffs = np.random.default_rng(45).standard_normal(100)
    vector = CoefficientSource.from_vector(coeffs)
    sparse = CoefficientSource.from_sparse(range(1, 101), coeffs, 100)
    harmonic = SingularSpectrum.algebraic(1.0, 1.0)
    table = SingularSpectrum.from_values(1.0 / np.arange(1.0, 1001.0))
    return [(harmonic, vector), (harmonic, sparse), (table, vector)]


@pytest.mark.parametrize("spectrum, f", straddled_sources(),
                         ids=["vector", "sparse", "vector-on-table"])
def test_a_block_that_straddles_the_support_keeps_its_bits(spectrum, f):
    problem = Problem(spectrum, Partition.doubling(1), ConeParams(2.0, 0.5))
    walk = adaptive_sweep(problem, f, [1e-2, 1e-4, 1e-300])
    assert walk.stops[-1] == 8  # block 8, 129..256, lies past the support
    assert walk.values.size == 100
    assert [s.hex() for s in walk.norms] == [
        block_norm(problem, f, j).hex() for j in range(1, 9)]
    costs = [run.cost for run in walk.runs]
    assert [e.hex() for e in walk.true_errors()] \
        == [t.hex() for t in tail_norms(problem, f, costs)]
    for run in walk.runs:
        assert run.values.size == min(run.cost, 100)
        assert np.shares_memory(run.values, walk.values)
        assert not run.values.flags.writeable


def test_the_walk_decides_nothing_from_the_support_bound(harmonic_doubling):
    # the algorithm knows no support: the same coefficients followed by more
    # zeros, or as the nonzeros of a far larger support, walk alike.  Block
    # 10 (513..1024) holds 512 products of the padded vector, whose exact
    # sum is extracted, and fewer of the other two, which fsum sums: the
    # same bits either way
    coeffs = np.random.default_rng(46).standard_normal(1000)
    coeffs[::3] = 0.0
    places = np.flatnonzero(coeffs) + 1
    twins = [CoefficientSource.from_vector(coeffs),
             CoefficientSource.from_vector(np.append(coeffs, np.zeros(4096))),
             CoefficientSource.from_sparse(places, coeffs[places - 1], 2 ** 20)]
    walks = [adaptive_sweep(harmonic_doubling, f, [1e-1, 1e-4, 1e-300])
             for f in twins]
    first = walks[0]
    assert first.stops[-1] == 11  # 1025..2048, past the support
    for walk in walks:
        assert [s.hex() for s in walk.norms] \
            == [s.hex() for s in first.norms]
        assert walk.stops == first.stops
        assert [(run.cost, run.error_bound.hex()) for run in walk.runs] \
            == [(run.cost, run.error_bound.hex()) for run in first.runs]
        assert walk.true_errors() == first.true_errors()


# -- the sweep's true errors -------------------------------------------------

def test_sweep_reads_each_weight_once():
    # counted from the problem's construction on: the draw checks lam
    # through its support of 2**15, and the tightest tolerance stops on
    # block 16, 32769..65536, past it.  Each lam of the 2**14 head is
    # evaluated once; the walk evaluates again those the draw checked past
    # the head, but checks only those past the draw, and the true errors
    # read none again
    spectrum = CountedHarmonic()
    problem = Problem(spectrum, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(40), 15)
    walk, rows = _sweep(problem, f, [0.3, 0.02, 1e-3, 1e-12], 64)
    runs = walk.runs
    assert [run.cost for run in runs][-1] == 2 ** 16
    reads, checks = map(spectrum.counts, (spectrum.reads, spectrum.checks))
    assert reads.size == checks.size == 2 ** 16 + 1
    assert reads[0] == checks[0] == 0 and (checks[1:] == 1).all()
    assert (reads[1:2 ** 14 + 1] == 1).all()
    assert (reads[2 ** 14 + 1:2 ** 15 + 1] == 2).all()
    assert (reads[2 ** 15 + 1:] == 1).all()
    assert [row["true_error"] for row in rows] \
        == tail_norms(problem, f, [run.cost for run in runs])


def test_walks_on_one_problem_read_each_weight_of_the_head_once():
    spectrum = CountedHarmonic()
    problem = Problem(spectrum, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(42), 12)
    # the tightest tolerance stops on block 13, 4097..8192, past the
    # support of 2**12, so the true errors read nothing past the walk; the
    # membership test and the later runs read inside the walk's reach
    walk, _ = _sweep(problem, f, [0.3, 1e-3, 1e-12], 64)
    assert walk.stops[-1] == 13
    assert cone_membership(problem, f).member
    for eps in (1e-12, 0.3):
        adaptive_algorithm(problem, f, eps)
    # counted from the problem's construction on, each weight once
    for counts in map(spectrum.counts, (spectrum.reads, spectrum.checks)):
        assert counts.size == 2 ** 13 + 1
        assert counts[0] == 0 and (counts[1:] == 1).all()


def test_a_rule_that_fails_deep_down_fails_only_the_walks_that_get_there():
    # lam_i = 2 / 2**i is zero from i = 1024 on, where 2**i overflows, in
    # block 10, 513..1024, of the doubling partition
    reads = []

    def halving(i):
        reads.append(np.array(i))
        with np.errstate(over="ignore"):
            return 2.0 / 2.0 ** i

    problem = Problem(SingularSpectrum.from_rule(halving, name="halving"),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(np.ones(2048))
    shallow = adaptive_algorithm(problem, f, 0.5)
    # nothing past the problem's check of 1..16 and the walk's stop block
    # is evaluated
    assert shallow.cost == 4 and max(np.concatenate(reads)) == 16
    for _ in range(2):
        with pytest.raises(ValueError,
                           match="halving: singular values must be positive"):
            adaptive_algorithm(problem, f, 1e-300)
    with pytest.raises(ValueError, match="must be positive"):
        cone_membership(problem, f)
    again = adaptive_algorithm(problem, f, 0.5)
    assert np.array_equal(again.values, shallow.values)
    # each failed read evaluated the faulty block again, and nothing past it
    counts = CountedHarmonic.counts(reads)
    assert counts.size == 1025 and (counts[1:513] == 1).all()
    assert (counts[513:] == 3).all()


def remainder_sweep():
    # the walk stops before the support ends at 2**15, after blocks long
    # enough for the binned kernel
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(41), 15)
    return problem, f, [0.3, 0.02, 3e-4], 64


def short_block_sweep():
    # blocks of 100 indices all take the fsum path; support 1200
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.arithmetic(0, 100), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(42), 12)
    return problem, f, [0.3, 0.05, 1e-3, 1e-5], 64


def zero_support_sweep():
    problem, _, _, _ = remainder_sweep()
    return problem, CoefficientSource.zero(), [0.1, 1e-3], 64


def explicit_sweep():
    # block 4, 3001..40000, straddles the support of 20000 and block 5 lies
    # past it: chunks past the support form no product
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.from_boundaries([0, 3, 10, 3000, 40_000, 90_000]),
                      ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(
        np.random.default_rng(43).standard_normal(20_000) / 10.0)
    return problem, f, [1.0, 0.05, 0.01, 1e-3, 1e-9], 64


@pytest.mark.parametrize("case", [remainder_sweep, short_block_sweep,
                                  derivative_sweep, zero_support_sweep,
                                  explicit_sweep, guarded_sweep],
                         ids=["remainder", "short-blocks",
                              "clipped-derivative", "zero-support",
                              "explicit", "block-limit"])
def test_sweep_true_errors_have_the_bits_of_tail_norms(case):
    problem, f, epsilons, limit = case()
    walk, rows = _sweep(problem, f, epsilons, limit)
    costs = [run.cost for run in walk.runs if run is not None]
    errors = [row["true_error"] for row in rows if "true_error" in row]
    assert len(errors) == len(costs) >= 2
    assert [e.hex() for e in errors] \
        == [t.hex() for t in tail_norms(problem, f, costs)]


def test_sweep_rows_check_each_certificate(harmonic_doubling):
    # sigma = (1, 1.5): no cone member, so the stop at block 1 certifies
    # 2/sqrt(3) = 1.1547 while the tail past index 2 is 1.5
    f = CoefficientSource.from_vector([0.0, 2.0, 4.5])
    _, (row,) = _sweep(harmonic_doubling, f, [1.2], 64)
    assert (row["j_star"], row["true_error"]) == (1, 1.5)
    assert row["error_bound"] == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert row["bound_holds"] is False
    _, (row,) = _sweep(harmonic_doubling, f, [0.5], 64)
    assert (row["true_error"], row["bound_holds"]) == (0.0, True)


def test_sweep_true_error_cases_cover_their_paths():
    problem, f, epsilons, limit = remainder_sweep()
    walk, _ = _sweep(problem, f, epsilons, limit)
    assert max(run.cost for run in walk.runs) < f.support_bound
    problem, f, epsilons, limit = explicit_sweep()
    walk, _ = _sweep(problem, f, epsilons, limit)
    assert sorted({run.stop_block for run in walk.runs}) == [1, 3, 4, 5]


# -- true_error --------------------------------------------------------------

def test_true_error_fully_resolved(harmonic_doubling):
    f = CoefficientSource.from_vector([1.0, 2.0, 3.0])
    approx = interpolate(harmonic_doubling, f, 3)
    assert true_error(harmonic_doubling, f, approx) == 0.0


def test_true_error_single_term_tail(harmonic_doubling):
    coeffs = np.zeros(10)
    coeffs[9] = 4.0
    f = CoefficientSource.from_vector(coeffs)
    approx = interpolate(harmonic_doubling, f, 5)
    assert true_error(harmonic_doubling, f, approx) == pytest.approx(
        4.0 / 10.0, rel=1e-15)
