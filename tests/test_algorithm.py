"""Solvers: interpolation, ball algorithm, adaptive algorithm."""

import math

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, GuardExceeded,
                      OutOfRangeError, Partition, Problem, SingularSpectrum,
                      adaptive_algorithm, adaptive_sweep, ball_algorithm,
                      block_norm, derivative_coefficients, derivative_problem,
                      enumerate_derivative_spectrum, interpolate,
                      periodic_approximation_spectrum, random_periodic_input,
                      random_cone_member, stop_threshold, tail_norm,
                      tail_norms, true_error)
from adaptlin.cli import _sweep

from conftest import (brute_tail, coefficient_of, profile_member,
                      unit_spectrum)


def geometric_coefficients(support=8):
    return CoefficientSource.from_vector([2.0 ** -i
                                          for i in range(1, support + 1)])


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
    assert approx.indices.tolist() == [1, 2]
    assert approx.values.tolist() == [1.0, 0.5]
    assert approx.cost == 2


def test_interpolate_zero_input(harmonic_doubling):
    approx = interpolate(harmonic_doubling, CoefficientSource.zero(), 5)
    assert approx.cost == 5
    assert all(v == 0.0 for v in approx.values)


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
    assert approx.values.tobytes() == products.tobytes()  # +0.0 included
    assert approx.indices.tolist() == list(range(1, 10))
    assert not approx.indices.flags.writeable


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
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    with pytest.raises(GuardExceeded):
        ball_algorithm(problem, CoefficientSource.zero(), 1e-9, 1.0,
                       scan_limit=100)


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
    assert list(approx.indices) == list(range(1, 9))
    assert np.allclose(approx.values, f.dense(8))


def test_adaptive_evaluates_each_coefficient_once(unit_doubling):
    calls = {}

    def rule(idx):
        for i in idx.tolist():
            calls[i] = calls.get(i, 0) + 1
        return 2.0 ** -idx

    f = CoefficientSource(rule, support_bound=None)
    approx = adaptive_algorithm(unit_doubling, f, 0.05)
    assert sorted(calls) == list(range(1, approx.cost + 1))
    assert set(calls.values()) == {1}


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
    f = CoefficientSource(np.ones_like)
    with pytest.raises(GuardExceeded):
        adaptive_algorithm(unit_doubling, f, 0.1, block_limit=8)


def test_adaptive_rejects_nonpositive_tolerance(unit_doubling):
    # NaN included, and before any coefficient is read
    calls = []
    f = CoefficientSource(lambda i: calls.append(i) or np.ones_like(i))
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            adaptive_algorithm(unit_doubling, f, bad)
        with pytest.raises(ValueError):
            adaptive_sweep(unit_doubling, f, [0.1, bad])
    assert calls == []


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
    runs, norms = adaptive_sweep(problem, f, epsilons, block_limit=limit)
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
        assert np.array_equal(run.indices, single.indices)
        assert np.array_equal(run.values, single.values)
    settled = [run.stop_block for run in runs if run is not None]
    assert settled
    # the walk ends at the last stop block, or at the limit if one is left
    assert len(norms) == (limit if None in runs else max(settled))
    assert norms == [block_norm(problem, f, j)
                     for j in range(1, len(norms) + 1)]


def test_sweep_cases_cover_guard_and_clipping():
    runs, _ = adaptive_sweep(*guarded_sweep()[:3], block_limit=4)
    assert [run is None for run in runs] == [True, False, False, True]
    problem, f, epsilons, _ = derivative_sweep()
    runs, norms = adaptive_sweep(problem, f, epsilons)
    assert runs[-1].cost == problem.spectrum.enumerated_length == 156
    assert norms[-1] == 0.0


def test_sweep_stops_on_a_norm_equal_to_the_level(harmonic_doubling):
    f = profile_member(harmonic_doubling, np.random.default_rng(33), 8)
    sigma = block_norm(harmonic_doubling, f, 4)
    eps = sigma / math.sqrt(0.75)  # a * b = 1: level = eps * sqrt(3/4)
    while stop_threshold(harmonic_doubling.cone, eps) < sigma:
        eps = math.nextafter(eps, math.inf)
    while stop_threshold(harmonic_doubling.cone, eps) > sigma:
        eps = math.nextafter(eps, 0.0)
    assert stop_threshold(harmonic_doubling.cone, eps) == sigma
    (run,), norms = adaptive_sweep(harmonic_doubling, f, [eps])
    assert all(s > sigma for s in norms[:3])
    assert run.stop_block == 4


def test_sweep_runs_share_one_read_only_array(harmonic_doubling):
    f = profile_member(harmonic_doubling, np.random.default_rng(32), 10)
    (loose, tight), _ = adaptive_sweep(harmonic_doubling, f, [0.5, 0.01])
    assert loose.cost < tight.cost
    for run in (loose, tight):
        assert not run.indices.flags.writeable
        assert not run.values.flags.writeable
    assert np.shares_memory(loose.values, tight.values)
    with pytest.raises(ValueError):
        tight.values[0] = 1.0


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
    assert adaptive_sweep(problem, f, [10.0])[0][0].stop_block == 1
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
    # lam_1 = inf times the zero coefficient is NaN, never a zero norm
    problem = Problem(
        SingularSpectrum.from_rule(
            lambda i: np.where(i > 1, 1.0 / np.maximum(i - 1.0, 1.0), np.inf)),
        Partition.doubling(1), ConeParams(2.0, 0.5))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="non-finite norm over indices 1..1"):
        adaptive_sweep(problem, CoefficientSource.zero(), [0.1])


# -- the sweep's true errors -------------------------------------------------

def test_sweep_reads_each_weight_once():
    reads = []

    def harmonic(i):
        reads.append(np.array(i))
        return 1.0 / i

    problem = Problem(SingularSpectrum.from_rule(harmonic, name="counted"),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(40), 15)
    reads.clear()
    # the tightest tolerance stops on block 16, 32769..65536, past the
    # support of 2**15: the walk reads every weight through 65536 once and
    # the true errors read none again
    runs, rows = _sweep(problem, f, [0.3, 0.02, 1e-3, 1e-12], 64)
    assert [run.cost for run in runs][-1] == 2 ** 16
    counts = np.bincount(np.concatenate(reads).astype(np.int64))
    assert counts.size == 2 ** 16 + 1
    assert counts[0] == 0 and (counts[1:] == 1).all()
    assert [row["true_error"] for row in rows] \
        == tail_norms(problem, f, [run.cost for run in runs])


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
    runs, rows = _sweep(problem, f, epsilons, limit)
    costs = [run.cost for run in runs if run is not None]
    errors = [row["true_error"] for row in rows if "true_error" in row]
    assert len(errors) == len(costs) >= 2
    assert [e.hex() for e in errors] \
        == [t.hex() for t in tail_norms(problem, f, costs)]


def test_sweep_true_error_cases_cover_their_paths():
    problem, f, epsilons, limit = remainder_sweep()
    runs, _ = _sweep(problem, f, epsilons, limit)
    assert max(run.cost for run in runs) < f.support_bound
    problem, f, epsilons, limit = explicit_sweep()
    runs, _ = _sweep(problem, f, epsilons, limit)
    assert sorted({run.stop_block for run in runs}) == [1, 3, 4, 5]


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
