"""Property-based checks of the algebraic identities the solver relies on."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptlin import (CoefficientSource, ConeParams, Partition, Problem,
                      SingularSpectrum, adaptive_algorithm, ball_algorithm,
                      block_norm, cli, cone_membership, random_cone_member,
                      tail_norm, tail_norms, true_error)
from adaptlin.spectrum import block_decay_ratios, exact_norm
from conftest import (brute_sigma, brute_worst_ratio, pair_ratio,
                      profile_member, unit_spectrum)

# magnitudes below 1e-100 flush to zero: their squares would land in the
# denormal range where even scaling by 2 stops being exact
finite_coeffs = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False).map(
        lambda v: 0.0 if abs(v) < 1e-100 else v),
    min_size=1, max_size=40)


def harmonic_problem():
    return Problem(SingularSpectrum.algebraic(1.0, 1.0),
                   Partition.doubling(1), ConeParams(2.0, 0.5))


def covering_blocks(problem, support):
    j = 1
    while problem.partition.boundary(j) < support:
        j += 1
    return j


@settings(max_examples=60, deadline=None)
@given(finite_coeffs, st.integers(min_value=1, max_value=6),
       st.integers(min_value=-8, max_value=8))
def test_block_norm_homogeneous_in_powers_of_two(coeffs, j, t):
    problem = harmonic_problem()
    f = CoefficientSource.from_vector(np.array(coeffs))
    scale = 2.0 ** t
    scaled = CoefficientSource.from_vector(scale * np.array(coeffs))
    assert block_norm(problem, scaled, j) == scale * block_norm(problem, f, j)


@settings(max_examples=60, deadline=None)
@given(finite_coeffs)
def test_block_norms_split_the_tail(coeffs):
    problem = harmonic_problem()
    f = CoefficientSource.from_vector(np.array(coeffs))
    blocks = covering_blocks(problem, len(coeffs))
    total = math.fsum(block_norm(problem, f, j) ** 2
                      for j in range(1, blocks + 1))
    tail = tail_norm(problem, f, problem.partition.boundary(0)) ** 2
    assert abs(total - tail) <= 1e-12 * max(total, tail, 1e-300)


@settings(max_examples=50, deadline=None)
@given(finite_coeffs,
       st.floats(min_value=1.0001, max_value=8.0),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=1e-6, max_value=10.0))
def test_error_bound_is_tail_factor_times_stop_norm(coeffs, a, b, eps):
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(a, b))
    f = CoefficientSource.from_vector(np.array(coeffs))
    run = adaptive_algorithm(problem, f, eps, block_limit=512)
    sigma = brute_sigma(problem, f, run.stop_block)
    factor = problem.cone.tail_factor
    assert sigma <= eps * math.sqrt(1.0 - b * b) / (a * b)
    assert abs(run.error_bound - factor * sigma) \
        <= 1e-12 * max(1e-300, factor * sigma)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.5, max_value=4.0),
       st.floats(min_value=0.1, max_value=100.0),
       # (1/frac)**(1/p) stays below the default scan guard of 2**30
       st.floats(min_value=1e-4, max_value=1.0))
# lam_n * rho equals eps exactly here, while the quotient eps / rho rounds
# just below lam_n
@example(p=1.0, rho=20.875, eps_frac=1e-4)
@example(p=1.0, rho=1.3515625, eps_frac=1e-4)
def test_ball_budget_is_minimal_and_sufficient(p, rho, eps_frac):
    eps = eps_frac * rho
    problem = Problem(SingularSpectrum.algebraic(1.0, p),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    run = ball_algorithm(problem, CoefficientSource.zero(), eps, rho)
    n = run.cost
    assert problem.spectrum.value(n + 1) * rho <= eps
    if n > 0:
        assert problem.spectrum.value(n) * rho > eps


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=8),
       st.floats(min_value=1e-3, max_value=1e3))
def test_random_cone_member_satisfies_the_decay(seed, blocks, scale):
    problem = harmonic_problem()
    rng = np.random.default_rng(seed)
    f = random_cone_member(problem, rng, blocks, scale=scale)
    assert cone_membership(problem, f).member


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=1e-5, max_value=1.0),
       st.floats(min_value=1.0, max_value=100.0))
def test_adaptive_cost_monotone_in_tolerance(seed, eps_small, factor):
    problem = harmonic_problem()
    rng = np.random.default_rng(seed)
    f = profile_member(problem, rng, 12)
    tight = adaptive_algorithm(problem, f, eps_small)
    loose = adaptive_algorithm(problem, f, eps_small * factor)
    assert tight.cost >= loose.cost
    assert tight.stop_block >= loose.stop_block


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=1e-4, max_value=0.5))
def test_certified_bound_dominates_true_error_on_members(seed, eps):
    problem = harmonic_problem()
    rng = np.random.default_rng(seed)
    f = profile_member(problem, rng, 14)
    run = adaptive_algorithm(problem, f, eps)
    err = true_error(problem, f, run)
    assert err <= run.error_bound * (1.0 + 1e-12)
    assert run.error_bound <= eps


@st.composite
def wide_vectors(draw):
    """Vectors on both sides of exact_norm's fsum cutoff (2**11 entries),
    with zeros, subnormal squares and magnitudes 1e-160 .. 1e150."""
    n = draw(st.one_of(st.integers(0, 2 ** 11 - 1),
                       st.integers(2 ** 11, 2 ** 13)))
    low = draw(st.floats(-160.0, 150.0))
    high = draw(st.floats(low, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    cuts = draw(st.lists(st.integers(0, n + 2), max_size=6))
    return x, cuts


def fsum_norm(x):
    """sqrt(fsum) of the squares; inf where fsum overflows."""
    with np.errstate(over="ignore"):
        squares = (x * x).tolist()
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.inf


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=60, deadline=None)
@given(wide_vectors())
# squares that overflow; finite squares whose sum overflows (the products
# lam_i * fhat_i of harmonic/doubling on the first vector); NaN; all zeros
@example((np.array([0.0, 2e154, 3.9e154, 5.2e154]), [0, 2]))
@example((np.array([0.0, 1e154, 1.3e154, 1.3e154]), [0, 1, 2]))
@example((np.array([1.0, math.nan, 3.0] * 1000), [0, 2, 2999]))
@example((np.zeros(3000), [0, 2999, 3000]))
def test_exact_norm_has_the_bits_of_fsum(case):
    x, cuts = case
    assert same_float(exact_norm(x), fsum_norm(x))
    problem = Problem(unit_spectrum(), Partition.doubling(1),
                      ConeParams(2.0, 0.5))
    tails = tail_norms(problem, CoefficientSource.from_vector(x), cuts)
    for n, tail in zip(cuts, tails):
        assert same_float(tail, fsum_norm(x[n:]))


# Zeros and norms in [1e-50, 1e50]: over at most 40 blocks with b >= 1/16
# no allowance leaves the normal range, so powers of two scale exactly.
decay_norms = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-50, max_value=1e50)),
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(decay_norms, st.floats(min_value=1.0001, max_value=8.0),
       st.one_of(st.sampled_from([0.5, 0.25, 0.125, 0.0625]),
                 st.floats(min_value=0.05, max_value=0.95)))
@example([1.0, 0.0, 1.0], 2.0, 0.5)
@example([3.0], 2.0, 0.5)
@example([0.0, 0.0, 5.0, 1.0], 1.5, 0.3)
@example([1.0, 2.0, 4.0, 8.0], 2.0, 0.5)
def test_block_decay_ratios_match_the_pair_scan(norms, a, b):
    cone = ConeParams(a, b)
    exact = math.frexp(b)[0] == 0.5  # b = 2**-k: every allowance is exact

    def same(x, oracle):
        if exact or math.isinf(oracle):
            return x == oracle
        return x == pytest.approx(oracle, rel=1e-12)

    ratios, binders = block_decay_ratios(cone, norms)
    running = cli.observed_cone_ratio(cone, norms)
    assert len(ratios) == len(binders) == len(running) == len(norms)
    assert ratios[0] == 0.0 and binders[0] is None
    for k in range(1, len(norms) + 1):
        worst = max([0.0] + [pair_ratio(cone, norms, j, k - j)
                             for j in range(1, k)])
        assert same(ratios[k - 1], worst)
        assert same(running[k - 1], brute_worst_ratio(cone, norms[:k]))
        if k > 1:  # the binding block attains the worst ratio
            j = binders[k - 1]
            assert 1 <= j < k
            assert same(ratios[k - 1], pair_ratio(cone, norms, j, k - j))
            if exact:  # the earliest block with the smallest allowance
                assert j == min(range(1, k),
                                key=lambda i: b ** (k - i) * norms[i - 1])

    # one coefficient per block under unit weights: s_j = |fhat_j| exactly
    problem = Problem(unit_spectrum(), Partition.arithmetic(0, 1), cone)
    report = cone_membership(problem, CoefficientSource.from_vector(norms))
    assert report.blocks == len(norms)
    assert report.worst_ratio == running[-1]
    assert report.member == (report.worst_ratio <= 1.0 + 1e-9)
    if report.witness is None:
        assert report.member
    else:
        j, r = report.witness
        first = next(k for k, ratio in enumerate(ratios, start=1)
                     if ratio > 1.0 + 1e-9)
        assert j + r == first and j == binders[first - 1]
        violation = pair_ratio(cone, norms, j, r)
        assert violation > (1.0 + 1e-9) * (1.0 if exact else 1.0 - 1e-12)
