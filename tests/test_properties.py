"""Property-based checks of the algebraic identities the solver relies on."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from adaptlin import (CoefficientSource, ConeParams, Partition, Problem,
                      SingularSpectrum, adaptive_algorithm, ball_algorithm,
                      block_norm, cone_membership, random_cone_member,
                      tail_norm, true_error)
from conftest import brute_sigma, profile_member

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
    scaled = f.scaled(scale)
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
