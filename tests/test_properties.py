"""Property-based checks of the algebraic identities the solver relies on."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptlin import (CoefficientSource, ConeParams, GuardExceeded,
                      OutOfRangeError, Partition, Problem, SingularSpectrum,
                      adaptive_algorithm, ball_algorithm, block_norm, cli,
                      complexity_lower_block, cone_membership,
                      random_cone_member, stop_block_bound,
                      stop_block_bound_rough, tail_norm, tail_norms,
                      true_error)
from adaptlin.spectrum import _square_sum, block_decay_ratios, exact_norm
from conftest import (binned_square_sum, brute_sigma, brute_worst_ratio,
                      pair_ratio, profile_member, scan_complexity_lower_block,
                      scan_stop_block_bound, scan_stop_block_bound_rough,
                      unit_spectrum)

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
# lam_10000 * rho rounds to eps here, while the exact product is above it,
# so the budget is 10000 and not 9999
@example(p=1.0, rho=20.875, eps_frac=1e-4)
@example(p=1.0, rho=1.3515625, eps_frac=1e-4)
def test_ball_budget_is_minimal_and_sufficient(p, rho, eps_frac):
    eps = eps_frac * rho
    problem = Problem(SingularSpectrum.algebraic(1.0, p),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    run = ball_algorithm(problem, CoefficientSource.zero(), eps, rho)
    n, lam = run.cost, problem.spectrum.value
    assert Fraction(lam(n + 1)) * Fraction(rho) <= Fraction(eps)
    if n > 0:
        assert Fraction(lam(n)) * Fraction(rho) > Fraction(eps)


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
    """Vectors on both sides of exact_norm's fsum cutoff (2**9 entries),
    with zeros, subnormal squares and magnitudes 1e-160 .. 1e150."""
    n = draw(st.one_of(st.integers(0, 2 ** 9 - 1),
                       st.integers(2 ** 9, 2 ** 13)))
    low = draw(st.floats(-160.0, 150.0))
    high = draw(st.floats(low, 150.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    cuts = draw(st.lists(st.integers(0, n + 2), max_size=6))
    return x, cuts


def fsum_norm(x):
    """sqrt(fsum) of the squares; where fsum overflows, NaN if a square is
    NaN and inf otherwise."""
    with np.errstate(over="ignore"):
        squares = (x * x).tolist()
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.nan if any(map(math.isnan, squares)) else math.inf


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def mostly(fill, size, entries):
    """``size`` copies of ``fill`` but for the ``entries`` {index: value}."""
    x = np.full(size, fill)
    x[list(entries)] = list(entries.values())
    return x


@settings(max_examples=60, deadline=None)
@given(wide_vectors())
# squares that overflow; finite squares whose sum overflows (the products
# lam_i * fhat_i of harmonic/doubling on the first vector); NaN; all zeros
@example((np.array([0.0, 2e154, 3.9e154, 5.2e154]), [0, 2]))
@example((np.array([0.0, 1e154, 1.3e154, 1.3e154]), [0, 1, 2]))
@example((np.array([1.0, math.nan, 3.0] * 1000), [0, 2, 2999]))
@example((np.zeros(3000), [0, 2999, 3000]))
# mostly zeros on both sides of the 32- and 2048-entry cutoffs, with -0.0,
# subnormal entries and squares, NaN and inf
@example((mostly(0.0, 31, {3: -0.0, 7: 1e-160, 11: 5e-324, 20: 3.0}),
          [0, 8, 31]))
@example((mostly(0.0, 32, {0: 2.5e-310, 5: math.nan, 9: -0.0, 31: 1e150}),
          [0, 6, 32]))
@example((mostly(-0.0, 2047, {0: math.inf, 1500: 1e-300, 2046: 5e-324}),
          [0, 1, 2046]))
@example((mostly(0.0, 2048, {10: -math.inf, 11: math.nan, 700: 1e-160,
                             2047: 2.5e-310}), [0, 11, 12, 2047]))
@example((mostly(-0.0, 2048, {}), [0, 2048]))
def test_exact_norm_has_the_bits_of_fsum(case):
    x, cuts = case
    assert same_float(exact_norm(x), fsum_norm(x))
    problem = Problem(unit_spectrum(), Partition.doubling(1),
                      ConeParams(2.0, 0.5))
    tails = tail_norms(problem, CoefficientSource.from_vector(x), cuts)
    for n, tail in zip(cuts, tails):
        assert same_float(tail, fsum_norm(x[n:]))


SPECIALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 5e151, -1e154,
            math.nan, math.inf, -math.inf]


@st.composite
def kernel_vectors(draw):
    """Vectors for the summation kernel: 0 to 2**14 + 1 entries and a few
    past 2**15, of raw bit patterns whose exponent field lies in a drawn
    range (subnormals to squares that overflow), with drawn entries
    replaced by +-0, subnormals, NaN and +-inf."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 2 ** 14 + 1),
                       st.sampled_from([2 ** 15 + 1, 2 ** 15 + 77])))
    low = draw(st.integers(0, 2046))
    high = draw(st.integers(low, min(low + draw(st.sampled_from(
        [0, 30, 120, 2046])), 2046)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.integers(0, 2 ** 63, n, dtype=np.uint64, endpoint=True)
    bits &= np.uint64((1 << 52) - 1) | np.uint64(1 << 63)
    bits |= rng.integers(low, high, n, dtype=np.uint64,
                         endpoint=True) << np.uint64(52)
    x = bits.view(np.float64)
    for i, v in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                        st.sampled_from(SPECIALS)),
                              max_size=4 if n else 0)):
        x[i] = v
    return x


def gaussian(n, seed=5):
    return np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=80, deadline=None)
@given(kernel_vectors())
# a negative level-1 residual: sigma from max r instead of max |r| would
# give the right norm from a wrong integer
@example(np.array([4.81824727e-121, 1.14258786e-72, 1.63225328e-116,
                   2.32047014e+61, -1.76189112e-126, 8.79775670e+11]))
# squares past 2**1008, whose sigma would pass the float range
@example(5e151 * (1.0 + gaussian(3000) ** 2))
@example(np.concatenate([gaussian(100) * 1e154, gaussian(50) * 1e-160]))
# squares in the subnormal range, where the last grid is 2**-1074
@example(1e-160 * gaussian(5000))
@example(np.array([1e-160, -2e-160, 5e-324, 0.0, -0.0]))
# NaN together with inf, in both orders and chunks apart
@example(np.array([math.inf, 1.0, math.nan]))
@example(np.array([math.nan, -math.inf]))
@example(np.concatenate([[math.nan], np.ones(2 ** 14), [math.inf]]))
# NaN with finite squares whose sum overflows, short and long
@example(np.array([math.nan, 1e154, 1e154]))
@example(np.concatenate([[math.nan], np.full(600, 1e154)]))
# one chunk exactly, and one entry on either side of it
@example(gaussian(2 ** 14 - 1))
@example(gaussian(2 ** 14))
@example(gaussian(2 ** 14 + 1))
def test_the_summation_kernel_returns_the_exact_integer(x):
    total = _square_sum(x)
    expected = binned_square_sum(x)
    if isinstance(expected, float):
        assert isinstance(total, float) and same_float(total, expected)
    else:
        assert type(total) is int and total == expected
    assert same_float(exact_norm(x), fsum_norm(x))


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


spectra = st.one_of(
    st.builds(SingularSpectrum.algebraic, st.floats(0.1, 10.0),
              st.one_of(st.just(1.0), st.floats(0.25, 4.0))),
    st.builds(SingularSpectrum.geometric, st.floats(0.1, 10.0),
              st.floats(1.01, 4.0)))
partitions = st.one_of(
    st.builds(Partition.doubling, st.integers(1, 8)),
    st.builds(Partition.arithmetic, st.integers(1, 8), st.integers(1, 20)),
    st.lists(st.integers(1, 5000), min_size=2, max_size=30, unique=True).map(
        lambda bs: Partition.from_boundaries(sorted(bs))))
cones = st.builds(ConeParams, st.floats(1.1, 8.0), st.floats(0.05, 0.95))


@st.composite
def tolerance_lists(draw):
    """1 to 120 tolerances 10**e, e in [-14, 1], drawn from a pool of half
    as many, so most lists repeat some; the smallest exhaust most limits."""
    count = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.uniform(-14.0, 1.0, size=count // 2 + 1)
    return [10.0 ** e for e in rng.choice(pool, size=count)]


def _scan_each(scan, epsilons):
    """Each tolerance's own scan: its block, None on the guard, or the
    type of anything else it raised."""
    outcomes = []
    for eps in epsilons:
        try:
            outcomes.append(scan(eps))
        except GuardExceeded:
            outcomes.append(None)
        except (OutOfRangeError, ZeroDivisionError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _assert_list_form_matches(list_form, outcomes):
    """A walk past an explicit partition raises as the scan that got there
    did.  A scan that divided by an underflowed square has no counterpart:
    the list form counts that reciprocal as inf."""
    if OutOfRangeError in outcomes:
        with pytest.raises(OutOfRangeError):
            list_form()
        return
    for got, want in zip(list_form(), outcomes):
        if want is not ZeroDivisionError:
            assert got == want


@settings(max_examples=60, deadline=None)
@given(spectra, partitions, cones, tolerance_lists(),
       st.floats(0.1, 10.0), st.floats(1.0, 20.0), st.integers(1, 40))
def test_tolerance_list_scans_settle_where_each_own_scan_does(
        spectrum, partition, cone, epsilons, rho, ratio, block_limit):
    problem = Problem(spectrum, partition, cone)
    _assert_list_form_matches(
        lambda: stop_block_bound(problem, epsilons, rho,
                                 block_limit=block_limit),
        _scan_each(lambda eps: scan_stop_block_bound(
            problem, eps, rho, block_limit), epsilons))
    _assert_list_form_matches(
        lambda: stop_block_bound_rough(problem, epsilons, rho,
                                       block_limit=block_limit),
        _scan_each(lambda eps: scan_stop_block_bound_rough(
            problem, eps, rho, block_limit), epsilons))
    _assert_list_form_matches(
        lambda: complexity_lower_block(problem, ratio, epsilons, rho,
                                       block_limit=block_limit),
        _scan_each(lambda eps: scan_complexity_lower_block(
            problem, ratio, eps, rho, block_limit), epsilons))
