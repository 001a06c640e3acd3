"""Cost bounds, shrink factors, and optimality certificates."""

import math

import numpy as np
import pytest

from adaptlin import (ConeParams, GuardExceeded, Partition, Problem,
                      SingularSpectrum, adaptive_algorithm, ball_budget,
                      boundary_ratio, bounds_table, complexity_lower_block,
                      cost_bracket_check, stop_block_bound,
                      stop_block_bound_first_term, stop_block_bound_rough,
                      tolerance_shrink_factor)

from conftest import (profile_member, scan_complexity_lower_block,
                      scan_stop_block_bound, scan_stop_block_bound_rough,
                      unit_spectrum)

CONE = ConeParams(2.0, 0.5)


def harmonic_problem():
    return Problem(SingularSpectrum.algebraic(1.0, 1.0),
                   Partition.doubling(1), CONE)


# -- boundary_ratio ----------------------------------------------------------

def test_boundary_ratio_algebraic_doubling():
    problem = Problem(SingularSpectrum.algebraic(1.0, 2.0),
                      Partition.doubling(1), CONE)
    scan = boundary_ratio(problem, 12)
    assert scan.value == pytest.approx(4.0, rel=1e-12)
    assert not scan.still_growing


def test_boundary_ratio_constant_spectrum():
    problem = Problem(unit_spectrum(), Partition.doubling(1), CONE)
    scan = boundary_ratio(problem, 8)
    assert scan.value == 1.0
    assert not scan.still_growing


def test_boundary_ratio_flags_unbounded_growth():
    problem = Problem(SingularSpectrum.geometric(1.0, 2.0),
                      Partition.doubling(1), CONE)
    scan = boundary_ratio(problem, 8)
    assert scan.still_growing
    assert scan.value == 2.0 ** (2.0 ** 7)  # drop across the deepest block


def test_boundary_ratio_flags_underflow_as_growth():
    # by block 11 the doubling boundary is past 1024 and 2**-n_k underflows
    problem = Problem(SingularSpectrum.geometric(1.0, 2.0),
                      Partition.doubling(1), CONE)
    scan = boundary_ratio(problem, 16)
    assert scan.still_growing


def test_boundary_ratio_skips_zero_boundary():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.zero_then_doubling(2), CONE)
    scan = boundary_ratio(problem, 6)  # k = 1 skipped, no lam_0
    assert scan.value == pytest.approx(2.0, rel=1e-12)


# -- tolerance_shrink_factor -------------------------------------------------

def test_shrink_factor_ratio_four():
    omega = tolerance_shrink_factor(CONE, 4.0)
    assert omega ** 2 == pytest.approx(0.75 / (336.0 * 145.0), rel=1e-12)
    assert omega == pytest.approx(0.0039235301285896525, rel=1e-12)


def test_shrink_factor_ratio_one():
    omega = tolerance_shrink_factor(CONE, 1.0)
    assert omega ** 2 == pytest.approx(0.75 / (21.0 * 10.0), rel=1e-12)


def test_shrink_factor_always_inside_unit_interval():
    for a in (1.1, 2.0, 5.0):
        for b in (0.1, 0.5, 0.9):
            for ratio in (1.0, 3.0, 50.0):
                omega = tolerance_shrink_factor(ConeParams(a, b), ratio)
                assert 0.0 < omega < 1.0


def test_shrink_factor_past_the_float_range_is_zero():
    # (b R)**4 and a**4 overflow; omega is 0, so no lower bound settles
    assert tolerance_shrink_factor(CONE, 4.0 ** 129) == 0.0
    assert tolerance_shrink_factor(ConeParams(1e200, 0.5), 2.0) == 0.0


def test_lower_bounds_of_a_cone_past_2_to_the_511():
    # past 2**53, a + 1 and a - 1 are a, so (a+1)**2 / (a-1)**2 is 1 both
    # where its squares overflow (1e200) and where they do not (1e150)
    blocks = [complexity_lower_block(
        Problem(SingularSpectrum.algebraic(1.0, 1.0), Partition.doubling(1),
                ConeParams(a, 0.5)), 2.0, [10.0 ** -k for k in range(12)],
        1.0) for a in (1e150, 1e200)]
    assert blocks[0] == blocks[1] and len(set(blocks[0])) > 3


# -- stopping block bounds ---------------------------------------------------

def bracket_value(problem, j):
    """Direct summation of the stopping-bound bracket, scan-free."""
    a, b = problem.cone.a, problem.cone.b
    total = 0.0
    for k in range(1, j):
        edge = problem.spectrum.value(problem.partition.boundary(k - 1) + 1)
        total += b ** (2 * (k - j)) / (a * a * edge * edge)
    last = problem.spectrum.value(problem.partition.boundary(j - 1) + 1)
    return total + 1.0 / (last * last)


def test_stop_block_bound_value_and_boundary_correctness():
    problem = harmonic_problem()
    eps, rho = 0.1, 1.0
    (j,) = stop_block_bound(problem, [eps], rho)
    assert j == 4
    a, b = problem.cone.a, problem.cone.b
    lead = (1.0 - b * b) / (a * a * b * b)
    target = (rho / eps) ** 2
    assert target <= lead * bracket_value(problem, j)
    assert target > lead * bracket_value(problem, j - 1)


def test_stop_block_bound_immediate_when_tolerance_loose():
    problem = harmonic_problem()
    assert stop_block_bound(problem, [10.0], 1.0) == [1]


def test_stop_block_bound_guard():
    problem = harmonic_problem()
    assert stop_block_bound(problem, [1e-12], 1.0, block_limit=4) == [None]
    (row,) = bounds_table(problem, [1e-12], 1.0, block_limit=4)
    assert row.j_dagger is None
    assert row.guard == "no stopping block bound within 4 blocks"


def test_stop_block_bound_rough_example():
    # eps = rho: threshold sqrt(0.75) and lam_{n_0+1} = 1/2 already below it
    problem = harmonic_problem()
    assert stop_block_bound_rough(problem, [1.0], 1.0) == [1]


def test_rough_bound_monotone_in_ratio():
    problem = harmonic_problem()
    values = [stop_block_bound_rough(problem, [1.0], rho)[0]
              for rho in (1.0, 4.0, 16.0, 256.0)]
    assert values == sorted(values)


def test_tight_bound_never_exceeds_rough():
    problem = harmonic_problem()
    epsilons = (0.5, 0.05, 0.005)
    for rho in (1.0, 10.0, 100.0):
        tight = stop_block_bound(problem, epsilons, rho)
        rough = stop_block_bound_rough(problem, epsilons, rho)
        for j_tight, j_rough in zip(tight, rough, strict=True):
            assert j_tight <= j_rough


def test_first_term_bound_example():
    # lam_{n_0+1} = lam_1 = 1: ceil(log2(40 / sqrt(0.75))) = 6
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.zero_then_doubling(1), CONE)
    assert stop_block_bound_first_term(problem, [0.1], 1.0) == [6]


def test_first_term_bound_clamps_to_one():
    problem = harmonic_problem()
    assert stop_block_bound_first_term(problem, [100.0], 1.0) == [1]


# -- complexity_lower_block --------------------------------------------------

def lower_feasible(problem, ratio, j, eps, rho):
    """The defining inequality of the lower-bound block, term by term."""
    a, b = problem.cone.a, problem.cone.b
    bracket = (a + 1.0) ** 2 * ratio ** 2 / (a - 1.0) ** 2 + 1.0
    total = 0.0
    for k in range(0, j + 1):
        lam = problem.spectrum.value(problem.partition.boundary(k))
        total += b ** (2 * (k - j)) / (lam * lam)
    return bracket * total < (rho / eps) ** 2


def test_lower_block_example():
    problem = harmonic_problem()
    assert complexity_lower_block(problem, 2.0, [0.01], 1.0) == [3]


def test_lower_block_boundary_correctness_at_large_ratio():
    problem = harmonic_problem()
    eps, rho = 1e-4, 1.0
    (j,) = complexity_lower_block(problem, 2.0, [eps], rho)
    assert lower_feasible(problem, 2.0, j, eps, rho)
    assert not lower_feasible(problem, 2.0, j + 1, eps, rho)


def test_lower_block_zero_when_even_first_fails():
    problem = harmonic_problem()
    assert complexity_lower_block(problem, 2.0, [1.0], 1.0) == [0]


def test_lower_block_requires_head():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.zero_then_doubling(4), CONE)
    with pytest.raises(ValueError, match="n_0 >= 1"):
        complexity_lower_block(problem, 2.0, [0.1], 1.0)


def test_lower_block_guard():
    problem = harmonic_problem()
    assert complexity_lower_block(problem, 2.0, [1e-30], 1.0,
                                  block_limit=8) == [None]
    # at eps = 0.5 the upper bounds settle at block 2 and the lower one,
    # also block 2, lies past a limit of two blocks
    (row,) = bounds_table(problem, [0.5], 1.0, block_limit=2)
    assert (row.j_dagger, row.j_dagger_rough, row.j_star_lower) == (2, 2, None)
    assert row.guard == "lower-bound block still growing at block limit 2"


# -- tolerance lists ---------------------------------------------------------

def test_targets_past_the_float_range_are_guards():
    # (1 / 1e-200)**2 and the first-term argument at 1e-310 overflow
    problem = harmonic_problem()
    for eps in (1e-200, 1e-310):
        assert stop_block_bound(problem, [eps], 1.0) == [None]
        assert complexity_lower_block(problem, 2.0, [eps], 1.0) == [None]
    assert stop_block_bound_first_term(problem, [1e-310], 1.0) == [None]
    assert stop_block_bound(problem, [1e-1, 1e-200], 1.0) == [4, None]
    # lam_1 = 1e300 puts the first-term argument past the float range at
    # eps = 1e-9, where (rho / eps)**2 and both block scans settle
    steep = Problem(SingularSpectrum.algebraic(1e300, 100.0),
                    Partition.zero_then_doubling(1), CONE)
    (row,) = bounds_table(steep, [1e-9], 1.0)
    assert row.j_dagger_rough is not None and row.j_dagger_first is None
    assert "float range" in row.guard


def test_a_square_that_underflows_counts_as_an_infinite_reciprocal():
    # lam_257 = 1e-257 squares to zero, where one scan per tolerance
    # divided by it; the infinite bracket certifies any finite target
    problem = Problem(SingularSpectrum.geometric(1.0, 10.0),
                      Partition.doubling(1), CONE)
    with pytest.raises(ZeroDivisionError):
        scan_stop_block_bound(problem, 1e-130, 1.0, 64)
    assert stop_block_bound(problem, [1e-130], 1.0) == [9]
    with pytest.raises(ZeroDivisionError):
        scan_complexity_lower_block(problem, 2.0, 1e-130, 1.0, 64)
    assert complexity_lower_block(problem, 2.0, [1e-130], 1.0) == [7]


def recording_problem(read):
    """Harmonic doubling problem whose spectrum records each index read
    after it is built."""
    def rule(i):
        read.extend(np.atleast_1d(i).tolist())
        return 1.0 / i
    problem = Problem(SingularSpectrum.from_rule(rule), Partition.doubling(1),
                      CONE)
    read.clear()
    return problem


@pytest.mark.parametrize("list_form, scan", [
    (lambda p, eps: stop_block_bound(p, eps, 1.0, block_limit=20),
     lambda p, eps: scan_stop_block_bound(p, eps, 1.0, 20)),
    (lambda p, eps: stop_block_bound_rough(p, eps, 1.0, block_limit=20),
     lambda p, eps: scan_stop_block_bound_rough(p, eps, 1.0, 20)),
    (lambda p, eps: complexity_lower_block(p, 2.0, eps, 1.0,
                                           block_limit=20),
     lambda p, eps: scan_complexity_lower_block(p, 2.0, eps, 1.0, 20)),
], ids=["tight", "rough", "lower"])
def test_a_list_scan_reads_no_deeper_than_the_deepest_own_scan(list_form,
                                                                scan):
    for epsilons in ([0.5], [0.5, 1e-3, 0.01, 1e-3], [1e-30, 0.1], []):
        read = []
        settled = list_form(recording_problem(read), epsilons)
        deepest = 0
        for eps in epsilons:
            own = []
            try:
                scan(recording_problem(own), eps)
            except GuardExceeded:
                pass
            deepest = max([deepest] + own)
        assert max(read, default=0) == deepest
        # each block's index is read once
        assert len(read) == len(set(read))
        assert len(settled) == len(epsilons)


def test_list_forms_reject_non_positive_tolerances():
    problem = harmonic_problem()
    for bad in ([0.1, 0.0], [math.nan], [-1.0]):
        with pytest.raises(ValueError, match="positive"):
            stop_block_bound(problem, bad, 1.0)
        with pytest.raises(ValueError, match="positive"):
            stop_block_bound_rough(problem, bad, 1.0)
        with pytest.raises(ValueError, match="positive"):
            complexity_lower_block(problem, 2.0, bad, 1.0)


# -- cost_bracket_check ------------------------------------------------------

def test_bracket_algebraic_example():
    report = cost_bracket_check("algebraic", 1.0, 2.0, 0.01, 1.0)
    assert report.cost == 9
    assert report.ok
    assert report.applicable


def test_bracket_geometric_example():
    report = cost_bracket_check("geometric", 1.0, 2.0, 2.0 ** -10, 1.0)
    assert report.cost == 9
    assert report.ok


def test_bracket_geometric_loose_tolerance():
    report = cost_bracket_check("geometric", 1.0, 2.0, 3.0, 1.0)
    assert not report.applicable
    assert report.cost == 0
    assert report.ok


def test_bracket_unknown_family():
    with pytest.raises(ValueError):
        cost_bracket_check("fancy", 1.0, 2.0, 0.1, 1.0)


# -- cost curves and chains --------------------------------------------------

def test_cost_curves_monotone_on_grid():
    # the ball budget, and the boundaries of j_dagger and j_star_lower:
    # every cost falls as epsilon grows and rises with rho
    spectrum = SingularSpectrum.algebraic(1.0, 2.0)
    problem = Problem(spectrum, Partition.doubling(1), CONE)
    epsilons = list(np.logspace(-4, 0, 9))[::-1]  # bounds_table's order
    rhos = np.logspace(0, 2, 5)
    curves = {"ball": [], "adaptive bound": [], "lower bound": []}
    for rho in rhos:
        rows = bounds_table(problem, epsilons, rho)
        assert [row.epsilon for row in rows] == epsilons
        curves["ball"].append([ball_budget(spectrum, e, rho)
                               for e in epsilons])
        curves["adaptive bound"].append([row.n_dagger for row in rows])
        curves["lower bound"].append([row.n_lower for row in rows])
    for name, grid in curves.items():
        for costs in grid:  # along epsilon, largest first
            assert costs == sorted(costs), name
        for costs in zip(*grid):  # along rho
            assert list(costs) == sorted(costs), name


def test_adaptive_cost_never_exceeds_bound_curve():
    problem = harmonic_problem()
    rng = np.random.default_rng(30)
    epsilons = (0.5, 0.1, 0.02)
    for _ in range(15):
        f = profile_member(problem, rng, blocks=9, head=True)
        rho = f.norm()
        bounds = stop_block_bound(problem, epsilons, rho)
        for eps, j in zip(epsilons, bounds):
            run = adaptive_algorithm(problem, f, eps)
            assert run.cost <= problem.partition.boundary(j)


def test_shrunken_ball_dominates_rough_bound():
    # with block edges decaying at worst by half, the adaptive cost bound
    # stays below the ball cost at a fixed tolerance shrink
    problem = harmonic_problem()
    a, b = problem.cone.a, problem.cone.b
    c_lam = 0.5  # (2**j + 1) / (2**(j+1) + 1) > 1/2 for every j
    shrink = c_lam ** 2 * math.sqrt(1.0 - b * b) / (a * b)
    for rho in np.logspace(0, 3, 8):
        for quotient in np.logspace(1, 6, 12):
            eps = rho / quotient
            n_rough = problem.partition.boundary(
                stop_block_bound_rough(problem, [eps], rho)[0])
            assert n_rough < ball_budget(problem.spectrum, eps * shrink, rho)


def test_tight_chain_boundaries_dominated_by_lower_bound():
    for p in (1.0, 2.0):
        problem = Problem(SingularSpectrum.algebraic(1.0, p),
                          Partition.doubling(1), CONE)
        ratio = 2.0 ** p
        omega = tolerance_shrink_factor(problem.cone, ratio)
        for rho in np.logspace(0, 3, 6):
            for eps in rho * np.logspace(-5, -1, 6):
                (j_upper,) = stop_block_bound(problem, [eps], rho)
                (j_lower,) = complexity_lower_block(
                    problem, ratio, [omega * eps], rho, block_limit=256)
                assert (problem.partition.boundary(j_upper)
                        <= problem.partition.boundary(j_lower))
