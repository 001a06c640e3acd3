"""Worked problem instances: periodic approximation and the 3-d derivative."""

import math
import tracemalloc

import numpy as np
import pytest

from adaptlin import (CoefficientSource, Partition, PeriodicApproximation,
                      adaptive_algorithm, cli, default_gamma,
                      derivative_coefficients, derivative_problem,
                      derivative_weights, derivative_slice_grid,
                      enumerate_derivative_spectrum, evaluate_input,
                      evaluate_solution, input_slice_grid, interpolate,
                      periodic_approximation_cost,
                      periodic_approximation_spectrum, random_periodic_input,
                      solution_slice_grid, true_error)
from adaptlin.spectrum import exact_norm

TWO_PI = 2.0 * math.pi


# -- periodic approximation --------------------------------------------------

def test_periodic_spectrum_leading_ones():
    spec = periodic_approximation_spectrum(2.0)
    assert np.array_equal(spec.values(range(1, 4)), [1.0, 1.0, 1.0])
    assert spec.value(4) == 0.25
    assert spec.value(5) == 0.25
    assert spec.value(6) == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_periodic_spectrum_pairing_identity():
    # lam_i = hat_lam_{floor(i/2)} with hat_lam_0 = 1, hat_lam_k = k**-r
    spec = periodic_approximation_spectrum(1.5)
    for i in range(1, 40):
        k = i // 2
        expect = 1.0 if k == 0 else k ** -1.5
        assert spec.value(i) == pytest.approx(expect, rel=1e-14)


def test_periodic_spectrum_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        periodic_approximation_spectrum(0.0)


def test_closed_form_examples():
    assert periodic_approximation_cost(2.0, 0.1, 10.0) == 19
    assert periodic_approximation_cost(1.0, 1.0, 7.0) == 13
    assert periodic_approximation_cost(4.0, 1.0, 16.0) == 3


def test_closed_form_bottoms_out_at_one():
    # past epsilon = rho the formula stays at 1 while a scan keeps nothing
    assert periodic_approximation_cost(2.0, 1.0, 1.0) == 1
    assert periodic_approximation_cost(2.0, 2.0, 1.0) == 1


def test_closed_form_rejects_bad_parameters():
    with pytest.raises(ValueError):
        periodic_approximation_cost(-1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        periodic_approximation_cost(2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        periodic_approximation_cost(2.0, 0.1, -1.0)


def test_closed_form_matches_scan():
    for r in (1.0, 2.0, 4.0):
        spec = periodic_approximation_spectrum(r)
        for quotient in (7.0, 10.0, 1e3, 1e6):
            scanned = spec.first_at_or_below(1.0 / quotient) - 1
            assert scanned == periodic_approximation_cost(r, 1.0, quotient)


def test_periodic_problem_bundles_defaults():
    problem = PeriodicApproximation(2.0).problem()
    assert problem.partition.boundary(0) == 1
    assert problem.cone.a == 2.0
    run = adaptive_algorithm(problem, CoefficientSource.zero(), 0.5)
    assert run.stop_block == 1


# -- derivative weights and enumeration --------------------------------------

def test_derivative_weight_single_axis_mode():
    gamma = default_gamma(3)
    lam = derivative_weights(np.array([[1, 0, 0]]), gamma)
    assert lam[0] == pytest.approx(TWO_PI * math.sqrt(2.0), rel=1e-14)


def test_derivative_weight_sign_symmetric():
    gamma = default_gamma(2)
    ks = np.array([[3, -2], [-3, 2], [3, 2]])
    lam = derivative_weights(ks, gamma)
    assert lam[0] == lam[1] == lam[2]


def test_derivative_weight_two_dimensional_example():
    lam = derivative_weights(np.array([[1, 0]]), np.array([1.0, 0.5]))
    assert lam[0] == pytest.approx(TWO_PI * math.sqrt(2.0), rel=1e-14)


def test_derivative_weights_decay_in_each_axis():
    gamma = default_gamma(2)
    lams = derivative_weights(np.array([[1, 0], [8, 0], [64, 0]]), gamma)
    assert lams[0] > lams[1] > lams[2]


def test_enumeration_one_dimensional():
    mis = enumerate_derivative_spectrum(1, 1)
    assert len(mis) == 2
    assert np.array_equal(mis.indices, [[1], [-1]])  # positive first on ties
    assert mis.weights[0] == mis.weights[1]


def test_enumeration_excludes_annihilated_modes():
    mis = enumerate_derivative_spectrum(2, 2)
    assert len(mis) == 4 * 5  # (2k+1)**2 minus the k_1 = 0 plane
    assert np.all(mis.indices[:, 0] != 0)


def test_enumeration_sorted_with_documented_tie_break():
    mis = enumerate_derivative_spectrum(3, 30)
    assert len(mis) == 61 ** 3 - 61 ** 2 == 223260
    assert np.all(np.diff(mis.weights) <= 0)
    # the whole box appears exactly once
    assert len({tuple(k) for k in mis.indices[::971]}) == len(mis.indices[::971])
    top = [list(mis.mode(i)) for i in range(1, 6)]
    assert top == [[1, 1, 1], [1, 1, -1], [1, 1, 2], [1, 1, -2], [1, 1, 3]]
    assert mis.weights[0] == pytest.approx(TWO_PI * 2.0 ** 1.5, rel=1e-14)


def _lexsort_enumeration(d, k_max, gamma):
    """The whole box, sorted by one np.lexsort over all 2d + 1 keys."""
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * d
    ks = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                  axis=1)
    ks = ks[ks[:, 0] != 0]
    lam = derivative_weights(ks, gamma)
    keys = []
    for j in range(d - 1, -1, -1):  # least significant key first
        keys.append((ks[:, j] < 0).astype(np.int8))
        keys.append(np.abs(ks[:, j]))
    keys.append(-lam)
    order = np.lexsort(tuple(keys))
    return ks[order], lam[order]


@pytest.mark.parametrize("gamma_kind", ["default", "ones"])
@pytest.mark.parametrize("d, k_max", [(1, 1), (1, 9), (2, 7), (3, 5),
                                      (4, 3), (5, 2)])
def test_enumeration_matches_full_lexsort(d, k_max, gamma_kind):
    # gamma = ones ties every mode with the same |k_1| and nonzero count
    gamma = default_gamma(d) if gamma_kind == "default" else np.ones(d)
    mis = enumerate_derivative_spectrum(d, k_max, gamma)
    ks, lam = _lexsort_enumeration(d, k_max, gamma)
    assert mis.indices.dtype == np.int64
    assert np.array_equal(mis.indices, ks)
    assert np.array_equal(mis.weights.view(np.int64), lam.view(np.int64))


def test_enumeration_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_derivative_spectrum(3, 30, cap=1000)


def test_enumeration_cap_is_checked_before_allocation():
    # 10**30 modes: any array of the box would fail or take forever
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            enumerate_derivative_spectrum(5, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_derivative_problem_defaults():
    mis = enumerate_derivative_spectrum(2, 2)
    problem = derivative_problem(mis)
    assert problem.partition.boundary(0) == 0
    assert problem.partition.boundary(2) == 32
    assert problem.spectrum.enumerated_length == len(mis)


# -- random inputs and their coefficients -------------------------------------

def box_coefficient(inp, k):
    """Coefficient of wave vector k: its box entry, zero outside the box."""
    k = np.asarray(k, dtype=np.int64)
    if np.any(np.abs(k) > inp.k_max):
        return 0.0
    return float(inp.box[tuple(k + inp.k_max)])


def test_random_input_deterministic():
    first = random_periodic_input(2, 3, seed=7)
    second = random_periodic_input(2, 3, seed=7)
    assert np.array_equal(first.box, second.box)
    assert box_coefficient(first, [1, -2]) == box_coefficient(second, [1, -2])
    assert box_coefficient(random_periodic_input(2, 3, seed=8), [1, -2]) \
        != box_coefficient(first, [1, -2])


def test_random_input_box_shape_and_outside_zero():
    inp = random_periodic_input(2, 3, seed=1)
    assert inp.box.shape == (7, 7)
    assert box_coefficient(inp, [4, 0]) == 0.0


def test_coefficients_follow_enumeration_order():
    mis = enumerate_derivative_spectrum(2, 2)
    inp = random_periodic_input(2, 2, seed=3)
    f = derivative_coefficients(mis, inp)
    assert f.support_bound == len(mis)
    for i in (1, 5, len(mis)):
        assert f.coefficients(range(i, i + 1))[0] == box_coefficient(
            inp, mis.mode(i))


@pytest.mark.parametrize("input_k_max", [1, 2, 4])
def test_coefficients_for_any_input_box(input_k_max):
    # a box that covers the enumeration gathers through one flat index; a
    # smaller one keeps the masked path; both agree with mode-by-mode lookup
    mis = enumerate_derivative_spectrum(2, 2)
    inp = random_periodic_input(2, input_k_max, seed=9)
    f = derivative_coefficients(mis, inp)
    expect = [box_coefficient(inp, k) for k in mis.indices]
    last = max(i + 1 for i, k in enumerate(mis.indices)
               if np.all(np.abs(k) <= input_k_max))
    assert f.support_bound == last
    assert f.dense(len(mis)).tolist() == expect


def test_coefficients_single_mode_is_indicator():
    mis = enumerate_derivative_spectrum(2, 2)
    inp = random_periodic_input(2, 2, seed=0)
    inp.box[:] = 0.0
    inp.box[tuple(np.array([1, -2]) + 2)] = 1.0
    f = derivative_coefficients(mis, inp)
    position = 1 + int(np.nonzero(
        np.all(mis.indices == [1, -2], axis=1))[0][0])
    dense = f.dense(len(mis))
    assert dense[position - 1] == 1.0
    assert np.count_nonzero(dense) == 1


def test_coefficients_parseval_split():
    # box energy = k_1 = 0 plane energy + enumerated coefficient energy
    mis = enumerate_derivative_spectrum(2, 3)
    inp = random_periodic_input(2, 3, seed=11)
    f = derivative_coefficients(mis, inp)
    plane = float(np.sum(inp.box[3, :] ** 2))  # k_1 = 0 row
    box_norm = exact_norm(inp.box.ravel())
    assert f.norm() ** 2 + plane == pytest.approx(box_norm ** 2, rel=1e-12)


# -- pointwise evaluation ----------------------------------------------------

def test_evaluate_input_zero_everywhere():
    inp = random_periodic_input(2, 2, seed=0)
    inp.box[:] = 0.0
    gamma = default_gamma(2)
    assert evaluate_input(inp, gamma, [0.3, 0.7]) == 0.0


def test_evaluate_input_single_cosine_mode():
    inp = random_periodic_input(3, 2, seed=0)
    inp.box[:] = 0.0
    inp.box[tuple(np.array([1, 0, 0]) + 2)] = 1.0
    gamma = default_gamma(3)
    assert evaluate_input(inp, gamma, [0.0, 0.0, 0.0]) == pytest.approx(
        math.sqrt(2.0), rel=1e-14)
    for x1 in (0.1, 0.37, 0.9):
        assert evaluate_input(inp, gamma, [x1, 0.5, 0.2]) == pytest.approx(
            math.sqrt(2.0) * math.cos(TWO_PI * x1), rel=1e-12, abs=1e-12)


def test_evaluate_input_periodic():
    inp = random_periodic_input(2, 3, seed=5)
    gamma = default_gamma(2)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.uniform(size=2)
        value = evaluate_input(inp, gamma, x)
        for j in range(2):
            shifted = x.copy()
            shifted[j] += 1.0
            assert evaluate_input(inp, gamma, shifted) == pytest.approx(
                value, rel=1e-9, abs=1e-9)


def test_evaluate_solution_empty():
    mis = enumerate_derivative_spectrum(2, 2)
    problem = derivative_problem(mis)
    approx = interpolate(problem, CoefficientSource.zero(), 0)
    assert evaluate_solution(approx, mis, [0.4, 0.8]) == 0.0


def test_evaluate_solution_single_mode_analytic_derivative():
    mis = enumerate_derivative_spectrum(3, 2)
    inp = random_periodic_input(3, 2, seed=0)
    inp.box[:] = 0.0
    inp.box[tuple(np.array([1, 0, 0]) + 2)] = 1.0
    problem = derivative_problem(mis, partition=Partition.doubling(1))
    f = derivative_coefficients(mis, inp)
    approx = interpolate(problem, f, len(mis))
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(size=3)
        expect = -TWO_PI * math.sqrt(2.0) * math.sin(TWO_PI * x[0])
        assert evaluate_solution(approx, mis, x) == pytest.approx(
            expect, rel=1e-9, abs=1e-9)


def test_solution_matches_finite_difference():
    mis = enumerate_derivative_spectrum(2, 3)
    inp = random_periodic_input(2, 3, seed=21)
    problem = derivative_problem(mis, partition=Partition.doubling(1))
    f = derivative_coefficients(mis, inp)
    resolved = interpolate(problem, f, len(mis))
    assert true_error(problem, f, resolved) == 0.0
    gamma = default_gamma(2)
    h = 1e-5
    rng = np.random.default_rng(22)
    for _ in range(20):
        x = rng.uniform(size=2)
        fd = (evaluate_input(inp, gamma, [x[0] + h, x[1]])
              - evaluate_input(inp, gamma, [x[0] - h, x[1]])) / (2 * h)
        value = evaluate_solution(resolved, mis, x)
        assert value == pytest.approx(fd, rel=1e-4, abs=1e-6)


# -- slice grids --------------------------------------------------------------

def test_slice_grids_match_pointwise_evaluation():
    mis = enumerate_derivative_spectrum(3, 2)
    inp = random_periodic_input(3, 2, seed=31)
    gamma = default_gamma(3)
    problem = derivative_problem(mis, partition=Partition.doubling(1))
    f = derivative_coefficients(mis, inp)
    approx = interpolate(problem, f, 40)
    first = np.array([0.0, 0.25, 0.6])
    second = np.array([0.1, 0.5])
    in_grid = input_slice_grid(inp, gamma, first, second)
    true_grid = derivative_slice_grid(inp, gamma, first, second)
    sol_grid = solution_slice_grid(approx, mis, first, second)
    assert in_grid.shape == true_grid.shape == sol_grid.shape == (3, 2)
    h = 1e-6
    for i, x1 in enumerate(first):
        for j, x2 in enumerate(second):
            point = [x1, x2, 0.0]
            assert in_grid[i, j] == pytest.approx(
                evaluate_input(inp, gamma, point), rel=1e-12, abs=1e-12)
            fd = (evaluate_input(inp, gamma, [x1 + h, x2, 0.0])
                  - evaluate_input(inp, gamma, [x1 - h, x2, 0.0])) / (2 * h)
            assert true_grid[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-4)
            assert sol_grid[i, j] == pytest.approx(
                evaluate_solution(approx, mis, point), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d, rest", [(2, 0.0), (3, 0.3), (4, 0.85)])
def test_solution_slice_grid_matches_pointwise_evaluation(d, rest):
    mis = enumerate_derivative_spectrum(d, 3)
    inp = random_periodic_input(d, 3, seed=40 + d)
    problem = derivative_problem(mis, partition=Partition.doubling(1))
    approx = interpolate(problem, derivative_coefficients(mis, inp),
                         len(mis) // 2)
    first = np.array([0.0, 0.13, 0.5, 0.77])
    second = np.array([0.05, 0.4, 0.9])
    grid = solution_slice_grid(approx, mis, first, second, rest=rest)
    assert grid.shape == (4, 3)
    for i, x1 in enumerate(first):
        for j, x2 in enumerate(second):
            point = [x1, x2] + [rest] * (d - 2)
            assert grid[i, j] == pytest.approx(
                evaluate_solution(approx, mis, point), rel=1e-12, abs=1e-11)


def _einsum_solution_grid(approx, mis, first, second, rest=0.0):
    """One three-operand einsum over every retained term."""
    ks = mis.indices[:approx.cost].astype(np.float64)
    term = approx.values.copy()
    for j in range(2, mis.dimension):
        phase = np.where(ks[:, j] < 0, 0.5 * math.pi, 0.0)
        term *= np.cos(TWO_PI * ks[:, j] * rest + phase)
    k1, k2 = ks[:, 0], ks[:, 1]
    sin_rows = -np.sign(k1) * np.sin(TWO_PI * np.outer(first, k1)
                                     + np.where(k1 < 0, 0.5 * math.pi, 0.0))
    cos_cols = np.cos(TWO_PI * np.outer(second, k2)
                      + np.where(k2 < 0, 0.5 * math.pi, 0.0))
    return np.einsum("t,at,bt->ab", term, sin_rows, cos_cols)


def test_solution_slice_grid_matches_einsum_on_the_figure_run():
    # the demo-derivative figure: d = 3, k_max = 30, epsilon = 0.1
    mis = enumerate_derivative_spectrum(3, 30)
    inp = random_periodic_input(3, 30, seed=cli.DEFAULT_SEED)
    problem = derivative_problem(mis)
    run = adaptive_algorithm(problem, derivative_coefficients(mis, inp), 0.1)
    assert run.cost > 1000
    axis = np.linspace(0.0, 1.0, 64, endpoint=False)
    grid = solution_slice_grid(run, mis, axis, axis)
    oracle = _einsum_solution_grid(run, mis, axis, axis)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(grid - oracle)) <= 1e-11 * scale


def test_solution_slice_grid_of_zero_cost_is_zero():
    mis = enumerate_derivative_spectrum(3, 2)
    problem = derivative_problem(mis)
    approx = interpolate(problem, CoefficientSource.zero(), 0)
    grid = solution_slice_grid(approx, mis, np.array([0.1, 0.2, 0.3]),
                               np.array([0.4, 0.5]))
    assert grid.shape == (3, 2)
    assert not grid.any()


def test_slice_grids_need_two_axes():
    mis = enumerate_derivative_spectrum(1, 2)
    inp = random_periodic_input(1, 2, seed=2)
    with pytest.raises(ValueError):
        input_slice_grid(inp, default_gamma(1), np.array([0.1]),
                         np.array([0.2]))
