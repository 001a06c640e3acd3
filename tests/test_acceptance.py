"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every check recomputes its reference quantity inline (closed forms, direct
summation, finite differences) so a regression in the library cannot hide
behind its own numbers.
"""

import math
import time

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, Partition, Problem,
                      SingularSpectrum, adaptive_algorithm, cone_membership,
                      complexity_lower_block, cost_bracket_check,
                      default_gamma, derivative_coefficients,
                      derivative_problem, enumerate_derivative_spectrum,
                      evaluate_input, evaluate_solution, fooling_input,
                      fooling_pair, interpolate,
                      periodic_approximation_spectrum, random_periodic_input,
                      solution_separation, stop_block_bound,
                      tolerance_shrink_factor)
from conftest import brute_sigma, brute_tail, profile_member

CORPUS_EPSILONS = (1.0, 0.1, 0.01, 1e-4)  # spans four orders of magnitude

_SHARED = {}


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _corpus_problems():
    """Five problem shapes paired with analytic weight formulas.

    The formulas feed the brute-force oracles, so they are written out
    here instead of reusing the spectrum objects under test.
    """
    return (
        (Problem(SingularSpectrum.algebraic(1.0, 1.0), Partition.doubling(1),
                 ConeParams(2.0, 0.5)),
         lambda i: 1.0 / i),
        (Problem(SingularSpectrum.algebraic(1.0, 2.0),
                 Partition.arithmetic(2, 3), ConeParams(1.5, 0.7)),
         lambda i: 1.0 / (i * i)),
        (Problem(SingularSpectrum.geometric(2.0, 2.0),
                 Partition.arithmetic(4, 4), ConeParams(3.0, 0.25)),
         lambda i: 2.0 / 2.0 ** i),
        (Problem(periodic_approximation_spectrum(2.0), Partition.doubling(1),
                 ConeParams(2.0, 0.5)),
         lambda i: 1.0 / max(1, i // 2) ** 2),
        (Problem(SingularSpectrum.algebraic(1.0, 1.0),
                 Partition.zero_then_doubling(4), ConeParams(2.0, 0.6)),
         lambda i: 1.0 / i),
    )


@pytest.fixture(scope="module")
def corpus():
    """1000 distinct randomized cone members with solved runs and oracles."""
    start = time.perf_counter()
    records = []
    for pi, (problem, lam) in enumerate(_corpus_problems()):
        for s in range(200):
            rng = np.random.default_rng(10_000 * pi + s)
            scale = float(10.0 ** rng.uniform(-1.0, 1.0))
            f = profile_member(problem, rng, 10, scale=scale)
            support = f.support_bound
            dense = f.dense(support).tolist()
            lams = [lam(i) for i in range(1, support + 1)]
            eps = CORPUS_EPSILONS[s % 4]
            run = adaptive_algorithm(problem, f, eps, block_limit=64)
            err = brute_tail(lambda i: lams[i - 1], lambda i: dense[i - 1],
                             run.cost, support)
            sigma = brute_sigma(problem, f, run.stop_block)
            records.append((problem, f, eps, run, err, sigma))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_guarantee_on_randomized_cone_members(corpus):
    records, elapsed = corpus
    misses = sum(1 for _, _, eps, _, err, _ in records if err > eps)
    ok = len(records) >= 1000 and misses == 0 and elapsed < 30.0
    _report(1, ok, f"{len(records)} runs, {misses} tolerance misses, "
                   f"built in {elapsed:.1f} s")


def test_criterion_02_error_bound_soundness(corpus):
    records, _ = corpus
    order_bad = 0
    ratio_bad = 0
    for problem, _, eps, run, err, sigma in records:
        if not err <= run.error_bound <= eps:
            order_bad += 1
        a, b = problem.cone.a, problem.cone.b
        factor = a * b / math.sqrt(1.0 - b * b)
        if sigma > 0.0:
            if abs(run.error_bound / sigma - factor) > 1e-12 * factor:
                ratio_bad += 1
        elif run.error_bound != 0.0:
            ratio_bad += 1
    ok = order_bad == 0 and ratio_bad == 0
    _report(2, ok, f"{len(records)} runs, {order_bad} ordering faults, "
                   f"{ratio_bad} bound/sigma faults")


def test_criterion_03_pairing_closed_form_cost():
    start = time.perf_counter()
    quotients = np.logspace(0.01, 6, 50)
    mismatches = 0
    for r in (1.0, 2.0, 4.0):
        spectrum = periodic_approximation_spectrum(r)
        for q in quotients:
            scanned = spectrum.first_at_or_below(1.0 / q) - 1
            closed = 2 * math.ceil(q ** (1.0 / r)) - 1
            if scanned != closed:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _report(3, ok, f"150 grid points, {mismatches} mismatches, "
                   f"{elapsed:.2f} s")


def test_criterion_04_ball_cost_brackets():
    rng = np.random.default_rng(42)
    failures = 0
    total = 0
    for family, base in (("algebraic", 1.0), ("algebraic", 2.0),
                         ("algebraic", 3.0), ("geometric", 2.0),
                         ("geometric", math.e)):
        for _ in range(20):
            rho = float(10.0 ** rng.uniform(-2.0, 3.0))
            eps = rho * float(10.0 ** rng.uniform(-6.0, -0.005))
            report = cost_bracket_check(family, 1.0, base, eps, rho)
            total += 1
            if not (report.applicable and report.ok):
                failures += 1
    ok = total == 100 and failures == 0
    _report(4, ok, f"{total} sampled points, {failures} bracket misses")


def test_criterion_05_stop_block_bound_dominates(corpus):
    records, _ = corpus
    failures = 0
    for problem, f, eps, run, _, _ in records:
        (bound,) = stop_block_bound(problem, [eps], f.norm(),
                                    block_limit=256)
        if run.stop_block > bound:
            failures += 1
    _report(5, failures == 0,
            f"{len(records)} runs, {failures} bound violations")


def test_criterion_06_upper_lower_chain():
    violations = 0
    total = 0
    for p in (1.0, 2.0):
        cone = ConeParams(2.0, 0.5)
        problem = Problem(SingularSpectrum.algebraic(1.0, p),
                          Partition.doubling(1), cone)
        ratio = 2.0 ** p  # limit of lam_{n_{k-1}+1}/lam_{n_k+1} for doubling
        omega = tolerance_shrink_factor(cone, ratio)
        for rho in np.logspace(0.0, 3.0, 20):
            for frac in np.logspace(-5.0, -1.0, 20):
                eps = rho * frac
                (upper,) = stop_block_bound(problem, [eps], rho,
                                            block_limit=256)
                (lower,) = complexity_lower_block(problem, ratio,
                                                  [omega * eps], rho,
                                                  block_limit=256)
                total += 1
                if (problem.partition.boundary(upper)
                        > problem.partition.boundary(lower)):
                    violations += 1
    _report(6, violations == 0, f"{total} grid points, {violations} "
                                f"chain violations")


def test_criterion_07_fooling_pairs():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    faults = []
    for rho in (1.0, 3.0):
        base = fooling_input(problem, 2.0, rho, 8)
        run = adaptive_algorithm(problem, base, 0.05)
        pair = fooling_pair(problem, 2.0, rho, 8, range(1, run.cost + 1))
        for name, source in (("base", pair.base), ("plus", pair.plus),
                             ("minus", pair.minus)):
            if not cone_membership(problem, source).member:
                faults.append(f"{name} outside cone at rho={rho}")
            if source.norm() > rho * (1.0 + 1e-10):
                faults.append(f"{name} norm exceeds rho={rho}")
        c, eta = pair.amplitude, pair.shift
        gap = abs(problem.cone.a * (c - eta * pair.ratio)
                  - (c + eta * pair.ratio))
        if gap > 1e-12 * max(1.0, c):
            faults.append(f"identity gap {gap} at rho={rho}")
        run_plus = adaptive_algorithm(problem, pair.plus, 0.05)
        run_minus = adaptive_algorithm(problem, pair.minus, 0.05)
        same = (run_plus.cost == run_minus.cost
                and np.array_equal(run_plus.values, run_minus.values)
                and np.array_equal(run_plus.values, run.values))
        if not same:
            faults.append(f"runs distinguish the pair at rho={rho}")
        if solution_separation(problem, pair) < 2.0 * eta:
            faults.append(f"solutions too close at rho={rho}")
    _report(7, not faults, "; ".join(faults) or "2 radii, all checks hold")


def test_criterion_08_derivative_demo():
    start = time.perf_counter()
    mis = enumerate_derivative_spectrum(3, 30)
    problem = derivative_problem(mis)
    inp = random_periodic_input(3, 30, seed=20250101)
    f = derivative_coefficients(mis, inp)
    _SHARED["demo"] = (mis, problem, inp, f)

    products = mis.weights * f.dense(len(mis))
    suffix = np.sqrt(np.cumsum((products * products)[::-1])[::-1])

    def tail_after(n):
        return float(suffix[n]) if n < len(products) else 0.0

    def on_boundary(cost):
        if cost == 0:
            return True
        if cost % 16:
            return False
        q = cost // 16
        return q & (q - 1) == 0

    misses = 0
    stray = 0
    cost_at_tenth = None
    for eps in np.logspace(1.0, -1.0, 10):
        run = adaptive_algorithm(problem, f, eps)
        if tail_after(run.cost) > eps:
            misses += 1
        if not on_boundary(run.cost):
            stray += 1
        if eps == 0.1:
            cost_at_tenth = run.cost
    elapsed = time.perf_counter() - start
    magnitude_ok = (cost_at_tenth is not None
                    and 8192 / 4 <= cost_at_tenth <= 8192 * 4)
    ok = misses == 0 and stray == 0 and magnitude_ok and elapsed < 60.0
    _report(8, ok, f"{len(mis)} modes, {misses} misses, {stray} off-grid "
                   f"costs, cost {cost_at_tenth} at 0.1, {elapsed:.1f} s")


def test_criterion_09_derivative_matches_finite_differences():
    if "demo" in _SHARED:
        mis, problem, inp, f = _SHARED["demo"]
    else:
        mis = enumerate_derivative_spectrum(3, 30)
        problem = derivative_problem(mis)
        inp = random_periodic_input(3, 30, seed=20250101)
        f = derivative_coefficients(mis, inp)
    resolved = interpolate(problem, f, len(mis))
    gamma = default_gamma(3)
    rng = np.random.default_rng(321)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(size=3)
        plus, minus = x.copy(), x.copy()
        plus[0] += h
        minus[0] -= h
        fd = (evaluate_input(inp, gamma, plus)
              - evaluate_input(inp, gamma, minus)) / (2.0 * h)
        value = evaluate_solution(resolved, mis, x)
        worst = max(worst, abs(value - fd) / max(1.0, abs(fd)))
    _report(9, worst <= 1e-4, f"100 points, worst relative gap {worst:.2e}")
