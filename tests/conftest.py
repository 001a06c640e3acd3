"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute norms with plain Python loops and exact
summation, so library results are checked against code that shares no
implementation path with them.
"""

import math

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, Partition, Problem,
                      SingularSpectrum)


def unit_spectrum():
    """Constant weights lam_i = 1, handy for worked examples."""
    return SingularSpectrum.from_rule(
        lambda i: np.ones_like(np.asarray(i, dtype=np.float64)),
        name="unit")


def brute_tail(lam_of, coeff_of, n, support):
    """sqrt(sum_{i=n+1}^{support} (lam_i * fhat_i)**2) by direct summation."""
    terms = []
    for i in range(n + 1, support + 1):
        v = lam_of(i) * coeff_of(i)
        terms.append(v * v)
    return math.sqrt(math.fsum(terms))


def brute_sigma(problem, f, j):
    """Block norm recomputed index by index, independent of block_norm."""
    lo, hi = problem.partition.block(j)
    length = problem.spectrum.enumerated_length
    if length is not None:
        hi = min(hi, length)
    terms = []
    for i in range(lo, hi + 1):
        v = problem.spectrum.value(i) * f.coefficient(i)
        terms.append(v * v)
    return math.sqrt(math.fsum(terms))


def pair_ratio(cone, norms, j, r):
    """s_{j+r} / (a * b**r * s_j) for 1-based block j, as the cone states it.

    A zero later norm is ratio 0 and a zero allowance under a positive
    later norm is an infinite ratio.
    """
    allowed = cone.a * cone.b ** r * norms[j - 1]
    actual = norms[j + r - 1]
    if actual == 0.0:
        return 0.0
    if allowed == 0.0:
        return math.inf
    return actual / allowed


def brute_worst_ratio(cone, norms):
    """Worst decay ratio over every block pair 1 <= j < j+r <= J, pair by pair."""
    last = len(norms)
    return max([0.0] + [pair_ratio(cone, norms, j, r)
                        for j in range(1, last)
                        for r in range(1, last - j + 1)])


def profile_member(problem, rng, blocks, scale=1.0, head=False):
    """Finite-support input obeying the cone decay, built from scratch.

    Draws block norms s_j = scale * u_j * b**j with u_j uniform on [1, a],
    so s_{j+r}/s_j = (u_{j+r}/u_j) * b**r <= a * b**r by construction, then
    spreads each block's mass along a random direction.
    """
    a, b = problem.cone.a, problem.cone.b
    coeffs = np.zeros(problem.partition.boundary(blocks))
    for j in range(1, blocks + 1):
        target = scale * rng.uniform(1.0, a) * b ** j
        lo, hi = problem.partition.block(j)
        direction = rng.standard_normal(hi - lo + 1)
        direction /= np.linalg.norm(direction)
        idx = np.arange(lo, hi + 1)
        coeffs[lo - 1:hi] = target * direction / problem.spectrum.values(idx)
    if head and problem.partition.boundary(0) > 0:
        coeffs[:problem.partition.boundary(0)] = scale * rng.standard_normal(
            problem.partition.boundary(0))
    return CoefficientSource.from_vector(coeffs)


@pytest.fixture
def unit_doubling():
    """lam_i = 1, n = (1, 2, 4, 8, ...), a = 2, b = 1/2."""
    return Problem(unit_spectrum(), Partition.doubling(1), ConeParams(2.0, 0.5))


@pytest.fixture
def harmonic_doubling():
    """lam_i = 1/i, n = (1, 2, 4, 8, ...), a = 2, b = 1/2."""
    return Problem(SingularSpectrum.algebraic(1.0, 1.0), Partition.doubling(1),
                   ConeParams(2.0, 0.5))
