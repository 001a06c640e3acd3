"""Shared fixtures and independent oracles for the test suite.

The oracles here recompute norms with plain Python loops and exact
summation, so library results are checked against code that shares no
implementation path with them.  The scan oracles rerun, one tolerance at
a time, the searches the library serves for a whole tolerance list.
"""

import math

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, GuardExceeded,
                      Partition, Problem, SingularSpectrum, adaptive_algorithm,
                      boundary_ratio, cli, fooling_input, stop_threshold)


def binned_square_sum(x):
    """2**1074 times the exact sum of the squares of ``x``, by exponent bins.

    The oracle of ``spectrum._square_sum``, sharing none of its code: per
    2**14 squares, three ``np.bincount`` passes over the 11-bit exponent
    field add the count of squares and the high and low 26 bits of their
    stored fractions, each bin sum an exact float, and every occupied field
    becomes one Python int.  Field e >= 1 holds (2**52 + fraction) *
    2**(e - 1075) and field 0, the subnormals, fraction * 2**-1074.  A NaN
    square gives NaN and an infinite one inf, as floats.
    """
    bins = np.zeros((3, 2048), dtype=np.int64)
    for start in range(0, x.size, 2 ** 14):
        with np.errstate(over="ignore", invalid="ignore"):
            bits = np.square(x[start:start + 2 ** 14]).view(np.int64)
        field = (bits >> 52) & 2047  # drops the sign a NaN may carry
        fraction = bits & ((1 << 52) - 1)
        bins[0] += np.bincount(field, minlength=2048)
        bins[1] += np.bincount(field, fraction >> 26, 2048).astype(np.int64)
        bins[2] += np.bincount(field, fraction & ((1 << 26) - 1),
                               2048).astype(np.int64)
    count, high, low = bins
    if count[-1]:  # exponent field 2047: inf, or NaN with a nonzero fraction
        return math.nan if high[-1] or low[-1] else math.inf
    total = 0
    for e in np.flatnonzero(count).tolist():
        c, h, l = int(count[e]), int(high[e]), int(low[e])
        total += ((h << 26) + l + (c << 52 if e else 0)) << max(e - 1, 0)
    return total


def unit_spectrum():
    """Constant weights lam_i = 1, handy for worked examples."""
    return SingularSpectrum.from_rule(
        lambda i: np.ones_like(np.asarray(i, dtype=np.float64)),
        name="unit")


class CountedHarmonic(SingularSpectrum):
    """lam_i = 1/i, recording the float indices each rule call evaluates
    in ``reads`` and those each check covers in ``checks``; the harmonic
    weights name their indices, i = 1 / lam_i."""

    def __init__(self):
        self.reads, self.checks = [], []

        def harmonic(i):
            self.reads.append(np.array(i))
            return 1.0 / i

        super().__init__(harmonic, name="counted")

    def _check_run(self, vals, previous=math.inf):
        self.checks.append(np.rint(1.0 / vals))
        super()._check_run(vals, previous)

    @staticmethod
    def counts(indices):
        """How often each index 0, 1, ... occurs in ``indices``."""
        return np.bincount(np.concatenate(indices).astype(np.int64))


def coefficient_of(f):
    """Per-index reader of ``f``: each index is read as its own range."""
    return lambda i: f.coefficients(range(i, i + 1))[0]


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
        v = problem.spectrum.value(i) * f.coefficients(range(i, i + 1))[0]
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
        coeffs[lo - 1:hi] = target * direction / problem.spectrum.values(
            range(lo, hi + 1))
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


# -- one scan per tolerance ----------------------------------------------------
# The block scans of the bounds as they ran before the tolerance-list forms:
# each walks the blocks from j = 1 for its own tolerance.

def scan_stop_block_bound(problem, epsilon, rho, block_limit):
    """The tight stopping-block bound, one tolerance at a time."""
    a, b = problem.cone.a, problem.cone.b
    target = (rho / epsilon) ** 2
    lead = (1.0 - b * b) / (a * a * b * b)
    partial = 0.0
    for j in range(1, block_limit + 1):
        edge = problem.spectrum.value(problem.partition.boundary(j - 1) + 1)
        bracket = partial + 1.0 / (edge * edge)
        if target <= lead * bracket:
            return j
        partial = (partial + 1.0 / (a * a * edge * edge)) / (b * b)
    raise GuardExceeded(f"no stopping block bound within {block_limit} blocks")


def scan_stop_block_bound_rough(problem, epsilon, rho, block_limit):
    """The rough stopping-block bound, one tolerance at a time."""
    level = stop_threshold(problem.cone, epsilon) / rho
    for j in range(1, block_limit + 1):
        edge = problem.spectrum.value(problem.partition.boundary(j - 1) + 1)
        if edge <= level:
            return j
    raise GuardExceeded(f"no rough stopping bound within {block_limit} blocks")


def scan_complexity_lower_block(problem, ratio, epsilon, rho, block_limit):
    """The lower-bound block, one tolerance at a time."""
    a, b = problem.cone.a, problem.cone.b
    target = (rho / epsilon) ** 2
    bracket = (a + 1.0) ** 2 * ratio * ratio / (a - 1.0) ** 2 + 1.0
    edge0 = problem.spectrum.value(problem.partition.boundary(0))
    tail_sum = 1.0 / (edge0 * edge0)
    best = 0
    for j in range(1, block_limit + 1):
        edge = problem.spectrum.value(problem.partition.boundary(j))
        tail_sum = tail_sum / (b * b) + 1.0 / (edge * edge)
        if bracket * tail_sum < target:
            best = j
        else:
            return best
    raise GuardExceeded(
        f"lower-bound block still growing at block limit {block_limit}")


def fresh_probe_search(problem, epsilon, rho, j_max, n_max, blocks=None,
                       ratio=None, start=None):
    """The ``adversarial`` probe search of one tolerance, started afresh at
    depth ``start`` (default ``blocks``, or 4).

    Grows the probe until a run at epsilon leaves a free coordinate; returns
    (ratio, depth, cost of that run).  A configured ``blocks`` is never
    grown.  Raises what the search raises, with the depth it reached as the
    exception's ``depth``: ValueError from the ratio check, GuardExceeded
    from a run, and ValueError when the next depth spans more than ``n_max``
    indices.
    """
    depth = start or (4 if blocks is None else blocks)
    try:
        while True:
            r = (boundary_ratio(problem, depth).value if ratio is None
                 else ratio)
            probe = fooling_input(problem, r, rho, depth)
            run = adaptive_algorithm(problem, probe, epsilon,
                                     block_limit=j_max)
            if run.cost + 1 < problem.partition.boundary(depth):
                return r, depth, run.cost
            if blocks is not None:
                raise ValueError(
                    "configured block count leaves no free coordinate for "
                    "the bump; increase adversarial.blocks")
            size = problem.partition.boundary(depth + 1)
            if size > n_max:
                raise ValueError(
                    f"the probe depth = {depth + 1} spans {size} indices, "
                    f"over the index budget guards.n_max = {n_max}")
            depth += 1
    except (ValueError, GuardExceeded) as exc:
        exc.depth = depth
        raise


def schema_leaves(spec=cli.SCHEMA, path=""):
    """The dotted path of every key of ``cli.SCHEMA`` that holds a value."""
    for key, sub in spec.items():
        full = f"{path}.{key}" if path else key
        if isinstance(sub, dict):
            yield from schema_leaves(sub, full)
        else:
            yield full
