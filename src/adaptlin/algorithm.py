"""Solvers: fixed-budget interpolation and two tolerance-driven algorithms.

All three return an :class:`Approximation` holding the retained solution
coefficients.  ``interpolate`` keeps a caller-chosen number of leading
coefficients.  ``ball_algorithm`` picks that number a priori from the
singular values, which is the optimal fixed choice over a norm ball.
``adaptive_algorithm`` reads block norms off the data and stops when the
cone decay certifies the remaining tail, paying only for what the input
actually required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       OutOfRangeError, Problem, SingularSpectrum,
                       DEFAULT_SCAN_LIMIT, tail_norm)

DEFAULT_BLOCK_LIMIT = 64


@dataclass(frozen=True, eq=False)
class Approximation:
    """Retained solution coefficients plus run metadata.

    ``indices`` and ``values`` hold the pairs (i, lam_i * fhat_i) actually
    computed; ``cost`` counts coefficient evaluations and always equals the
    number of retained pairs.  Tolerance-driven runs also record the target
    tolerance, and adaptive runs record the stopping block and the
    data-driven error bound certified at termination.
    """

    indices: np.ndarray
    values: np.ndarray
    cost: int
    stop_block: Optional[int] = None
    error_bound: Optional[float] = None
    tolerance: Optional[float] = None

    def __post_init__(self):
        if len(self.indices) != self.cost or len(self.values) != self.cost:
            raise ValueError("cost must equal the number of retained pairs")

    @property
    def retained(self):
        """Retained pairs as a list of (index, lam_i * fhat_i)."""
        return list(zip((int(i) for i in self.indices),
                        (float(v) for v in self.values)))


def stop_threshold(cone: ConeParams, epsilon: float) -> float:
    """Block norm level at which the adaptive run may stop.

    Equals epsilon * sqrt(1 - b**2) / (a * b); a block norm at or below it
    certifies that the whole remaining tail is at most epsilon.
    """
    return epsilon * math.sqrt(1.0 - cone.b * cone.b) / (cone.a * cone.b)


def interpolate(problem: Problem, f: CoefficientSource, n: int) -> Approximation:
    """Keep the first n solution coefficients; exactly n evaluations."""
    if n < 0:
        raise ValueError("n must be non-negative")
    idx = np.arange(1, n + 1, dtype=np.int64)
    vals = problem.spectrum.values(idx) * f.coefficients(idx)
    return Approximation(indices=idx, values=vals, cost=n)


def ball_budget(spectrum: SingularSpectrum, epsilon: float, rho: float, *,
                scan_limit: int = DEFAULT_SCAN_LIMIT) -> int:
    """Smallest budget n >= 0 with lam_{n+1} * rho <= epsilon.

    The boundary is settled on the rounded product lam * rho, not on the
    rounded quotient epsilon / rho: the scan runs against the largest
    float t with t * rho <= epsilon, which exists because rounding keeps
    the product monotone in t.  A finite table counts as zero past its
    last mode, so its whole length always qualifies.  Raises ValueError
    unless epsilon and rho are positive (NaN included), and GuardExceeded
    when the budget exceeds ``scan_limit``.
    """
    if not (epsilon > 0 and rho > 0):
        raise ValueError("epsilon and rho must be positive")
    level = epsilon / rho
    while level * rho > epsilon:
        level = math.nextafter(level, 0.0)
    while level < math.inf and math.nextafter(level, math.inf) * rho <= epsilon:
        level = math.nextafter(level, math.inf)
    try:
        first = spectrum.first_at_or_below(level, limit=scan_limit + 1)
    except OutOfRangeError:
        first = spectrum.enumerated_length + 1
    n_star = first - 1
    if n_star > scan_limit:
        raise GuardExceeded(f"budget {n_star} exceeds scan limit {scan_limit}")
    return n_star


def ball_algorithm(problem: Problem, f: CoefficientSource, epsilon: float,
                   rho: float, *, scan_limit: int = DEFAULT_SCAN_LIMIT) -> Approximation:
    """Fixed-budget solver tuned to the norm ball of radius rho.

    Keeps n* = min{n >= 0 : lam_{n+1} * rho <= epsilon} coefficients (see
    ``ball_budget``), the smallest budget whose worst-case error over the
    ball is within epsilon: every input of norm at most rho then satisfies
    ||tail|| <= lam_{n*+1} * rho <= epsilon.  Raises GuardExceeded when no
    such n within ``scan_limit`` exists.
    """
    n_star = ball_budget(problem.spectrum, epsilon, rho, scan_limit=scan_limit)
    return replace(interpolate(problem, f, n_star), tolerance=epsilon)


def adaptive_algorithm(problem: Problem, f: CoefficientSource, epsilon: float,
                       *, block_limit: int = DEFAULT_BLOCK_LIMIT) -> Approximation:
    """Data-driven solver with a certified error bound at termination.

    Walks the blocks in order, computing each block norm once, and stops at
    the first block j whose norm s_j falls to epsilon * sqrt(1-b**2)/(a*b)
    or below.  For inputs satisfying the cone decay the remaining tail is
    then at most a*b*s_j/sqrt(1-b**2) <= epsilon, which is recorded as
    ``error_bound``.  The comparison is a plain floating-point <=.

    Returns the interpolation through boundary n_j.  Indices 1..n_0 are
    sampled only at assembly, and every coefficient is evaluated exactly
    once, so ``cost`` equals n_j (clipped to the table length when the
    spectrum is a finite table, since no modes exist past it).  Raises
    GuardExceeded when no block within ``block_limit`` satisfies the
    stopping rule.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    threshold = stop_threshold(problem.cone, epsilon)
    length = problem.spectrum.enumerated_length
    kept_idx = []
    kept_val = []
    for j in range(1, block_limit + 1):
        idx = problem.partition.block_indices(j)
        if length is not None:
            idx = idx[idx <= length]  # finite table: no modes past the end
        prod = problem.spectrum.values(idx) * f.coefficients(idx)
        kept_idx.append(idx)
        kept_val.append(prod)
        s = math.sqrt(math.fsum((prod * prod).tolist()))
        if s <= threshold:
            top = problem.partition.boundary(0)
            if length is not None:
                top = min(top, length)
            head = np.arange(1, top + 1, dtype=np.int64)
            head_vals = problem.spectrum.values(head) * f.coefficients(head)
            indices = np.concatenate([head] + kept_idx)
            values = np.concatenate([head_vals] + kept_val)
            return Approximation(indices=indices, values=values,
                                 cost=int(indices.size),
                                 stop_block=j,
                                 error_bound=problem.cone.tail_factor * s,
                                 tolerance=epsilon)
    raise GuardExceeded(
        f"no stopping block within {block_limit} blocks; the input may not "
        "satisfy the assumed decay, or the tolerance may be unreachable")


def true_error(problem: Problem, f: CoefficientSource, approx: Approximation) -> float:
    """Reference error of an approximation for a finite-support input.

    The retained pairs reproduce the solution coefficients exactly, so the
    error is the norm of the coefficient tail past index ``approx.cost``.
    """
    return tail_norm(problem, f, approx.cost)
