"""Solvers: fixed-budget interpolation and two tolerance-driven algorithms.

All three return an :class:`Approximation` holding the retained solution
coefficients.  ``interpolate`` keeps a caller-chosen number of leading
coefficients.  ``ball_algorithm`` picks that number a priori from the
singular values, which is the optimal fixed choice over a norm ball.
``adaptive_algorithm`` reads block norms off the data and stops when the
cone decay certifies the remaining tail, paying only for what the input
actually required; ``adaptive_sweep`` does the same for a whole tolerance
list in one walk.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       OutOfRangeError, Problem, SingularSpectrum,
                       block_tails, products, read_blocks, tail_norm)

DEFAULT_BLOCK_LIMIT = 64


@dataclass(frozen=True, eq=False)
class Approximation:
    """Retained solution coefficients plus run metadata.

    Every solver keeps a prefix: ``cost`` is the number of coefficients it
    retains (n_j for an adaptive run), and ``values`` holds the input's
    ``spectrum.products`` through ``cost``, read-only: from index 1, or at
    ``places``, its first nonzeros, for a ``from_sparse`` input (else None).
    Tolerance-driven runs also record the target tolerance, and adaptive
    runs the stopping block and the error bound certified at termination.
    """

    values: np.ndarray
    cost: int
    stop_block: Optional[int] = None
    error_bound: Optional[float] = None
    tolerance: Optional[float] = None
    places: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class Walk:
    """What the block walk of ``adaptive_sweep`` read, and where it stopped.

    ``values`` holds the products through ``ends[-1]``, read-only, in the
    format of a run.  Block j (0 is indices 1..n_0) ends at ``ends[j]``
    with the ``read_blocks`` total ``sums[j]``, an exact int where the
    block holds 2**9 products or more and None where ``true_errors`` sums
    its squares from ``values``; block j >= 1 has norm
    ``norms[j - 1]``.  ``stops`` and ``runs`` hold each tolerance's stop
    block and run (prefix views of ``values``), None where no block read
    qualified.
    """

    problem: Problem
    f: CoefficientSource
    values: np.ndarray
    ends: tuple
    sums: tuple
    norms: tuple
    stops: tuple
    runs: tuple

    def true_errors(self) -> list:
        """Each run's ``true_error``, bit for bit, from ``block_tails``;
        None for a None run."""
        settled = [j for j in self.stops if j is not None]
        if not settled:
            return [None] * len(self.stops)
        first = min(settled)
        tails = block_tails(self.problem, self.f, self.values,
                            self.ends[first:], self.sums[first:])
        return [None if j is None else tails[j - first] for j in self.stops]


def stop_threshold(cone: ConeParams, epsilon: float) -> float:
    """Block norm level at which the adaptive run may stop.

    Equals epsilon * sqrt(1 - b**2) / (a * b); a block norm at or below it
    certifies that the whole remaining tail is at most epsilon.
    """
    return epsilon * math.sqrt(1.0 - cone.b * cone.b) / (cone.a * cone.b)


def interpolate(problem: Problem, f: CoefficientSource, n: int) -> Approximation:
    """Keep the first n solution coefficients, as ``spectrum.products``
    forms them through min(n, support bound) (see :class:`Approximation`);
    an n past a finite table raises OutOfRangeError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    length = problem.spectrum.enumerated_length
    if length is not None and n > length:
        raise OutOfRangeError(
            f"index {n} past the {length} enumerated singular values")
    values = products(problem.spectrum, f, 1, min(n, f.support_bound))
    values.flags.writeable = False
    return Approximation(values=values, cost=n, places=_places(f, values))


def _places(f: CoefficientSource, values: np.ndarray):
    """The indices of ``values``, products of ``f``: None for a prefix."""
    return None if f.nonzeros is None else f.nonzeros[0][:values.size]


def ball_budget(spectrum: SingularSpectrum, epsilon: float, rho: float) -> int:
    """Smallest budget n >= 0 with lam_{n+1} * rho <= epsilon.

    The boundary is settled on the exact product lam * rho: the scan runs
    against the level t, the quotient epsilon / rho rounded down to a
    float (the largest float past the float range, inf for an infinite
    epsilon and 0 for an infinite rho), so a float lam is at or below t
    exactly where lam * rho <= epsilon holds exactly.  At t = 0 no
    positive lam qualifies: a finite table, zero past its last mode, keeps
    its whole length, and a rule raises GuardExceeded, as it does for a
    budget past 2**30 (``first_at_or_below``).  Raises ValueError unless
    epsilon and rho are positive (NaN included).
    """
    if not (epsilon > 0 and rho > 0):
        raise ValueError("epsilon and rho must be positive")
    if math.inf in (epsilon, rho):
        level = math.inf if epsilon == math.inf else 0.0
    else:  # epsilon / rho is num / den exactly, and int / int rounds once
        num, den = epsilon.as_integer_ratio()
        rho_num, rho_den = rho.as_integer_ratio()
        num, den = num * rho_den, den * rho_num
        try:
            level = num / den
        except OverflowError:
            level = sys.float_info.max
        top, bottom = level.as_integer_ratio()
        if top * den > num * bottom:  # rounded up past the quotient
            level = math.nextafter(level, 0.0)
    length = spectrum.enumerated_length
    if level == 0.0:  # no positive lam qualifies
        if length is None:
            raise GuardExceeded(
                f"no singular value qualifies: epsilon / rho = {epsilon!r} "
                f"/ {rho!r} is below the float range")
        return length
    try:
        return spectrum.first_at_or_below(level) - 1
    except OutOfRangeError:
        return length


def ball_algorithm(problem: Problem, f: CoefficientSource, epsilon: float,
                   rho: float) -> Approximation:
    """Fixed-budget solver tuned to the norm ball of radius rho.

    Keeps n* = min{n >= 0 : lam_{n+1} * rho <= epsilon} coefficients (see
    ``ball_budget``), the smallest budget whose worst-case error over the
    ball is within epsilon: every input of norm at most rho then satisfies
    ||tail|| <= lam_{n*+1} * rho <= epsilon.  Raises GuardExceeded when no
    such n within 2**30 exists.
    """
    n_star = ball_budget(problem.spectrum, epsilon, rho)
    return replace(interpolate(problem, f, n_star), tolerance=epsilon)


def adaptive_sweep(problem: Problem, f: CoefficientSource, epsilons,
                   *, block_limit: int = DEFAULT_BLOCK_LIMIT) -> Walk:
    """One block walk serving a whole tolerance list, as a :class:`Walk`.

    Reads the blocks through ``read_blocks`` and settles each tolerance
    epsilon at the first block j with s_j <= epsilon*sqrt(1-b**2)/(a*b), a
    plain floating-point <=.  The level grows with epsilon, so the walk
    stops at the smallest tolerance's stop block, at ``block_limit`` or at
    the end of an explicit partition.  For a cone member the tail is then
    at most a*b*s_j/sqrt(1-b**2) <= epsilon, the run's ``error_bound``.
    Each run, None where no block read qualifies, is the interpolation
    through its boundary n_j (clipped to a finite table), and every
    coefficient up to the support bound is evaluated once.  Raises
    ValueError for a tolerance that is not positive (NaN included), and
    passes on that of ``read_blocks``.
    """
    epsilons = list(epsilons)
    if not all(eps > 0 for eps in epsilons):
        raise ValueError("epsilon must be positive")
    levels = [stop_threshold(problem.cone, eps) for eps in epsilons]
    pending = sorted(range(len(epsilons)), key=levels.__getitem__)
    stops = [None] * len(epsilons)
    blocks = []
    last = problem.partition.last_block(block_limit)
    # each block's values extend the last, so the last block's are the walk's
    for j, (end, values, total, s) in enumerate(read_blocks(problem, f, last)):
        blocks.append((end, total, s, values.size))
        while j and pending and s <= levels[pending[-1]]:
            stops[pending.pop()] = j
        if not pending:
            break
    ends, sums, norms, sizes = zip(*blocks)
    values.flags.writeable = False
    runs = tuple(None if j is None else
                 Approximation(values=values[:sizes[j]], cost=ends[j],
                               stop_block=j, tolerance=eps,
                               error_bound=problem.cone.tail_factor * norms[j],
                               places=_places(f, values[:sizes[j]]))
                 for eps, j in zip(epsilons, stops))
    return Walk(problem, f, values, ends, sums, norms[1:], tuple(stops), runs)


def no_stop_error(problem: Problem, block_limit: int) -> GuardExceeded:
    """The guard failure of a tolerance no block of a walk settles.

    The message names the blocks that walk could read, which is fewer than
    ``block_limit`` when the problem's explicit partition ends first.
    """
    walked = problem.partition.last_block(block_limit)
    return GuardExceeded(
        f"no stopping block within {walked} blocks; the input may not "
        "satisfy the assumed decay, or the tolerance may be unreachable")


def adaptive_algorithm(problem: Problem, f: CoefficientSource, epsilon: float,
                       *, block_limit: int = DEFAULT_BLOCK_LIMIT) -> Approximation:
    """Data-driven solver with a certified error bound at termination.

    The single-tolerance case of ``adaptive_sweep``: returns the
    interpolation through the first block whose norm certifies the tail
    within epsilon, with ``cost`` equal to its boundary n_j and the
    certified ``error_bound``.  Raises GuardExceeded when no block within
    ``block_limit`` satisfies the stopping rule.
    """
    (run,) = adaptive_sweep(problem, f, [epsilon],
                            block_limit=block_limit).runs
    if run is None:
        raise no_stop_error(problem, block_limit)
    return run


def true_error(problem: Problem, f: CoefficientSource, approx: Approximation) -> float:
    """Reference error of an approximation for a finite-support input.

    The retained pairs reproduce the solution coefficients exactly, so the
    error is ``tail_norm`` past index ``approx.cost``.  For many runs of
    one input, ``tail_norms`` gives every error from one pass.
    """
    return tail_norm(problem, f, approx.cost)
