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

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       OutOfRangeError, Partition, Problem, SingularSpectrum,
                       DEFAULT_SCAN_LIMIT, exact_norm, tail_norm)

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


def adaptive_sweep(problem: Problem, f: CoefficientSource, epsilons,
                   *, block_limit: int = DEFAULT_BLOCK_LIMIT) -> tuple:
    """One block walk serving a whole tolerance list.

    Walks the blocks in order, computing each block norm s_j once, and
    settles every tolerance epsilon at the first block j with
    s_j <= epsilon * sqrt(1-b**2)/(a*b).  The level grows with epsilon, so
    the walk stops at the stop block of the smallest tolerance, or at
    ``block_limit`` or the last block of an explicit partition, whichever
    comes first.  For inputs satisfying the cone decay the remaining tail
    is then at most a*b*s_j/sqrt(1-b**2) <= epsilon, which is recorded as
    ``error_bound``.  The comparison is a plain floating-point
    <=, and each s_j is the exact-summation norm that ``block_norm``
    computes.

    Returns ``(runs, norms)``: one Approximation per tolerance in input
    order, or None where no block within that walk qualifies, and
    the block norms s_1..s_J read.  Each run is the interpolation through
    its boundary n_j (clipped to the table length when the spectrum is a
    finite table, since no modes exist past it); its ``indices`` and
    ``values`` are prefix views of one read-only array, and every
    coefficient is evaluated exactly once.

    Raises ValueError unless every tolerance is positive (NaN included),
    when a solution coefficient read is not finite or its square overflows
    (so no certificate rests on one), or when a rule-based spectrum is not
    positive and non-increasing on the indices read.
    """
    epsilons = list(epsilons)
    if not all(eps > 0 for eps in epsilons):
        raise ValueError("epsilon must be positive")
    spectrum, partition = problem.spectrum, problem.partition
    levels = [stop_threshold(problem.cone, eps) for eps in epsilons]
    pending = sorted(range(len(epsilons)), key=levels.__getitem__)
    stops = [None] * len(epsilons)
    length = spectrum.enumerated_length
    block_limit = _blocks_walked(partition, block_limit)
    # piece 0 holds indices 1..n_0, sampled but never tested
    pieces = itertools.chain(
        [np.arange(1, partition.boundary(0) + 1, dtype=np.int64)],
        map(partition.block_indices, range(1, block_limit + 1)))
    kept_idx, kept_val, ends, norms = [], [], [], []
    previous = math.inf
    for j, idx in enumerate(pieces):
        if length is not None:
            idx = idx[idx <= length]  # finite table: no modes past the end
        lam = spectrum.values(idx)
        if length is None and lam.size:
            spectrum.check_run(lam, previous)
            previous = lam[-1]
        prod = lam * f.coefficients(idx)
        kept_idx.append(idx)
        kept_val.append(prod)
        ends.append(idx.size + (ends[-1] if ends else 0))
        s = exact_norm(prod)
        if not math.isfinite(s):
            raise ValueError(
                f"non-finite norm over indices {int(idx[0])}..{int(idx[-1])}: "
                "a solution coefficient is not finite or its square overflows")
        if j:
            norms.append(s)
            while pending and s <= levels[pending[-1]]:
                stops[pending.pop()] = j
        if not pending:
            break
    last = max((j for j in stops if j is not None), default=0)
    indices = np.concatenate(kept_idx[:last + 1])
    values = np.concatenate(kept_val[:last + 1])
    indices.flags.writeable = False
    values.flags.writeable = False
    runs = [None if j is None else
            Approximation(indices=indices[:ends[j]], values=values[:ends[j]],
                          cost=ends[j], stop_block=j,
                          error_bound=problem.cone.tail_factor * norms[j - 1],
                          tolerance=eps)
            for eps, j in zip(epsilons, stops)]
    return runs, norms


def _blocks_walked(partition: Partition, block_limit: int) -> int:
    """Blocks a walk may read: ``block_limit``, or fewer where an explicit
    partition ends first."""
    if partition.block_count is None:
        return block_limit
    return min(block_limit, partition.block_count)


def no_stop_error(problem: Problem, block_limit: int) -> GuardExceeded:
    """The guard failure of a tolerance no block of a walk settles.

    The message names the blocks that walk could read, which is fewer than
    ``block_limit`` when the problem's explicit partition ends first.
    """
    walked = _blocks_walked(problem.partition, block_limit)
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
    (run,), _ = adaptive_sweep(problem, f, [epsilon], block_limit=block_limit)
    if run is None:
        raise no_stop_error(problem, block_limit)
    return run


def true_error(problem: Problem, f: CoefficientSource, approx: Approximation) -> float:
    """Reference error of an approximation for a finite-support input.

    The retained pairs reproduce the solution coefficients exactly, so the
    error is the norm of the coefficient tail past index ``approx.cost``:
    ``tail_norm``, correctly rounded with the bits of ``math.fsum``, and
    inf where the exact sum of squares exceeds the float range.  For many
    runs of one input, ``tail_norms`` gives every error from one pass.
    """
    return tail_norm(problem, f, approx.cost)
