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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       OutOfRangeError, Partition, Problem, SingularSpectrum,
                       DEFAULT_SCAN_LIMIT, _FSUM_BELOW, _bin_products,
                       _bin_squares, _chunks, _exact_sum, _new_bins,
                       _rounded, exact_norm, tail_norm)

DEFAULT_BLOCK_LIMIT = 64


@dataclass(frozen=True, eq=False)
class Approximation:
    """Retained solution coefficients plus run metadata.

    Every solver keeps a prefix: ``values`` holds lam_i * fhat_i for
    i = 1..cost, so ``cost``, the number of coefficient evaluations, is its
    length and ``indices`` is the read-only range 1..cost.
    Tolerance-driven runs also record the target tolerance, and adaptive
    runs record the stopping block and the data-driven error bound
    certified at termination.
    """

    values: np.ndarray
    stop_block: Optional[int] = None
    error_bound: Optional[float] = None
    tolerance: Optional[float] = None

    @property
    def cost(self) -> int:
        return len(self.values)

    @property
    def indices(self) -> np.ndarray:
        idx = np.arange(1, self.cost + 1, dtype=np.int64)
        idx.flags.writeable = False
        return idx


def stop_threshold(cone: ConeParams, epsilon: float) -> float:
    """Block norm level at which the adaptive run may stop.

    Equals epsilon * sqrt(1 - b**2) / (a * b); a block norm at or below it
    certifies that the whole remaining tail is at most epsilon.
    """
    return epsilon * math.sqrt(1.0 - cone.b * cone.b) / (cone.a * cone.b)


def interpolate(problem: Problem, f: CoefficientSource, n: int) -> Approximation:
    """Keep the first n solution coefficients.

    Products past the input's support bound are zero and are not computed;
    an n past a finite table raises OutOfRangeError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    length = problem.spectrum.enumerated_length
    if length is not None and n > length:
        raise OutOfRangeError(
            f"index {n} past the {length} enumerated singular values")
    vals = np.zeros(n)
    top = n if f.support_bound is None else min(n, f.support_bound)
    span = range(1, top + 1)
    vals[:top] = problem.spectrum.values(span) * f.coefficients(span)
    return Approximation(values=vals)


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
    finite table, since no modes exist past it); its ``values`` are prefix
    views of one read-only array, and every coefficient is evaluated
    exactly once.  Blocks are read as index ranges, 2**14 entries at a
    time, and no product is formed past the input's support bound.

    Raises ValueError unless every tolerance is positive (NaN included),
    when a solution coefficient read is not finite or its square overflows
    (so no certificate rests on one), or when a rule-based spectrum is not
    positive and non-increasing on the indices read.
    """
    runs, norms, _ = _walk(problem, f, epsilons, block_limit)
    return runs, norms


def _walk(problem: Problem, f: CoefficientSource, epsilons, block_limit: int,
          *, true_errors: bool = False) -> tuple:
    """The walk of ``adaptive_sweep``; returns ``(runs, norms, errors)``.

    ``errors`` is None unless ``true_errors`` is set; then it holds each
    run's error from ``_true_errors``, which reads no coefficient the walk
    read.
    """
    epsilons = list(epsilons)
    if not all(eps > 0 for eps in epsilons):
        raise ValueError("epsilon must be positive")
    spectrum, partition = problem.spectrum, problem.partition
    levels = [stop_threshold(problem.cone, eps) for eps in epsilons]
    pending = sorted(range(len(epsilons)), key=levels.__getitem__)
    stops = [None] * len(epsilons)
    length = spectrum.enumerated_length
    support = f.support_bound
    # per block j = 0, 1, ...: products, last index, exact sum of squares
    products, ends, sums, norms = [], [], [], []
    previous = math.inf
    for j in range(_blocks_walked(partition, block_limit) + 1):
        # block 0 holds indices 1..n_0, sampled but never tested
        start = ends[-1] + 1 if j else 1
        end = partition.block(j)[1] if j else partition.boundary(0)
        if length is not None:
            end = min(end, length)  # finite table: no modes past the end
        prod = np.zeros(end - start + 1)
        bins = _new_bins() if prod.size >= _FSUM_BELOW else None
        for span in _chunks(start, end):
            lam = spectrum.values(span)
            if length is None:
                spectrum.check_run(lam, previous)
                previous = lam[-1]
            piece = prod[span.start - start:span.stop - start]
            if (support is not None and span.start > support
                    and lam[0] < math.inf):
                continue  # the zeros lam * 0 gives for every finite lam
            np.multiply(lam, f.coefficients(span), out=piece)
            if bins is not None:
                _bin_squares(piece, bins)
        if bins is None:
            total, s = None, exact_norm(prod)
        else:
            total = _exact_sum(bins)
            s = math.sqrt(_rounded(total))
        if not math.isfinite(s):
            raise ValueError(
                f"non-finite norm over indices {start}..{end}: "
                "a solution coefficient is not finite or its square overflows")
        products.append(prod)
        ends.append(end)
        sums.append(total)
        if j:
            norms.append(s)
            while pending and s <= levels[pending[-1]]:
                stops[pending.pop()] = j
        if not pending:
            break
    last = max((j for j in stops if j is not None), default=0)
    values = np.concatenate(products[:last + 1])
    values.flags.writeable = False
    runs = [None if j is None else
            Approximation(values=values[:ends[j]], stop_block=j,
                          error_bound=problem.cone.tail_factor * norms[j - 1],
                          tolerance=eps)
            for eps, j in zip(epsilons, stops)]
    if not true_errors:
        return runs, norms, None
    return runs, norms, _true_errors(problem, f, stops, ends, products, sums)


def _true_errors(problem: Problem, f: CoefficientSource, stops: list,
                 ends: list, products: list, sums: list) -> list:
    """The ``tail_norms`` error of each stop block of a walk, bit for bit.

    The tail past block k's end is the exact sum of squares of blocks k+1
    onwards plus that of the support past the walk, rounded once.  Blocks
    the walk binned left their sums in ``sums``; one past the first stop
    that took the fsum path (a None sum) is binned from its products, and
    the support past the walk is read and binned once.  Returns None for
    a stop that is None, and for every stop without a support bound.
    """
    if f.support_bound is None:
        return [None] * len(stops)
    length = problem.spectrum.enumerated_length
    top = f.support_bound if length is None else min(f.support_bound, length)
    total = 0  # the exact sum of squares past the walk, up to the support
    if top > ends[-1]:
        bins = _new_bins()
        _bin_products(problem, f, ends[-1] + 1, top, bins)
        total = _exact_sum(bins)
    if isinstance(total, float):  # an inf or NaN square past the walk
        return [None if j is None else math.sqrt(total) for j in stops]
    walked = len(ends) - 1
    first = min((j for j in stops if j is not None), default=walked)
    tails = {walked: math.sqrt(_rounded(total))}
    for k in range(walked, first, -1):
        if sums[k] is None:
            bins = _new_bins()
            _bin_squares(products[k], bins)
            sums[k] = _exact_sum(bins)
        total += sums[k]
        tails[k - 1] = math.sqrt(_rounded(total))
    return [None if j is None else tails[j] for j in stops]


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
