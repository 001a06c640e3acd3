"""Adversarial inputs that certify the cost lower bound.

The construction places one coefficient per block, at the block's
boundary index n_k, so that the block norm profile decays exactly
geometrically.  It then adds a bump that vanishes at every coordinate an
algorithm sampled and is orthogonal to that base input.  Because the base
is supported on the boundaries n_1..n_blocks alone, the bump has a closed
form: a unit vector at the lowest unsampled index where the base
vanishes, or, when every unsampled index is such a boundary, a
two-coordinate rotation of the base values at the two lowest of them.
The two perturbed inputs are indistinguishable from the base input
through the samples, both stay admissible and inside the norm ball, yet
their solutions differ by a computable separation.  Any algorithm
sampling too few coefficients must therefore err on one of them.

Each construction reads lam_{n_0}..lam_{n_blocks} once, through
``analysis.lower_sums``, which also serves ``complexity_lower_block``: the
same drops check the ratio and the same S_blocks sizes the amplitude.  A
depth whose S_blocks is past the float range fails with ValueError.
``fooling_inputs`` grows a probe depth by depth from that one read, with
the running boundary ratio where none is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_left
from itertools import chain, repeat, tee
from typing import Iterator, Optional, Sequence

import numpy as np

from .analysis import boundary_drops, lower_sums, running_ratios
from .spectrum import CoefficientSource, Problem, exact_norm


@dataclass(frozen=True, eq=False)
class FoolingPair:
    """Base input, bump, and the two perturbed inputs.

    ``amplitude`` is the common scale of the base profile, ``shift`` the
    step applied along the bump, ``ratio`` the boundary ratio bound used,
    and ``blocks`` the number of profile blocks.  All four inputs are
    ``CoefficientSource.from_sparse`` sources with support bound n_blocks:
    the bump's ``nonzeros`` are its one or two entries, and
    ``bump.dense(bump.size)`` is the bump as a vector over 1..n_blocks.
    """

    base: CoefficientSource
    bump: CoefficientSource
    plus: CoefficientSource
    minus: CoefficientSource
    amplitude: float
    shift: float
    ratio: float
    blocks: int


def _profiles(problem: Problem, rho: float, first: int,
              ratio: Optional[float] = None) -> Iterator[tuple]:
    """(r, lams, c) at depths d = first, first + 1, ...: the ratio bound r,
    lam_{n_0}..lam_{n_d} and the amplitude c of ``fooling_scale``, from one
    read of each boundary value.  r is ``ratio``, or
    ``boundary_ratio(problem, d).value`` where ``ratio`` is None.  Raises
    ValueError at the first depth whose ratio is below 1 or below a
    boundary drop, or whose S_d is past the float range."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if first < 1:
        raise ValueError("need at least one block")
    if ratio is not None and ratio < 1.0:
        raise ValueError("ratio must be at least 1")
    a = problem.cone.a
    ladder, again = tee(lower_sums(problem))
    ratios = (repeat(ratio) if ratio is not None
              else running_ratios(lam for lam, _ in again))
    lams = []
    # depth d pairs (lam_{n_d}, S_d) with the d-th ratio; depth 0 has none
    for depth, ((lam, total), r) in enumerate(zip(ladder,
                                                  chain([None], ratios))):
        lams.append(lam)
        if depth < first:
            continue
        if r < 1.0:
            raise ValueError("ratio must be at least 1")
        # the drops of a shallower depth passed a ratio no larger than r
        new = first if depth == first else 1
        for k, drop in enumerate(boundary_drops(lams[-new - 1:]),
                                 start=depth - new + 1):
            if drop > r * (1.0 + 1e-12):
                raise ValueError(
                    f"ratio {r} is below the actual boundary drop {drop} at block {k}")
        inflation = 1.0 + (a - 1.0) ** 2 / ((a + 1.0) ** 2 * r * r)
        scale = inflation * total
        if scale == math.inf:
            raise ValueError(f"the profile sum S_{depth} is past the float "
                             f"range at depth {depth}")
        yield r, tuple(lams), rho / math.sqrt(scale)


def fooling_scale(problem: Problem, ratio: float, rho: float, blocks: int) -> float:
    """Amplitude c of the base profile.

    c**2 = rho**2 / ( (1 + (a-1)**2 / ((a+1)**2 ratio**2))
                      * sum_{k=0}^{blocks} b**(2(k-blocks)) / lam_{n_k}**2 ),

    sized so the base input plus a unit-blockwise bump still fits in the
    ball of radius rho.  Raises ValueError when ``ratio`` is below a
    boundary drop up to block ``blocks``, and when the sum is past the
    float range.
    """
    return next(_profiles(problem, rho, blocks, ratio))[2]


def _base_input(problem: Problem, ends: Sequence, lams: Sequence,
                c: float) -> CoefficientSource:
    """The base input of amplitude c over the boundaries ``ends`` =
    n_0..n_blocks: c * b**(k - blocks) / lam_{n_k} at each n_k,
    k = 1..blocks, and zero elsewhere up to n_blocks."""
    b = problem.cone.b
    blocks = len(lams) - 1
    values = [c * b ** (k - blocks) / lams[k] for k in range(1, blocks + 1)]
    return CoefficientSource.from_sparse(ends[1:], values, ends[-1])


def fooling_input(problem: Problem, ratio: float, rho: float, blocks: int) -> CoefficientSource:
    """Admissible input whose block norm profile is exactly c * b**(k - blocks).

    Places the single coefficient c * b**(k-blocks) / lam_{n_k} at index n_k
    for k = 1..blocks and zero elsewhere, so block k has norm c * b**(k-blocks)
    and the decay constraint holds with equality at r = 1 steps.
    """
    return next(fooling_inputs(problem, rho, blocks, ratio))[1]


def fooling_inputs(problem: Problem, rho: float, first: int,
                   ratio: Optional[float] = None) -> Iterator[tuple]:
    """(r, ``fooling_input(problem, r, rho, d)``) for d = first, first + 1,
    ..., bit for bit, from one read of each boundary value, where r is
    ``ratio``, or ``boundary_ratio(problem, d).value`` where ``ratio`` is
    None.  Raises at the first depth whose ``fooling_input`` raises, with
    its message, and yields nothing after."""
    ends = []
    for r, lams, c in _profiles(problem, rho, first, ratio):
        ends += map(problem.partition.boundary, range(len(ends), len(lams)))
        yield r, _base_input(problem, ends, lams, c)


def _free_indices(zeroed_functionals, dimension: int) -> tuple:
    """``(count, free)``: the number of distinct indices of
    ``zeroed_functionals`` inside 1..dimension, and an iterator over the
    other indices of 1..dimension in increasing order.  A step-1 range is
    clipped and skipped by arithmetic; any other sequence becomes a set of
    its indices inside 1..dimension."""
    zeroed = zeroed_functionals
    if isinstance(zeroed, range) and zeroed.step == 1:
        lo, hi = max(zeroed.start, 1), min(zeroed.stop - 1, dimension)
        if lo > hi:
            return 0, iter(range(1, dimension + 1))
        return hi - lo + 1, chain(range(1, lo), range(hi + 1, dimension + 1))
    zeroed = {i for i in zeroed if 1 <= i <= dimension}
    return len(zeroed), (i for i in range(1, dimension + 1)
                         if i not in zeroed)


def fooling_pair(problem: Problem, ratio: float, rho: float, blocks: int,
                 zeroed_functionals: Sequence[int]) -> FoolingPair:
    """Base input f and perturbations f +- shift * u agreeing on sampled indices.

    The bump u is supported on indices 1..n_blocks, vanishes at every index
    in ``zeroed_functionals``, and is orthogonal to f, so f, f+ and f- are
    indistinguishable through the zeroed coordinates.  Since f is nonzero
    only at the boundaries n_1..n_blocks, u is the unit vector at the lowest
    free index where f vanishes; when every free index is a boundary, u is
    f_q e_p - f_p e_q at the two lowest free indices p < q.  Either is found
    among the first blocks + 1 free indices, so no array of the dimension
    n_blocks is formed.  Writing u as a sum of per-block pieces u_k weighted
    by b**(k-blocks) / lam_{n_k}, the bump is rescaled so
    max_k ||u_k|| = 1; the step is shift = (a-1) c / ((a+1) ratio).  Both
    perturbations then stay admissible with norm at most rho.

    Feasibility requires strictly fewer constraints than dimensions:
    |zeroed inside 1..n_blocks| + 1 < n_blocks.
    """
    _, lams, c = next(_profiles(problem, rho, blocks, ratio))
    a, b = problem.cone.a, problem.cone.b
    ends = [problem.partition.boundary(k) for k in range(blocks + 1)]
    dimension = ends[-1]
    constraints, free = _free_indices(zeroed_functionals, dimension)
    if constraints + 1 >= dimension:
        raise ValueError(
            f"infeasible: {constraints} zeroed functionals + 1 orthogonality "
            f"constraint must stay below the {dimension} available dimensions")

    base = _base_input(problem, ends, lams, c)
    base_at = dict(zip(ends[1:], base.nonzeros[1].tolist()))
    passed = []  # the free indices so far, each one where f is nonzero
    for i in free:
        if base_at.get(i, 0.0) == 0.0:
            bump_at = {i: 1.0}
            break
        passed.append(i)
    else:
        p, q = passed[:2]
        bump_at = {p: base_at[q], q: -base_at[p]}

    # u restricted to block k is weight_k * u_k, so u_k = u[block] / weight_k,
    # with weight_k = b**(k-blocks) / lam_{n_k}; piece 0 is the head 1..n_0,
    # and piece k holds n_{k-1} < i <= n_k.  A piece without an entry of u
    # has norm 0, below that of one with an entry, so it is left out.
    pieces = {}
    for i, v in bump_at.items():
        pieces.setdefault(bisect_left(ends, i), []).append(v)
    scale = max(exact_norm(np.array(piece)) / (b ** (k - blocks) / lams[k])
                for k, piece in pieces.items())
    bump_at = {i: v / scale for i, v in bump_at.items()}  # p < q in order
    bump = CoefficientSource.from_sparse(list(bump_at), list(bump_at.values()),
                                         dimension)

    shift = (a - 1.0) * c / ((a + 1.0) * ratio)
    # f +- shift * u on the union of both supports; zero elsewhere
    places = sorted(base_at.keys() | bump_at.keys())
    steps = [(base_at.get(i, 0.0), shift * bump_at.get(i, 0.0))
             for i in places]
    plus = CoefficientSource.from_sparse(
        places, [f + step for f, step in steps], dimension)
    minus = CoefficientSource.from_sparse(
        places, [f - step for f, step in steps], dimension)
    return FoolingPair(base=base, bump=bump, plus=plus, minus=minus,
                       amplitude=c, shift=shift, ratio=ratio, blocks=blocks)


def solution_separation(problem: Problem, pair: FoolingPair) -> float:
    """Distance between the two perturbed solutions, 2 * shift * ||S(bump)||.

    Always at least 2 * shift: each block piece of the bump contributes at
    least its own norm to ||S(bump)|| after the singular values are applied,
    and the largest piece has norm one.  lam is read only at the bump's
    nonzeros, a one-index range each, and the products are Python floats,
    so one past the float range is inf without a warning.
    """
    places, entries = pair.bump.nonzeros
    image = [problem.spectrum.values(range(i, i + 1)).item() * v
             for i, v in zip(places.tolist(), entries.tolist())]
    return 2.0 * pair.shift * exact_norm(np.array(image))
