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
from itertools import chain, pairwise, repeat, tee
from typing import Iterator, Optional, Sequence

import numpy as np

from .analysis import boundary_drops, lower_sums, running_ratios
from .spectrum import CoefficientSource, Problem, exact_norm


@dataclass(frozen=True, eq=False)
class FoolingPair:
    """Base input, bump, and the two perturbed inputs.

    ``amplitude`` is the common scale of the base profile, ``shift`` the
    step applied along the bump, ``ratio`` the boundary ratio bound used,
    and ``blocks`` the number of profile blocks.  The bump vector is stored
    densely over coefficient indices 1..n_blocks.
    """

    base: CoefficientSource
    bump: np.ndarray
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


def _base_vector(problem: Problem, lams: Sequence, c: float) -> np.ndarray:
    """Coefficients 1..n_blocks of the base input of amplitude c."""
    b = problem.cone.b
    blocks = len(lams) - 1
    coeffs = np.zeros(problem.partition.boundary(blocks))
    for k in range(1, blocks + 1):
        coeffs[problem.partition.boundary(k) - 1] = c * b ** (k - blocks) / lams[k]
    return coeffs


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
    for r, lams, c in _profiles(problem, rho, first, ratio):
        yield r, CoefficientSource.from_vector(_base_vector(problem, lams, c))


def fooling_pair(problem: Problem, ratio: float, rho: float, blocks: int,
                 zeroed_functionals: Sequence[int]) -> FoolingPair:
    """Base input f and perturbations f +- shift * u agreeing on sampled indices.

    The bump u is supported on indices 1..n_blocks, vanishes at every index
    in ``zeroed_functionals``, and is orthogonal to f, so f, f+ and f- are
    indistinguishable through the zeroed coordinates.  Since f is nonzero
    only at the boundaries n_1..n_blocks, u is the unit vector at the lowest
    free index where f vanishes; when every free index is a boundary, u is
    f_q e_p - f_p e_q at the two lowest free indices p < q.  Writing u as a
    sum of per-block pieces u_k weighted by b**(k-blocks) / lam_{n_k}, the
    bump is rescaled so max_k ||u_k|| = 1; the step is
    shift = (a-1) c / ((a+1) ratio).  Both perturbations then stay
    admissible with norm at most rho.

    Feasibility requires strictly fewer constraints than dimensions:
    |zeroed inside 1..n_blocks| + 1 < n_blocks.
    """
    _, lams, c = next(_profiles(problem, rho, blocks, ratio))
    a, b = problem.cone.a, problem.cone.b
    dimension = problem.partition.boundary(blocks)
    zeroed = np.fromiter(zeroed_functionals, dtype=np.int64)
    unsampled = np.ones(dimension, dtype=bool)
    unsampled[zeroed[(zeroed >= 1) & (zeroed <= dimension)] - 1] = False
    free = np.flatnonzero(unsampled)  # 0-based, at least two once feasible
    constraints = dimension - free.size
    if constraints + 1 >= dimension:
        raise ValueError(
            f"infeasible: {constraints} zeroed functionals + 1 orthogonality "
            f"constraint must stay below the {dimension} available dimensions")

    base_vec = _base_vector(problem, lams, c)
    base = CoefficientSource.from_vector(base_vec)

    blank = free[base_vec[free] == 0.0]
    bump = np.zeros(dimension)
    if blank.size:
        bump[blank[0]] = 1.0
    else:
        p, q = free[:2]
        bump[p], bump[q] = base_vec[q], -base_vec[p]

    # u restricted to block k is weight_k * u_k, so u_k = u[block] / weight_k;
    # piece 0 is the head 1..n_0
    ends = [0] + [problem.partition.boundary(k) for k in range(blocks + 1)]
    weights = [b ** (k - blocks) / lam for k, lam in enumerate(lams)]
    bump /= max(exact_norm(bump[lo:hi]) / weight
                for (lo, hi), weight in zip(pairwise(ends), weights))

    shift = (a - 1.0) * c / ((a + 1.0) * ratio)
    plus = CoefficientSource.from_vector(base_vec + shift * bump)
    minus = CoefficientSource.from_vector(base_vec - shift * bump)
    return FoolingPair(base=base, bump=bump, plus=plus, minus=minus,
                       amplitude=c, shift=shift, ratio=ratio, blocks=blocks)


def solution_separation(problem: Problem, pair: FoolingPair) -> float:
    """Distance between the two perturbed solutions, 2 * shift * ||S(bump)||.

    Always at least 2 * shift: each block piece of the bump contributes at
    least its own norm to ||S(bump)|| after the singular values are applied,
    and the largest piece has norm one.
    """
    image = problem.spectrum.values(range(1, pair.bump.size + 1)) * pair.bump
    return 2.0 * pair.shift * exact_norm(image)
