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
``analysis.lower_sums``, which also serves ``complexity_lower_block``'s
scan of a tolerance list: the same drops check the ratio and the same
S_blocks sizes the amplitude.  A
depth whose S_blocks is past the float range fails with ValueError.
``fooling_inputs`` grows a probe depth by depth from that one read, with
the running boundary ratio where none is given, and
``fooling_certificates`` runs that probe search over a tolerance list and
checks one pair per tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_left
from itertools import chain, repeat, tee
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

import numpy as np

from .algorithm import DEFAULT_BLOCK_LIMIT, adaptive_algorithm
from .analysis import boundary_drops, lower_sums, running_ratios
from .spectrum import (CoefficientSource, GuardExceeded, Problem,
                       cone_membership, exact_norm, products)


@dataclass(frozen=True, eq=False)
class FoolingPair:
    """Base input, bump, and the two perturbed inputs.

    ``amplitude`` is the common scale c of the base profile,

        c**2 = rho**2 / ( (1 + (a-1)**2 / ((a+1)**2 ratio**2))
                          * sum_{k=0}^{blocks} b**(2(k-blocks)) / lam_{n_k}**2 ),

    sized so the base input plus a unit-blockwise bump still fits in the
    ball of radius rho; ``shift`` is the step applied along the bump,
    ``ratio`` the boundary ratio bound used, and ``blocks`` the number of
    profile blocks.  All four inputs are
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
    lam_{n_0}..lam_{n_d} and the amplitude c of ``FoolingPair``, from one
    read of each boundary value.  r is ``ratio``, or
    ``boundary_ratio(problem, d).value`` where ``ratio`` is None.  Raises
    ValueError at the first depth whose ratio is below 1 or below a
    boundary drop, or whose S_d is past or below the float range."""
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
        try:
            inflation = 1.0 + (a - 1.0) ** 2 / ((a + 1.0) ** 2 * r * r)
        except OverflowError:  # a past 2**511, where a + 1 and a - 1 are a
            inflation = 1.0 + 1.0 / (r * r)
        scale = inflation * total  # zero where every 1 / lam**2 underflows
        if not 0.0 < scale < math.inf:
            side = "past" if scale else "below"
            raise ValueError(f"the profile sum S_{depth} is {side} the "
                             f"float range at depth {depth}")
        yield r, tuple(lams), rho / math.sqrt(scale)


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
    for k = 1..blocks, with c the ``FoolingPair.amplitude``, and zero
    elsewhere, so block k has norm c * b**(k-blocks) and the decay
    constraint holds with equality at r = 1 steps.
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
    |zeroed inside 1..n_blocks| + 1 < n_blocks.  A bump whose rescaling
    factor is zero or past the float range raises ValueError.
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
    # has norm 0, below that of one with an entry, so it is left out.  The
    # entries are first scaled by the power of two that brings the largest
    # to [0.5, 1), exactly, so no square underflows; u / scale keeps its
    # bits wherever nothing underflowed, since scale takes the same factor
    power = -math.frexp(max(map(abs, bump_at.values())))[1]
    bump_at = {i: math.ldexp(v, power) for i, v in bump_at.items()}
    pieces = {}
    for i, v in bump_at.items():
        pieces.setdefault(bisect_left(ends, i), []).append(v)
    scale = max(exact_norm(np.array(piece)) / (b ** (k - blocks) / lams[k])
                for k, piece in pieces.items())
    if not 0.0 < scale < math.inf:
        raise ValueError(f"no bump of unit piece norm at depth {blocks}: "
                         f"its piece norms over their weights peak at "
                         f"{scale!r}")
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
    and the largest piece has norm one.  The ``products`` of the bump read
    lam only at its nonzeros, through the last of them.
    """
    last = max(pair.bump.nonzeros[0].tolist(), default=0)
    return 2.0 * pair.shift * exact_norm(
        products(problem.spectrum, pair.bump, 1, last))


@dataclass(frozen=True)
class FoolingCertificate:
    """One tolerance's checked fooling pair, named after the
    ``adversarial.json`` keys.  The run at ``epsilon`` on the base probe
    sampled 1..``zeroed_count``, the pair's zeroed functionals.  ``ok``:
    the runs on f+ and f- read the same values (``indistinguishable``),
    base, f+ and f- are cone members of norm at most rho (1 + 1e-10), the
    separation is between 2 shift and 2 epsilon (the error guarantee puts
    the runs' one result within epsilon of both true solutions) and the
    ``identity_gap`` |a (c - shift r) - (c + shift r)| at most 1e-12
    max(1, c).  A failed probe search leaves its message in ``failure``
    and the rest None."""

    epsilon: float
    ok: bool
    pair: Optional[FoolingPair] = None
    zeroed_count: Optional[int] = None
    membership: Optional[MappingProxyType] = None
    norms: Optional[MappingProxyType] = None
    separation: Optional[float] = None
    identity_gap: Optional[float] = None
    indistinguishable: Optional[bool] = None
    failure: Optional[str] = None


class _NoRoom(ValueError):
    """A probe depth that may not grow: the next tolerance runs it again."""


def fooling_certificates(problem: Problem, epsilons, rho: float, *,
                         blocks: Optional[int] = None,
                         ratio: Optional[float] = None,
                         block_limit: int = DEFAULT_BLOCK_LIMIT,
                         index_limit: Optional[int] = None) -> list:
    """A ``FoolingCertificate`` per distinct tolerance, largest first.

    The probe is ``fooling_input`` of ``blocks`` blocks at ``ratio`` (or at
    ``boundary_ratio`` of its depth), grown a block at a time from depth 4
    where ``blocks`` is None, up to ``index_limit`` indices, until the run
    at epsilon on it samples 1..cost with cost + 1 < n_depth: the bump then
    hides where the run never looked.  Each depth's probe is built once,
    from one read of the boundaries (``fooling_inputs``).  The tolerances
    run in decreasing order, and on a fixed input a smaller tolerance never
    stops at an earlier block, so each search resumes at the depth where
    the last one ended.  For the same reason a probe that cannot be built
    (a ratio check, a profile sum past the float range) or a run past
    ``block_limit`` fails every later tolerance with the same message.  A
    depth without room to grow (a fixed ``blocks``, the index budget, the
    last block of an explicit partition) is run again for the next
    tolerance, which may fail there at ``block_limit`` instead.  Each
    certificate is that of a search for its tolerance alone started at
    that depth, bit for bit; one started at depth 4 can instead fail at
    ``block_limit`` on a probe that a larger tolerance has already
    outgrown.  A pair that cannot be built or checked (``fooling_pair`` or
    a run on f+ or f- raising ValueError or GuardExceeded) fails its own
    tolerance alone, with that message.  On an explicit partition the
    start depth must not pass its last block (``cli`` refuses such an
    ``adversarial.blocks`` as a config error).
    """
    epsilons = sorted(set(epsilons), reverse=True)
    depth = 4 if blocks is None else blocks
    ladder = fooling_inputs(problem, rho, depth, ratio)
    certificates = []
    for k, eps in enumerate(epsilons):
        try:
            if not k:  # no probe is built for an empty list
                r, probe = next(ladder)
            run = adaptive_algorithm(problem, probe, eps,
                                     block_limit=block_limit)
            while run.cost + 1 >= problem.partition.boundary(depth):
                if blocks is not None:
                    raise _NoRoom("configured block count leaves no free "
                                  "coordinate for the bump; increase "
                                  "adversarial.blocks")
                if problem.partition.last_block(depth + 1) == depth:
                    raise _NoRoom(f"the probe depth = {depth + 1} is past "
                                  "the last block of the explicit "
                                  f"partition, block {depth}")
                size = problem.partition.boundary(depth + 1)
                if index_limit is not None and size > index_limit:
                    raise _NoRoom(f"the probe depth = {depth + 1} spans "
                                  f"{size} indices, over the index budget "
                                  f"guards.n_max = {index_limit}")
                depth += 1
                r, probe = next(ladder)
                run = adaptive_algorithm(problem, probe, eps,
                                         block_limit=block_limit)
        except _NoRoom as exc:
            certificates.append(FoolingCertificate(eps, False,
                                                   failure=str(exc)))
            continue
        except (ValueError, GuardExceeded) as exc:
            return certificates + [FoolingCertificate(e, False,
                                                      failure=str(exc))
                                   for e in epsilons[k:]]
        try:
            certificates.append(_checked_pair(problem, eps, r, rho, depth,
                                              int(run.cost), block_limit))
        except (ValueError, GuardExceeded) as exc:
            certificates.append(FoolingCertificate(eps, False,
                                                   failure=str(exc)))
    return certificates


def _checked_pair(problem: Problem, eps: float, r: float, rho: float,
                  depth: int, cost: int,
                  block_limit: int) -> FoolingCertificate:
    """The ``FoolingCertificate`` of the pair at ``depth`` whose bump hides
    past 1..``cost``; raises what building or checking it raises."""
    pair = fooling_pair(problem, r, rho, depth, range(1, cost + 1))
    plus, minus = (adaptive_algorithm(problem, f, eps,
                                      block_limit=block_limit)
                   for f in (pair.plus, pair.minus))
    # a run holds its products at its places, every other sample zero:
    # equal costs, places and products, equal samples
    same = (plus.cost == minus.cost
            and np.array_equal(plus.places, minus.places)
            and np.array_equal(plus.values, minus.values))
    separation = solution_separation(problem, pair)
    sources = {"base": pair.base, "plus": pair.plus, "minus": pair.minus}
    membership = MappingProxyType({name: cone_membership(problem, f)
                                   for name, f in sources.items()})
    norms = MappingProxyType({name: f.norm() for name, f in sources.items()})
    c, eta = pair.amplitude, pair.shift
    gap = abs(problem.cone.a * (c - eta * r) - (c + eta * r))
    ok = (same and all(m.member for m in membership.values())
          and all(v <= rho * (1.0 + 1e-10) for v in norms.values())
          and 2.0 * eta <= separation <= 2.0 * eps
          and gap <= 1e-12 * max(1.0, c))
    return FoolingCertificate(eps, ok, pair, cost, membership, norms,
                              separation, gap, same)
