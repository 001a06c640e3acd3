"""Cost bounds and optimality comparisons for the solvers.

The adaptive solver's cost is n_{j*} where j* is its stopping block.  This
module bounds j* from above for all admissible inputs in a norm ball
(``stop_block_bound`` and its cheaper relaxations), bounds the cost of any
successful algorithm from below via the block index certified by the
adversarial construction (``complexity_lower_block``), and packages the
"essentially no worse" comparison between cost curves that links the two.
The three block scans and the first-term bound each have a tolerance-list
form (``stop_block_bounds``, ``stop_block_bounds_rough``,
``complexity_lower_blocks``, ``stop_block_bound_first_terms``) that serves
a whole list from one pass with the bits of one call per tolerance, and
``running_ratios`` gives ``boundary_ratio``'s value at every depth from
one pass.  ``bounds_table`` puts them together: one record per tolerance
with every bound, the guard that replaced a missing one, and the chain
n_{j_dagger}(eps, rho) <= n_{j_star_lower}(omega * eps, rho).

The bounds and the fooling construction in ``adversarial`` read lam at
the partition boundaries through one lazy ladder, ``boundary_values``, and
share its drops lam_{n_{k-1}} / lam_{n_k} (``boundary_drops``) and sums S_j
(``lower_sums``) bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count, islice, pairwise, repeat, takewhile
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .algorithm import DEFAULT_BLOCK_LIMIT, ball_budget, stop_threshold
from .spectrum import (ConeParams, GuardExceeded, Partition, Problem,
                       SingularSpectrum)


def boundary_values(spectrum: SingularSpectrum, partition: Partition,
                    offset: int = 0, first: int = 0) -> Iterator[float]:
    """lam_{n_k + offset} for k = first, first + 1, ..., read on demand: the
    one place the bounds and the fooling construction read the spectrum.
    Offset 1 gives the block edges lam_{n_{j-1}+1}.  Nothing is kept."""
    for k in count(first):
        yield spectrum.value(partition.boundary(k) + offset)


def boundary_drops(lams: Iterable[float]) -> Iterator[float]:
    """lam_{n_{k-1}} / lam_{n_k} over consecutive boundary values ``lams``;
    inf past the float range, as where lam_{n_k} underflowed to zero."""
    return (high / low if low else math.inf for high, low in pairwise(lams))


def _reciprocal(x: float) -> float:
    """1 / x, or inf where x underflowed to zero."""
    return 1.0 / x if x else math.inf


def lower_sums(problem: Problem) -> Iterator[tuple]:
    """(lam_{n_j}, S_j) for j = 0, 1, 2, ..., read on demand, where
    S_j = sum_{k=0}^{j} b**(2(k-j)) / lam_{n_k}**2
        = S_{j-1} / b**2 + 1 / lam_{n_j}**2.

    A square that underflows to zero counts as an infinite reciprocal and a
    sum past the float range is inf.  Raises ValueError before any read
    when n_0 < 1."""
    if problem.partition.boundary(0) < 1:
        raise ValueError("the lower bound construction needs n_0 >= 1")
    b2 = problem.cone.b * problem.cone.b

    def sums():
        total = 0.0
        for lam in boundary_values(problem.spectrum, problem.partition):
            total = total / b2 + _reciprocal(lam * lam)
            yield lam, total

    return sums()


@dataclass(frozen=True)
class RatioScan:
    """Result of scanning lam_{n_{k-1}} / lam_{n_k} over block boundaries.

    ``still_growing`` flags a running maximum that was still increasing at
    the last scanned boundary, meaning the supremum may not be attained and
    the returned value understates it.
    """

    value: float
    still_growing: bool


def boundary_ratio(problem: Problem, k_max: int) -> RatioScan:
    """Largest singular value drop across one block, scanned to k_max.

    Evaluates lam_{n_{k-1}} / lam_{n_k} for k = 1..k_max, skipping any k
    with n_{k-1} = 0 (there is no zeroth singular value).  The flag reports
    whether the final term was a strict maximum over all earlier ones.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    first = 0 if problem.partition.boundary(0) >= 1 else 1
    lams = boundary_values(problem.spectrum, problem.partition, first=first)
    # a drop past the float range ends the scan: the supremum certainly
    # keeps growing past anything representable
    terms = list(takewhile(lambda term: term != math.inf,
                           boundary_drops(islice(lams, k_max + 1 - first))))
    past_range = len(terms) < k_max - first
    if not (terms or past_range):
        raise ValueError("no block with positive lower boundary up to k_max")
    best = max(terms, default=math.inf)
    growing = past_range or (len(terms) >= 2 and terms[-1] > max(terms[:-1]))
    return RatioScan(value=best, still_growing=growing)


def running_ratios(lams: Iterable[float]) -> Iterator[float]:
    """``boundary_ratio(problem, k).value`` for k = 1, 2, ..., bit for bit,
    over the boundary values ``lams`` = lam_{n_0}, lam_{n_1}, ... of a
    problem with n_0 >= 1: the running maximum of the drops, from one pass.
    From the first infinite drop on, every value is the maximum of the
    drops before it, or inf where there is none."""
    best = None
    for drop in boundary_drops(lams):
        if drop == math.inf:
            break
        if best is None or drop > best:  # how max() keeps a maximum
            best = drop
        yield best
    yield from repeat(math.inf if best is None else best)


def _bracket(cone: ConeParams, ratio: float) -> float:
    """(a+1)**2 ratio**2 / (a-1)**2 + 1, for a boundary ratio bound >= 1."""
    if ratio < 1.0:
        raise ValueError("ratio must be at least 1")
    try:
        return (cone.a + 1.0) ** 2 * ratio * ratio / (cone.a - 1.0) ** 2 + 1.0
    except OverflowError:  # a past 2**511, where a + 1 and a - 1 are a
        return ratio * ratio + 1.0


def tolerance_shrink_factor(cone: ConeParams, ratio: float) -> float:
    """Shrink factor for the essentially-no-worse comparison.

    Given the cone parameters and a boundary ratio bound R >= 1, returns

        sqrt( (1 - b**2) / (a**4 * (1 + b**2 R**2 + b**4 R**4))
              / ((a+1)**2 R**2 / (a-1)**2 + 1) )

    which lies in [0, 1), and is 0.0 where a**4 or (b R)**4 overflows.
    """
    bracket = _bracket(cone, ratio)
    a, b = cone.a, cone.b
    try:
        spread = a ** 4 * (1.0 + (b * ratio) ** 2 + (b * ratio) ** 4)
    except OverflowError:
        return 0.0
    return math.sqrt((1.0 - b * b) / spread / bracket)


_UNSETTLED = {
    "stop_block_bound": "no stopping block bound within {} blocks",
    "stop_block_bound_rough": "no rough stopping bound within {} blocks",
    "complexity_lower_block":
        "lower-bound block still growing at block limit {}",
    "stop_block_bound_first_term": "first-term bound past the float range",
}


def unsettled_error(bound: str,
                    block_limit: int = DEFAULT_BLOCK_LIMIT) -> GuardExceeded:
    """What the scalar bound named ``bound`` raises for a tolerance that
    its list form leaves None; the first-term message names no limit."""
    return GuardExceeded(_UNSETTLED[bound].format(block_limit))


def _squared_ratio(rho: float, epsilon: float) -> float:
    """(rho / epsilon) ** 2, or inf where it lies past the float range."""
    try:
        return (rho / epsilon) ** 2
    except OverflowError:
        return math.inf


def _positive(epsilons, rho: float) -> list:
    epsilons = list(epsilons)
    if not (rho > 0 and all(eps > 0 for eps in epsilons)):
        raise ValueError("epsilon and rho must be positive")
    return epsilons


def _settle(targets: list, blocks, hit, *, descending: bool) -> list:
    """The block at which each target settles, from one pass over ``blocks``.

    ``blocks`` yields (label, v) block by block, v free of the tolerance;
    target t settles with the label of the first block whose v has
    ``hit(t, v)``, and a target left None never settles.  ``hit`` is
    monotone in t, so with the targets sorted ``descending`` or ascending
    the pending ones a v settles are always those at the end of the list:
    they are popped as the walk passes them.  Every target thus settles
    where its own scan would, even where rounding makes v non-monotone,
    and no block is read once none is pending.  Unsettled targets get None.
    """
    settled = [None] * len(targets)
    pending = sorted((i for i, t in enumerate(targets) if t is not None),
                     key=targets.__getitem__, reverse=descending)
    blocks = iter(blocks)
    while pending:
        step = next(blocks, None)
        if step is None:
            break
        label, v = step
        while pending and hit(targets[pending[-1]], v):
            settled[pending.pop()] = label
    return settled


def _block_edges(problem: Problem, block_limit: int):
    """(j, lam_{n_{j-1}+1}) for j = 1..block_limit, evaluated on demand."""
    edges = boundary_values(problem.spectrum, problem.partition, 1)
    return enumerate(islice(edges, block_limit), start=1)


def _stop_brackets(problem: Problem, block_limit: int):
    """(j, lead * bracket_j) for j = 1..block_limit, as in stop_block_bound."""
    a, b = problem.cone.a, problem.cone.b
    lead = (1.0 - b * b) / (a * a * b * b)
    partial = 0.0  # sum over k = 1..j-1 of b**(2(k-j)) / (a**2 lam_{n_{k-1}+1}**2)
    for j, edge in _block_edges(problem, block_limit):
        yield j, lead * (partial + _reciprocal(edge * edge))
        partial = (partial + _reciprocal(a * a * edge * edge)) / (b * b)


def stop_block_bounds(problem: Problem, epsilons, rho: float, *,
                      block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """``stop_block_bound`` of each tolerance, from one scan of the blocks.

    Returns one block per tolerance in input order, None where no block
    within ``block_limit`` qualifies.  The brackets do not depend on
    epsilon, so each is formed once, and the scan stops at the block of
    the tolerance that needs the most; each target (rho / epsilon)**2 is
    compared with the same rounded bracket as in a scan of its own.  A
    target past the float range gets None without a scan: no rounded
    bracket can certify it.
    """
    epsilons = _positive(epsilons, rho)
    targets = [_squared_ratio(rho, eps) for eps in epsilons]
    return _settle([t if t < math.inf else None for t in targets],
                   _stop_brackets(problem, block_limit),
                   lambda t, v: t <= v, descending=True)


def stop_block_bound(problem: Problem, epsilon: float, rho: float, *,
                     block_limit: int = DEFAULT_BLOCK_LIMIT) -> int:
    """Tight upper bound on the adaptive stopping block over the ball.

    Returns the smallest j with

        rho**2 / epsilon**2 <= (1-b**2)/(a**2 b**2) *
            [ sum_{k=1}^{j-1} b**(2(k-j)) / (a**2 lam_{n_{k-1}+1}**2)
              + 1 / lam_{n_{j-1}+1}**2 ].

    The bracket increases in j, so the first hit is the minimum.  Every
    admissible input of norm at most rho stops at or before this block.
    A square that underflows to zero counts as an infinite reciprocal.
    Raises GuardExceeded when no block within ``block_limit`` qualifies,
    and when rho**2 / epsilon**2 is past the float range.
    """
    (j,) = stop_block_bounds(problem, [epsilon], rho, block_limit=block_limit)
    if j is None:
        raise unsettled_error("stop_block_bound", block_limit)
    return j


def stop_block_bounds_rough(problem: Problem, epsilons, rho: float, *,
                            block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """``stop_block_bound_rough`` of each tolerance, from one scan of the
    block edges; None where no block within ``block_limit`` qualifies."""
    epsilons = _positive(epsilons, rho)
    return _settle([stop_threshold(problem.cone, eps) / rho
                    for eps in epsilons],
                   _block_edges(problem, block_limit),
                   lambda level, edge: edge <= level, descending=False)


def stop_block_bound_rough(problem: Problem, epsilon: float, rho: float, *,
                           block_limit: int = DEFAULT_BLOCK_LIMIT) -> int:
    """Simpler bound: first j with lam_{n_{j-1}+1} <= eps*sqrt(1-b**2)/(a*b*rho)."""
    (j,) = stop_block_bounds_rough(problem, [epsilon], rho,
                                   block_limit=block_limit)
    if j is None:
        raise unsettled_error("stop_block_bound_rough", block_limit)
    return j


def stop_block_bound_first_terms(problem: Problem, epsilons,
                                 rho: float) -> list:
    """``stop_block_bound_first_term`` of each tolerance, from one read of
    lam_{n_0+1}; None where the argument of the log is past the float
    range."""
    epsilons = _positive(epsilons, rho)
    if not epsilons:
        return []
    a, b = problem.cone.a, problem.cone.b
    lead = next(boundary_values(problem.spectrum, problem.partition, 1))
    blocks = []
    for eps in epsilons:
        argument = rho * a * a * lead / (eps * math.sqrt(1.0 - b * b))
        if argument <= 1.0:
            blocks.append(1)
        elif argument == math.inf:
            blocks.append(None)
        else:
            blocks.append(
                max(1, math.ceil(math.log(argument) / math.log(1.0 / b))))
    return blocks


def stop_block_bound_first_term(problem: Problem, epsilon: float, rho: float) -> int:
    """Closed-form bound keeping only the first bracket term.

    ceil( log( rho * a**2 * lam_{n_0+1} / (epsilon * sqrt(1-b**2)) )
          / log(1/b) ), clamped to at least 1.  Raises GuardExceeded when
    the argument of the log is past the float range.
    """
    (j,) = stop_block_bound_first_terms(problem, [epsilon], rho)
    if j is None:
        raise unsettled_error("stop_block_bound_first_term")
    return j


def stop_block_bound_geometric(alpha: float, beta: float, cone: ConeParams,
                               epsilon: float, rho: float) -> int:
    """Closed-form bound when block edges decay as lam_{n_{j-1}+1} <= alpha * beta**j.

    ceil( log( rho * alpha * a * b / (epsilon * sqrt(1-b**2)) )
          / log(1/beta) ), clamped to at least 1.
    """
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be positive")
    if not (0.0 < beta < 1.0) or alpha <= 0.0:
        raise ValueError("need alpha > 0 and beta in (0, 1)")
    a, b = cone.a, cone.b
    argument = rho * alpha * a * b / (epsilon * math.sqrt(1.0 - b * b))
    if argument <= 1.0:
        return 1
    return max(1, math.ceil(math.log(argument) / math.log(1.0 / beta)))


def complexity_lower_blocks(problem: Problem, ratio: float, epsilons,
                            rho: float, *,
                            block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """``complexity_lower_block`` of each tolerance, from one scan of the
    blocks; None where the condition still holds at ``block_limit``.

    The sums do not depend on epsilon, so each is formed once, and the
    scan stops at the first failure of the tolerance that needs the most
    blocks; a target (rho / epsilon)**2 past the float range counts as inf.
    """
    epsilons = _positive(epsilons, rho)
    bracket = _bracket(problem.cone, ratio)
    sums = lower_sums(problem)
    # S_j for j = 1..block_limit, labelled j - 1: the deepest block that
    # still passes is the one before the first failure
    blocks = ((j, bracket * total)
              for j, (_, total) in enumerate(islice(sums, 1, block_limit + 1)))
    return _settle([_squared_ratio(rho, eps) for eps in epsilons], blocks,
                   lambda t, v: not v < t, descending=True)


def complexity_lower_block(problem: Problem, ratio: float, epsilon: float,
                           rho: float, *,
                           block_limit: int = DEFAULT_BLOCK_LIMIT) -> int:
    """Deepest block whose boundary every successful algorithm must reach.

    Returns the largest j with

        ((a+1)**2 ratio**2 / (a-1)**2 + 1) *
            sum_{k=0}^{j} b**(2(k-j)) / lam_{n_k}**2  <  rho**2 / epsilon**2,

    or 0 when even j = 1 fails.  The adversarial construction produces, for
    such j, admissible inputs of norm at most rho that no algorithm sampling
    fewer than n_j coefficients can separate to accuracy epsilon.  Requires
    n_0 >= 1.  The left side increases in j, so the scan stops at the first
    failure; reaching ``block_limit`` with the condition still holding
    raises GuardExceeded since the true maximum lies beyond the scan.
    """
    (j,) = complexity_lower_blocks(problem, ratio, [epsilon], rho,
                                   block_limit=block_limit)
    if j is None:
        raise unsettled_error("complexity_lower_block", block_limit)
    return j


class BoundsRow(NamedTuple):
    """One tolerance's bounds; the first eight fields are the ``bounds.csv``
    columns, and a tuple, since a list of a hundred tolerances builds a
    hundred rows in one ``bounds`` command.  The j fields are ``stop_block_bound``, its rough and
    first-term forms, and ``complexity_lower_block`` at omega * epsilon.
    ``guard`` is the GuardExceeded text of the first that did not settle,
    and those after it are not computed.  ``note`` says why the table has
    no lower bound.  ``chain_holds`` is n_dagger <= n_lower.

    The chain can read violated where omega * epsilon is large against
    rho.  Geometric base 1e10, arithmetic 1 + 3j, a = 1e6, b = 1e-6,
    rho = 1e-200 and epsilon = 1e-100 give j_star_lower = 0 (the zero input
    meets omega * epsilon) and j_dagger = 1, so n_dagger = 4 > n_lower = 1.
    Whether the comparison of arXiv:1809.10567 assumes omega * epsilon <
    rho is for the paper to settle; the row reports the chain as computed.
    """

    epsilon: float
    rho: float
    j_dagger: Optional[int]
    j_dagger_rough: Optional[int]
    j_dagger_first: Optional[int]
    j_star_lower: Optional[int]
    omega: Optional[float]
    R: Optional[float]
    guard: Optional[str]
    note: Optional[str]
    n_dagger: Optional[int]
    n_lower: Optional[int]
    chain_holds: Optional[bool]


def bounds_table(problem: Problem, epsilons, rho: float, *,
                 block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """A ``BoundsRow`` per distinct tolerance, largest first, with R from
    ``boundary_ratio(problem, block_limit)`` and omega its
    ``tolerance_shrink_factor``; from n_0 = 0 a limit of one block scans
    no drop, so R and omega are None.  One scan per bound serves the list, and
    each bound is computed only for the tolerances every earlier one
    settled, so no scan reads a block a loop over the tolerances would not.
    An omega * epsilon that underflows to 0 settles at no block."""
    epsilons = sorted(set(epsilons), reverse=True)
    from_zero = problem.partition.boundary(0) < 1
    # from n_0 = 0 the first drop is lam_{n_1} / lam_{n_2}, past one block
    scan = (None if from_zero and block_limit < 2
            else boundary_ratio(problem, block_limit))
    omega = note = None
    if scan is not None and scan.still_growing:
        note = ("boundary ratio still growing at the scan limit; omega and "
                "lower bounds omitted")
    else:
        if scan is not None:
            omega = tolerance_shrink_factor(problem.cone, scan.value)
        if from_zero:
            note = ("partition starts at n_0 = 0, where the lower-bound "
                    "construction is undefined; column left empty")
    columns, guards = {eps: [] for eps in epsilons}, {}

    def settle(bound, live, blocks):
        """Each tolerance's block; returns the ones ``bound`` settled."""
        for eps, j in zip(live, blocks):
            columns[eps].append(j)
            if j is None:
                guards[eps] = str(unsettled_error(bound, block_limit))
        return [eps for eps in live if eps not in guards]

    live = settle("stop_block_bound", epsilons, stop_block_bounds(
        problem, epsilons, rho, block_limit=block_limit))
    live = settle("stop_block_bound_rough", live, stop_block_bounds_rough(
        problem, live, rho, block_limit=block_limit))
    live = settle("stop_block_bound_first_term", live,
                  stop_block_bound_first_terms(problem, live, rho))
    if note is None:
        targets = {eps: omega * eps for eps in live if omega * eps > 0.0}
        found = dict(zip(targets, complexity_lower_blocks(
            problem, scan.value, list(targets.values()), rho,
            block_limit=block_limit)))
        settle("complexity_lower_block", live, map(found.get, live))
    rows = []
    for eps in epsilons:
        j_dagger, j_rough, j_first, j_lower = (columns[eps] + [None] * 3)[:4]
        n_dagger = (None if j_dagger is None
                    else problem.partition.boundary(j_dagger))
        n_lower = (None if j_lower is None
                   else problem.partition.boundary(j_lower))
        rows.append(BoundsRow(
            eps, rho, j_dagger, j_rough, j_first, j_lower, omega,
            None if scan is None else scan.value,
            guards.get(eps), note, n_dagger, n_lower,
            None if n_lower is None else n_dagger <= n_lower))
    return rows


@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    violations: tuple
    tolerance_factor: float
    grid: tuple


def essentially_no_worse(candidate: Callable, reference: Callable,
                         tolerance_factor: float,
                         grid: Sequence) -> ComparisonReport:
    """Certify candidate(eps, rho) <= reference(factor*eps, rho) on a grid.

    Each cost curve maps (epsilon, rho) to a cost, and the grid is a
    sequence of (epsilon, rho) pairs.  Violating points are returned as
    (epsilon, rho, candidate_cost, reference_cost) tuples; the certificate
    holds when there are none.  A factor of exactly 1 turns the check into
    plain cost domination.
    """
    if not (0.0 < tolerance_factor <= 1.0):
        raise ValueError("tolerance factor lies in (0, 1]")
    violations = []
    points = tuple((float(e), float(r)) for e, r in grid)
    for eps, rho in points:
        cand = candidate(eps, rho)
        ref = reference(tolerance_factor * eps, rho)
        if cand > ref:
            violations.append((eps, rho, cand, ref))
    return ComparisonReport(holds=not violations, violations=tuple(violations),
                            tolerance_factor=tolerance_factor, grid=points)


@dataclass(frozen=True)
class BracketReport:
    family: str
    scale: float
    base: float
    epsilon: float
    rho: float
    cost: int
    lower: Optional[float]
    upper: Optional[float]
    applicable: bool
    ok: bool


def cost_bracket_check(family: str, scale: float, base: float, epsilon: float,
                       rho: float) -> BracketReport:
    """Check the analytic cost brackets of the ball solver for one family.

    For lam_i = scale / i**base the scanned cost n* satisfies
        (scale*rho/eps)**(1/base) - 1 <= n* < (scale*rho/eps)**(1/base).
    For lam_i = scale / base**i and eps < scale*rho it satisfies
        log(scale*rho/eps)/log(base) - 1 <= n* < log(scale*rho/eps)/log(base);
    for eps >= scale*rho the scanned cost is simply 0.
    """
    if family == "algebraic":
        spectrum = SingularSpectrum.algebraic(scale, base)
    elif family == "geometric":
        spectrum = SingularSpectrum.geometric(scale, base)
    else:
        raise ValueError(f"unknown family {family!r}")
    cost = ball_budget(spectrum, epsilon, rho)
    reduced = scale * rho / epsilon
    if family == "algebraic":
        upper = reduced ** (1.0 / base)
        lower = upper - 1.0
        applicable = True
        ok = lower <= cost < upper
    else:
        if epsilon < scale * rho:
            upper = math.log(reduced) / math.log(base)
            lower = upper - 1.0
            applicable = True
            ok = lower <= cost < upper
        else:
            upper = None
            lower = None
            applicable = False
            ok = cost == 0
    return BracketReport(family=family, scale=scale, base=base, epsilon=epsilon,
                         rho=rho, cost=cost, lower=lower, upper=upper,
                         applicable=applicable, ok=ok)


def ball_cost_curve(spectrum: SingularSpectrum) -> Callable:
    """Cost curve of the ball solver: min{n >= 0 : lam_{n+1} * rho <= eps}."""
    return functools.partial(ball_budget, spectrum)


def blocked_ball_cost_curve(spectrum: SingularSpectrum, partition: Partition, *,
                            block_limit: int = DEFAULT_BLOCK_LIMIT) -> Callable:
    """Ball solver restricted to partition boundaries: cost n_j at the first
    j >= 0 with lam_{n_j + 1} * rho <= eps."""

    def cost(epsilon, rho):
        edges = boundary_values(spectrum, partition, 1)
        for j, edge in enumerate(islice(edges, block_limit + 1)):
            if edge * rho <= epsilon:
                return partition.boundary(j)
        raise GuardExceeded(f"no boundary within {block_limit} blocks")

    return cost


def adaptive_cost_bound_curve(problem: Problem, *,
                              block_limit: int = DEFAULT_BLOCK_LIMIT) -> Callable:
    """Upper cost curve of the adaptive solver over admissible inputs:
    the boundary of the stopping block bound."""

    def cost(epsilon, rho):
        j = stop_block_bound(problem, epsilon, rho, block_limit=block_limit)
        return problem.partition.boundary(j)

    return cost
