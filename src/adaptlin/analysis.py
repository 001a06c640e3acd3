"""Cost bounds for the solvers, and the optimality claim that links them.

The adaptive solver's cost is n_{j*} where j* is its stopping block.  This
module bounds j* from above for all admissible inputs in a norm ball
(``stop_block_bound`` and its cheaper relaxations), and bounds the cost of
any successful algorithm from below via the block index certified by the
adversarial construction (``complexity_lower_block``).  The claim that
adaptivity is essentially no worse than the optimal algorithm is the chain
j_dagger(eps, rho) <= j_star_lower(omega * eps, rho) + 1 between the two,
stated and proved once, in ``BoundsRow``.
Each of the four bounds takes a tolerance list and returns one block per
tolerance, None where it does not settle; one pass over the blocks serves
the whole list with the bits of a scan per tolerance.  ``running_ratios``
gives ``boundary_ratio``'s value at every depth from one pass.
``bounds_table`` puts them together: one record per tolerance with every
bound, the guard that replaced a missing one, and the chain.

The bounds and the fooling construction in ``adversarial`` read lam at
the partition boundaries through one lazy ladder, ``boundary_values``, and
share its drops lam_{n_{k-1}} / lam_{n_k} (``boundary_drops``) and sums S_j
(``lower_sums``) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, pairwise, repeat, takewhile
from typing import Iterable, Iterator, NamedTuple, Optional

from .algorithm import DEFAULT_BLOCK_LIMIT, ball_budget, stop_threshold
from .spectrum import ConeParams, Partition, Problem, SingularSpectrum


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


# why each j field of a BoundsRow, in order, was left None
_UNSETTLED = ("no stopping block bound within {} blocks",
              "no rough stopping bound within {} blocks",
              "first-term bound past the float range",
              "lower-bound block still growing at block limit {}")


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


def stop_block_bound(problem: Problem, epsilons, rho: float, *,
                     block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """Tight upper bound on the adaptive stopping block over the ball.

    Returns, for each tolerance epsilon in input order, the smallest j with

        rho**2 / epsilon**2 <= (1-b**2)/(a**2 b**2) *
            [ sum_{k=1}^{j-1} b**(2(k-j)) / (a**2 lam_{n_{k-1}+1}**2)
              + 1 / lam_{n_{j-1}+1}**2 ].

    The bracket increases in j, so the first hit is the minimum.  Every
    admissible input of norm at most rho stops at or before this block.
    A square that underflows to zero counts as an infinite reciprocal.
    The block is None where no block within ``block_limit`` qualifies, and
    where rho**2 / epsilon**2 is past the float range: no rounded bracket
    can certify it.  The brackets do not depend on epsilon, so one scan
    serves the list: each bracket is formed once, the scan stops at the
    block of the tolerance that needs the most, and each target is compared
    with the same rounded bracket as in a scan of its own.
    """
    epsilons = _positive(epsilons, rho)
    targets = [_squared_ratio(rho, eps) for eps in epsilons]
    return _settle([t if t < math.inf else None for t in targets],
                   _stop_brackets(problem, block_limit),
                   lambda t, v: t <= v, descending=True)


def stop_block_bound_rough(problem: Problem, epsilons, rho: float, *,
                           block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """Simpler bound: for each tolerance, the first j with
    lam_{n_{j-1}+1} <= eps*sqrt(1-b**2)/(a*b*rho), from one scan of the
    block edges; None where no block within ``block_limit`` qualifies."""
    epsilons = _positive(epsilons, rho)
    return _settle([stop_threshold(problem.cone, eps) / rho
                    for eps in epsilons],
                   _block_edges(problem, block_limit),
                   lambda level, edge: edge <= level, descending=False)


def stop_block_bound_first_term(problem: Problem, epsilons,
                                rho: float) -> list:
    """Closed-form bound keeping only the first bracket term.

    For each tolerance epsilon,
    ceil( log( rho * a**2 * lam_{n_0+1} / (epsilon * sqrt(1-b**2)) )
          / log(1/b) ), clamped to at least 1, from one read of
    lam_{n_0+1}; None where the argument of the log is past the float
    range.
    """
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


def complexity_lower_block(problem: Problem, ratio: float, epsilons,
                           rho: float, *,
                           block_limit: int = DEFAULT_BLOCK_LIMIT) -> list:
    """Deepest block whose boundary every successful algorithm must reach.

    Returns, for each tolerance epsilon in input order, the largest j with

        ((a+1)**2 ratio**2 / (a-1)**2 + 1) *
            sum_{k=0}^{j} b**(2(k-j)) / lam_{n_k}**2  <  rho**2 / epsilon**2,

    or 0 when even j = 1 fails.  The adversarial construction produces, for
    such j, admissible inputs of norm at most rho that no algorithm sampling
    fewer than n_j coefficients can separate to accuracy epsilon.  Requires
    n_0 >= 1.  The left side increases in j, so a scan stops at the first
    failure; the block is None where the condition still holds at
    ``block_limit``, since the true maximum lies beyond the scan.  The sums
    do not depend on epsilon, so one scan serves the list: each sum is
    formed once, and the scan stops at the first failure of the tolerance
    that needs the most blocks; a target (rho / epsilon)**2 past the float
    range counts as inf.
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


class BoundsRow(NamedTuple):
    """One tolerance's bounds; the first eight fields are the ``bounds.csv``
    columns, and a tuple, since a list of a hundred tolerances builds a
    hundred rows in one ``bounds`` command.  The j fields are
    ``stop_block_bound``, its rough and first-term forms, and
    ``complexity_lower_block`` at omega * epsilon, each the row's entry of
    one call over the table's tolerance list.  ``guard`` says why the
    first of them that is None did not settle, within the blocks the
    table's scans may read, and the j fields after it stay empty even
    where their own call settled.  ``note`` says why the table has no
    lower bound.  ``chain_holds`` is j_dagger <= j_star_lower + 1, the
    optimality claim: n_{j_dagger}(eps, rho) <= n_{j_star_lower(omega eps,
    rho) + 1}, which is within a factor 2 of n_lower on a doubling
    partition.  It holds wherever j_star_lower is settled, with S_j from
    ``lower_sums`` and B = (a+1)**2 R**2 / (a-1)**2 + 1, the ``_bracket``
    factor, so that omega**2 = (1-b**2) / (a**4 (1 + b**2 R**2 + b**4 R**4) B):

    1. Write e_k = lam_{n_{k-1}+1}, so that e_k <= lam_{n_{k-1}}.  Since
       a > 1, the bracket T_j of ``stop_block_bound`` satisfies
       T_j >= (1-b**2) S_{j-1} / (a**4 b**2).
    2. Since R >= lam_{n_{j-1}} / lam_{n_j}, the sums satisfy
       S_j <= (1 + b**2 R**2) S_{j-1} / b**2.
    3. Steps 1 and 2 give omega**2 B S_j <= T_j.
    4. At j = j_star_lower + 1 <= block_limit the lower scan fails:
       (rho / (omega eps))**2 <= B S_j.  So (rho / eps)**2 <= T_j, and
       therefore j_dagger <= j.

    The stricter n_dagger <= n_lower does not follow, and fails on rows
    where j_dagger is j_star_lower + 1: the harmonic spectrum on doubling
    2**(j+1) under the default cone, at rho = 1 and eps = 10**-4.5, gives
    n_dagger = 65536 against n_lower = 32768.
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
    ``boundary_ratio`` and omega its ``tolerance_shrink_factor``.  Every
    scan reads ``problem.partition.last_block(block_limit)`` blocks at
    most, so an explicit partition ends it as it ends a walk; from n_0 = 0
    a limit of one block scans no drop, so R and omega are None.  Each
    bound is called once over the whole list.  An omega * epsilon that
    underflows to 0 settles at no block."""
    epsilons = sorted(set(epsilons), reverse=True)
    limit = problem.partition.last_block(block_limit)
    from_zero = problem.partition.boundary(0) < 1
    # from n_0 = 0 the first drop is lam_{n_1} / lam_{n_2}, past one block
    scan = None if from_zero and limit < 2 else boundary_ratio(problem, limit)
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
    columns = [
        stop_block_bound(problem, epsilons, rho, block_limit=limit),
        stop_block_bound_rough(problem, epsilons, rho, block_limit=limit),
        stop_block_bound_first_term(problem, epsilons, rho)]
    if note is None:
        # omega * epsilon falls with epsilon: the zeros are a suffix
        shrunk = [t for t in (omega * eps for eps in epsilons) if t > 0.0]
        columns.append(complexity_lower_block(
            problem, scan.value, shrunk, rho, block_limit=limit)
            + [None] * (len(epsilons) - len(shrunk)))
    rows = []
    for eps, *blocks in zip(epsilons, *columns):
        settled = list(takewhile(lambda j: j is not None, blocks))
        guard = (None if len(settled) == len(blocks)
                 else _UNSETTLED[len(settled)].format(limit))
        j_dagger, j_rough, j_first, j_lower = (settled + [None] * 4)[:4]
        n_dagger = (None if j_dagger is None
                    else problem.partition.boundary(j_dagger))
        n_lower = (None if j_lower is None
                   else problem.partition.boundary(j_lower))
        rows.append(BoundsRow(
            eps, rho, j_dagger, j_rough, j_first, j_lower, omega,
            None if scan is None else scan.value,
            guard, note, n_dagger, n_lower,
            None if j_lower is None else j_dagger <= j_lower + 1))
    return rows


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
