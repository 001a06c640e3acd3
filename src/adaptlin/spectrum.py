"""Primitives for coefficient-based approximation of diagonal linear operators.

A problem instance couples a non-increasing sequence of positive singular
values with a strictly increasing partition of the coefficient indices into
blocks, plus two cone parameters quantifying how steadily the block norms of
an admissible input must decay.  Everything downstream (solvers, cost bounds,
adversarial constructions) is phrased in terms of these pieces.

Coefficient indices are 1-based throughout.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_SCAN_LIMIT = 2 ** 30


class OutOfRangeError(LookupError):
    """An explicitly enumerated sequence was queried past its last element."""


class GuardExceeded(RuntimeError):
    """An iteration or scan guard was reached before the target condition."""


_FSUM_BELOW = 2 ** 9  # the one switch: math.fsum below, extraction from here
_CHUNK = 2 ** 14  # entries per pass: cache-sized, each level's sum exact
_ULP_SCALE = 1 << 1074  # times the smallest subnormal gives 1
_RESCALED = 2.0 ** 1008  # squares from here need sigma past 2**1023
_MEMBER_SLACK = 1e-9  # relative slack of a membership verdict on the ratio


def _scaled(level: float) -> int:
    """2**1074 times ``level``, a float, so a multiple of 2**-1074."""
    numerator, denominator = level.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _extract(p: np.ndarray):
    """2**1074 times the sum of ``p``, at most _CHUNK squares, exactly.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", 2008): where every |p| < 2**top and p.size < 2**k, sigma =
    2**(top + k) splits each entry into q = (sigma + p) - sigma, a multiple
    of sigma * 2**-53, and the residual p - q, both exact.  The q add up
    to less than sigma in any order, so each level's sum is one exact
    float.  Rounding is to nearest, so a residual may be negative and is
    at most sigma * 2**-53 in size, the next level's 2**top.  Two levels
    run on all of ``p``, which they overwrite; then only the nonzero
    residuals go on, with top from max |residual| after a level that
    extracted nothing.  A sigma below 2**-1021 has the grid 2**-1074 of
    every float, so its level leaves no residual.  Squares from
    2**1008 on, whose sigma would pass the float range, are scaled by
    2**-512, exactly, and summed apart.  A NaN gives NaN, else an inf inf.
    """
    largest = p.max(initial=0.0)
    if not largest < math.inf:
        return math.nan if largest != largest else math.inf
    if largest >= _RESCALED:
        big = p >= _RESCALED
        return (_extract(p[big] * 2.0 ** -512) << 512) + _extract(p[~big])
    if largest == 0.0:
        return 0
    total, level, top = 0, 0, math.frexp(largest)[1]
    scratch = np.empty_like(p)
    while p.size:
        exponent = top + p.size.bit_length()
        sigma = math.ldexp(1.0, exponent)  # 0.0 below 2**-1074: q = p
        q = np.add(p, sigma, out=scratch)
        q -= sigma
        p -= q
        extracted = float(q.sum())
        total += _scaled(extracted)
        top, level = exponent - 53, level + 1
        if level >= 2:
            p = p[p != 0.0]
            scratch = scratch[:p.size]
            if extracted == 0.0 and p.size:  # skip a gap in the exponents
                top = math.frexp(max(p.max(), -p.min()))[1]
    return total


def _plus(a, b):
    """The sum of two ``_square_sum`` values: ints add, NaN beats inf."""
    if isinstance(a, float) or isinstance(b, float):
        return sum(v for v in (a, b) if isinstance(v, float))
    return a + b


def _rounded(total) -> float:
    """A ``_square_sum`` rounded to nearest once.

    Int/int true division rounds once; a sum past the float range is inf,
    which is what ``math.fsum`` overflows towards, and NaN and inf pass.
    """
    if isinstance(total, float):
        return total
    try:
        return total / _ULP_SCALE
    except OverflowError:
        return math.inf


# an overflowing square is inf, and so is the sum; as a decorator errstate
# costs about 0.6 us a call, a quarter of a with block, which short blocks feel
@np.errstate(over="ignore")
def _square_sum(x: np.ndarray):
    """2**1074 times the sum of the squares of ``x``, exactly, as one
    Python int, so the ints of two sets of squares add to that of their
    union; a NaN square gives NaN and an infinite one inf, as floats.
    Each _CHUNK entries are squared and extracted (``_extract``) apart."""
    total = 0
    for start in range(0, x.size, _CHUNK):
        total = _plus(total, _extract(np.square(x[start:start + _CHUNK])))
    return total


def _suffix_norms(sums) -> list:
    """Entry k is the root of the ``_square_sum`` values sums[k] + sums[k+1]
    + ..., added exactly and rounded once; an inf or NaN sum carries to
    every earlier entry, NaN over inf."""
    total, norms = 0, []
    for s in reversed(sums):
        total = _plus(s, total)
        norms.append(math.sqrt(_rounded(total)))
    return norms[::-1]


def exact_norm(x: np.ndarray) -> float:
    """Euclidean norm of ``x`` from the correctly rounded sum of its squares.

    The sum is exact before its one rounding, so the result does not depend
    on the order of ``x`` and has the bits of ``sqrt(math.fsum(x*x))``.
    Where that sum exceeds the float range, or a square is infinite, the
    norm is inf, and a NaN entry gives NaN.  One switch picks the path:
    below ``_FSUM_BELOW`` (2**9) entries ``math.fsum`` sums the squares as
    Python floats (``_list_norm``), and from there on error-free
    extraction (``_square_sum``) sums them exactly, chunk by chunk, into
    one Python int; both round the same exact sum to nearest, once.  Every
    block, tail, input and solution norm goes through this one kernel.
    """
    if x.size >= _FSUM_BELOW:
        return math.sqrt(_rounded(_square_sum(x)))
    return _list_norm(x.tolist())


def _list_norm(values: list) -> float:
    """``exact_norm`` of a list of Python floats, each squared as such, so
    an overflowing square is inf without a warning."""
    try:
        return math.sqrt(math.fsum(map(operator.mul, values, values)))
    except OverflowError:  # finite squares whose sum leaves the float range
        return math.nan if any(map(math.isnan, values)) else math.inf


def _chunks(lo: int, hi: int):
    """Step-1 ranges that cover lo..hi in order, each within one chunk
    k*_CHUNK+1 .. (k+1)*_CHUNK, so indices 1.._CHUNK share none with
    deeper ones."""
    while lo <= hi:
        last = min(-(-lo // _CHUNK) * _CHUNK, hi)
        yield range(lo, last + 1)
        lo = last + 1


def _bounds(indices) -> tuple:
    """First and last index of a step-1 range of 1-based indices.

    An empty range gives last = first - 1; anything but such a range raises
    ValueError.
    """
    if not (isinstance(indices, range) and indices.step == 1
            and indices.start >= 1):
        raise ValueError("indices must be a step-1 range of 1-based indices")
    return indices.start, max(indices.stop, indices.start) - 1


class SingularSpectrum:
    """Finite, non-increasing, positive weights lam_1 >= lam_2 >= ... > 0,
    the singular values of a bounded operator.

    The sequence is described by a rule mapping 1-based indices to weights.
    Rules must accept float numpy arrays (indices are cast to float64 before
    the call so integer powers cannot overflow).  Explicitly enumerated
    spectra keep their values in a read-only copy, have no rule, and refuse
    queries past the end.

    Every lam that multiplies a coefficient is read through ``checked``,
    and ``_check_run`` alone decides validity, where lam is first read.
    A rule spectrum keeps a watermark m, the deepest index checked so far,
    with lam_m and the head lam_1..lam_min(m, 2**14), and no other array,
    so a rule that fails deep down fails only the reads that get there.  A
    table, checked at construction, is its own head below an infinite m.
    ``value(i)``, the a-priori bounds' reader at the partition boundaries,
    is unchecked, but evaluates the rule on a one-element array, so it has
    the bits of ``values``: the bounds and the walks read one sequence.
    """

    def __init__(self, rule: Optional[Callable], *, name: str = "spectrum",
                 table: Optional[np.ndarray] = None):
        self._rule = rule
        self._table = None
        self._head = np.empty(0)
        self._mark, self._last = 0, math.inf  # m and lam_m
        self.name = name
        if table is not None:
            self._table = np.array(table, dtype=np.float64)
            if self._table.ndim != 1 or self._table.size == 0:
                raise ValueError("enumerated spectrum must be a non-empty 1-d array")
            self._check_run(self._table)
            self._table.flags.writeable = False
            self._head, self._mark = self._table, math.inf

    # -- constructors ------------------------------------------------------

    @classmethod
    def algebraic(cls, scale: float, power: float) -> "SingularSpectrum":
        """lam_i = scale / i**power with scale > 0, power > 0."""
        if scale <= 0 or power <= 0:
            raise ValueError("scale and power must be positive")
        name = f"algebraic(scale={scale}, power={power})"
        if power == 1.0:  # i ** 1.0 is i, bit for bit, and far slower
            return cls(lambda i: scale / i, name=name)

        # as in ``geometric``: an overflowed i**power gives lam = 0.0, which
        # the positivity check rejects, so the warning carries nothing
        @np.errstate(over="ignore")
        def rule(i):
            return scale / i ** power

        return cls(rule, name=name)

    @classmethod
    def geometric(cls, scale: float, base: float) -> "SingularSpectrum":
        """lam_i = scale / base**i with scale > 0, base > 1."""
        if scale <= 0 or base <= 1:
            raise ValueError("need scale > 0 and base > 1")

        def rule(i):
            # deep indices overflow base**i to inf; the quotient is then a
            # clean 0.0, so the warning carries no information
            with np.errstate(over="ignore"):
                return scale / base ** i

        return cls(rule, name=f"geometric(scale={scale}, base={base})")

    @classmethod
    def from_values(cls, values: Sequence[float], *, name: str = "enumerated") -> "SingularSpectrum":
        """Spectrum backed by an explicit finite array of weights."""
        return cls(None, name=name, table=values)

    @classmethod
    def from_rule(cls, fn: Callable, *, name: str = "rule") -> "SingularSpectrum":
        """Spectrum given by a rule that maps float index arrays to weights.

        The rule must be a pure function of the index: the head and the
        watermark keep what it gave, and a later read trusts it."""
        return cls(fn, name=name)

    # -- access ------------------------------------------------------------

    def value(self, i: int) -> float:
        if i < 1:
            raise ValueError("indices are 1-based")
        if self._table is not None:
            if i > self._table.size:
                raise OutOfRangeError(
                    f"index {i} past the {self._table.size} enumerated singular values")
            return float(self._table[i - 1])
        try:
            index = float(i)
        except OverflowError:
            raise GuardExceeded(f"index {i} is past the float range") from None
        # a one-element array takes numpy's vector loop, as ``values`` does:
        # on a scalar, pow goes through libm, which can differ by one ulp
        return float(self._rule(np.array([index]))[0])

    def values(self, indices: range) -> np.ndarray:
        """Weights at ``indices``, a step-1 range of 1-based indices.

        A table answers with a read-only view and a rule is evaluated on
        ``np.arange(lo, hi + 1, dtype=np.float64)``; an empty range gives an
        empty array.
        """
        lo, hi = _bounds(indices)
        if self._table is None:
            return np.asarray(self._rule(np.arange(lo, hi + 1, dtype=np.float64)),
                              dtype=np.float64)
        if lo <= hi and hi > self._table.size:
            raise OutOfRangeError(
                f"index {hi} past the {self._table.size} enumerated singular values")
        return self._table[lo - 1:hi]

    @property
    def enumerated_length(self) -> Optional[int]:
        return None if self._table is None else int(self._table.size)

    def first_at_or_below(self, threshold: float) -> int:
        """Smallest index i with lam_i <= threshold.

        Monotonicity of the spectrum turns this into a bisection after an
        exponential bracketing phase, clamped at a table's length.  Raises
        OutOfRangeError when a table holds no such index, and GuardExceeded
        when none within ``DEFAULT_SCAN_LIMIT`` (2**30) indices does.
        """
        if not threshold > 0:
            raise ValueError("threshold must be positive")
        length = self.enumerated_length
        if length is not None and self.value(length) > threshold:
            raise OutOfRangeError(
                "threshold not reached within the enumerated spectrum")
        limit = min(length or DEFAULT_SCAN_LIMIT, DEFAULT_SCAN_LIMIT)
        if self.value(1) <= threshold:
            return 1
        lo, hi = 1, min(2, limit)  # invariant: lam_lo > threshold
        while hi < limit and self.value(hi) > threshold:
            lo, hi = hi, min(2 * hi, limit)
        if self.value(hi) > threshold:
            raise GuardExceeded(
                f"no singular value at or below {threshold!r} within {limit} indices")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.value(mid) <= threshold:
                hi = mid
            else:
                lo = mid
        return hi

    def checked(self, indices: range) -> np.ndarray:
        """Weights at ``indices``, a step-1 range of 1-based indices, once
        lam_1 through its end are known to be finite, positive and
        non-increasing.
        Those at or below the watermark m are only evaluated, as head slices
        up to 2**14; those past it are also checked, chunk by chunk, and m
        moves up with each chunk that passes.  A failed chunk raises
        ValueError and leaves m short of it, so every read that reaches the
        fault fails alike.  No index of a read is evaluated twice."""
        lo, hi = _bounds(indices)
        if hi <= self._head.size:
            return self._head[lo - 1:hi]
        mark = self._mark
        if hi <= mark or lo > hi:
            return self.values(indices)
        parts = [self.checked(range(lo, mark + 1))] if lo <= mark else []
        for span in _chunks(mark + 1, hi):
            lam = self.values(span)
            self._check_run(lam, self._last)
            if span.start <= _CHUNK:  # the head's chunk
                self._head = np.concatenate((self._head, lam))
                self._head.flags.writeable = False
            self._mark, self._last = span.stop - 1, lam[-1]
            if span.stop > lo:
                parts.append(lam[max(lo - span.start, 0):])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _check_run(self, vals: np.ndarray, previous: float = math.inf) -> None:
        """Raise ValueError unless ``vals``, consecutive weights after one
        of weight ``previous``, are finite, positive and non-increasing:
        the one test of lam's validity.  The message names the fault at the
        lowest index, a weight that is not positive (NaN among them) over
        one that rises, over one that is infinite, so it does not depend on
        how a read is split into runs."""
        # non-increasing from a finite first value down to a positive last
        # one: one pass, NaN fails
        if not vals.size or (vals[-1] > 0.0 and vals[0] <= previous
                             and vals[0] < math.inf
                             and (vals[1:] <= vals[:-1]).all()):
            return
        low = ~(vals > 0.0)
        rises = ~(vals <= np.concatenate(([previous], vals[:-1])))
        first = np.argmax(low | rises | (vals == math.inf))
        fault = "positive" if low[first] else (
            "non-increasing" if rises[first] else "finite")
        raise ValueError(f"{self.name}: singular values must be {fault}")

    def validate_prefix(self) -> None:
        """Check the first 16 weights of a rule; a table is checked."""
        if self._table is None:
            self.checked(range(1, 17))

    def __repr__(self):
        return f"SingularSpectrum({self.name})"


class Partition:
    """Strictly increasing block boundaries n_0 < n_1 < n_2 < ...

    Block j >= 1 covers coefficient indices n_{j-1}+1 through n_j.  Indices
    1..n_0 belong to no block; solvers sample them but never test them.
    A partition is one of four kinds, built by ``doubling``,
    ``arithmetic``, ``zero_then_doubling`` or ``from_boundaries``; each
    increases by construction or is checked once there, so no read checks
    it again, and ``Partition(...)`` itself raises TypeError.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Partition comes from doubling, arithmetic, "
                        "zero_then_doubling or from_boundaries")

    @classmethod
    def _of(cls, kind: str, rule: Callable[[int], int],
            block_count: Optional[int] = None) -> "Partition":
        partition = cls.__new__(cls)
        partition.kind, partition._rule = kind, rule
        # number of blocks of an explicit partition; None for the others
        partition.block_count = block_count
        return partition

    @classmethod
    def doubling(cls, start: int) -> "Partition":
        """n_j = start * 2**j with start >= 1."""
        if start < 1:
            raise ValueError("doubling partitions need start >= 1")
        return cls._of("doubling", lambda j: start << j)

    @classmethod
    def arithmetic(cls, start: int, step: int) -> "Partition":
        """n_j = start + j * step with start >= 0, step >= 1."""
        if start < 0 or step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        return cls._of("arithmetic", lambda j: start + j * step)

    @classmethod
    def from_boundaries(cls, values: Sequence[int]) -> "Partition":
        """Boundaries ``values``: at least two, non-negative and strictly
        increasing; a read past the last raises OutOfRangeError."""
        table = [int(v) for v in values]
        if len(table) < 2:
            raise ValueError("explicit partition needs at least two boundaries")
        if any(hi <= lo for lo, hi in zip(table, table[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if table[0] < 0:
            raise ValueError("boundaries must be non-negative")

        def rule(j):
            if j >= len(table):
                raise OutOfRangeError(
                    f"partition has {len(table)} boundaries, asked for n_{j}")
            return table[j]

        return cls._of("explicit", rule, len(table) - 1)

    @classmethod
    def zero_then_doubling(cls, first: int) -> "Partition":
        """Boundaries (0, first, 2*first, 4*first, ...) with first >= 1."""
        if first < 1:
            raise ValueError("need first >= 1")
        return cls._of("zero-doubling",
                       lambda j: 0 if j == 0 else first << (j - 1))

    def last_block(self, block_limit: int) -> int:
        """The blocks a scan may read: ``block_limit``, or fewer where an
        explicit partition ends first."""
        return min(block_limit, self.block_count or block_limit)

    def boundary(self, j: int) -> int:
        if j < 0:
            raise ValueError("boundary indices start at 0")
        return int(self._rule(j))

    def block(self, j: int) -> tuple:
        """Inclusive coefficient index range (n_{j-1}+1, n_j) of block j >= 1."""
        if j < 1:
            raise ValueError("blocks are numbered from 1")
        return self.boundary(j - 1) + 1, self.boundary(j)

    def __repr__(self):
        return f"Partition({self.kind})"


@dataclass(frozen=True)
class ConeParams:
    """Decay envelope for admissible inputs.

    An input with block norms s_1, s_2, ... is admissible when
    s_{j+r} <= a * b**r * s_j for every j >= 1 and r >= 1.  ``b`` caps the
    long-run decay rate per block while ``a`` allows bounded short-run
    upticks; admissibility requires 0 < b < 1 < a.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.b > 0.0 and self.b < 1.0 and self.a > 1.0):
            raise ValueError("cone parameters require 0 < b < 1 < a")

    @property
    def tail_factor(self) -> float:
        """Multiplier turning a stopping block norm into an error bound."""
        return self.a * self.b / math.sqrt(1.0 - self.b * self.b)


class CoefficientSource:
    """The coefficients of an input at 1-based indices, zero past its
    support 1..N, where N, ``support_bound``, is a finite int.  A source
    is either an array of the coefficients 1..N (``from_vector``,
    ``from_padded``, ``zero``) or the nonzeros of the support
    (``from_sparse``); ``CoefficientSource(...)`` itself raises TypeError.
    A walk over either kind reserves its products at once (see
    ``read_blocks``), and ``products`` forms a sparse source's products
    only at its nonzeros.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a CoefficientSource comes from from_vector, "
                        "from_padded, zero or from_sparse")

    @classmethod
    def _of(cls, read: Callable, support_bound: int,
            nonzeros: Optional[tuple] = None) -> "CoefficientSource":
        source = cls.__new__(cls)
        source.support_bound = support_bound
        source._read = read  # (lo, hi) -> coefficients lo..hi
        source._nonzeros = nonzeros
        # the nonzeros as lists to bisect; None for an array source
        source._listed = None if nonzeros is None else (
            nonzeros[0].tolist(), nonzeros[1].tolist())
        return source

    @classmethod
    def from_vector(cls, values) -> "CoefficientSource":
        # one trailing zero serves every index past the support
        return cls.from_padded(
            np.append(np.asarray(values, dtype=np.float64), 0.0))

    @classmethod
    def from_padded(cls, padded: np.ndarray) -> "CoefficientSource":
        """Source over ``padded`` itself, a 1-d float64 array whose last
        entry is the zero that every index past the support reads, so its
        support bound is ``padded.size - 1``.  The array is not copied and
        becomes read-only; anything else raises ValueError."""
        if not (isinstance(padded, np.ndarray) and padded.dtype == np.float64
                and padded.ndim == 1 and padded.size and padded[-1] == 0.0):
            raise ValueError("padded coefficients must be a 1-d float64 "
                             "array ending in a zero")
        padded.flags.writeable = False
        size = padded.size - 1

        def read(lo, hi):
            if hi <= size:
                return padded[lo - 1:hi]
            out = np.zeros(hi - lo + 1)
            out[:max(size - lo + 1, 0)] = padded[lo - 1:size]
            return out

        return cls._of(read, size)

    @classmethod
    def from_sparse(cls, indices, values,
                    support_bound: int) -> "CoefficientSource":
        """Source that is zero but at ``indices``, strictly increasing
        1-based indices up to ``support_bound``, a non-negative int, where
        it takes ``values`` (a zero among them is allowed).  Both are
        copied into read-only arrays, its ``nonzeros``.  ``coefficients``
        scatters them into zeros, ``norm`` sums their squares alone, and
        ``products`` forms products only at them; anything else raises
        ValueError."""
        places = np.array(indices, dtype=np.int64)
        entries = np.array(values, dtype=np.float64)
        if not (places.ndim == entries.ndim == 1
                and places.size == entries.size
                and isinstance(support_bound, (int, np.integer))
                and support_bound >= 0
                and (places.size == 0
                     or (1 <= places[0] and places[-1] <= support_bound
                         and (places[1:] > places[:-1]).all()))):
            raise ValueError("sparse coefficients need strictly increasing "
                             "1-based indices up to the support bound, a "
                             "non-negative int, one value each")
        places.flags.writeable = entries.flags.writeable = False

        def read(lo, hi):
            out = np.zeros(hi - lo + 1)
            first, stop = np.searchsorted(places, (lo, hi + 1))
            out[places[first:stop] - lo] = entries[first:stop]
            return out

        return cls._of(read, int(support_bound), (places, entries))

    @classmethod
    def zero(cls) -> "CoefficientSource":
        return cls.from_vector(np.zeros(0))

    @property
    def nonzeros(self) -> Optional[tuple]:
        """``(indices, values)`` of a ``from_sparse`` source, read-only
        arrays; None for every other source."""
        return self._nonzeros

    @property
    def size(self) -> int:
        """Length of the coefficients 1..``support_bound``, as of the array
        ``dense(support_bound)``."""
        return self.support_bound

    def coefficients(self, indices: range) -> np.ndarray:
        """Coefficients at ``indices``, a step-1 range of 1-based indices;
        a vector source answers with a read-only slice of its array,
        zero-filled past the support."""
        return self._read(*_bounds(indices))

    def dense(self, n: int) -> np.ndarray:
        """Coefficients 1..n as an array."""
        return self.coefficients(range(1, n + 1))

    def norm(self) -> float:
        """Input-space norm, the plain l2 norm of the coefficients."""
        if self._nonzeros is not None:  # a zero square adds nothing
            return exact_norm(self._nonzeros[1])
        return exact_norm(self.dense(self.support_bound))


@dataclass(frozen=True)
class Problem:
    """A diagonal linear operator together with a block partition and cone."""

    spectrum: SingularSpectrum
    partition: Partition
    cone: ConeParams

    def __post_init__(self):
        self.spectrum.validate_prefix()


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    worst_ratio: float
    witness: Optional[tuple]
    blocks: int


def block_norm(problem: Problem, f: CoefficientSource, j: int) -> float:
    """Euclidean norm of the solution coefficients in block j.

    Computes sqrt(sum((lam_i * fhat_i)**2)) over the block's index range,
    accumulating in ascending index order with exact summation.  When the
    spectrum is a finite table the operator has exactly that many modes, so
    the range clips to the enumerated length and a block lying entirely past
    it has norm zero.
    """
    if j < 1:
        raise ValueError("blocks are numbered from 1")
    lo, hi = problem.partition.block(j)
    length = problem.spectrum.enumerated_length
    if length is not None:
        hi = min(hi, length)
        if lo > hi:
            return 0.0
    span = range(lo, hi + 1)
    return exact_norm(problem.spectrum.values(span) * f.coefficients(span))


def cone_membership(problem: Problem,
                    f: CoefficientSource) -> MembershipReport:
    """Decide whether a finite-support input satisfies the cone decay.

    Checks s_{j+r} <= a * b**r * s_j for all pairs with 1 <= j < j+r <= J,
    where J is the first block whose boundary covers the support.  Blocks
    past J vanish, so those pairs hold vacuously.  The norms come from
    ``read_blocks``, whose ValueError a non-finite one raises.  The verdict
    allows a relative slack of 1e-9 on the ratio; a zero allowance with a
    positive later block norm counts as an infinite ratio.  The witness is
    the pair (j, k - j) of the first block k over 1 + slack, where j is the
    block that binds k (see ``block_decay_ratios``), or None.
    """
    last = 0
    while problem.partition.boundary(last) < f.support_bound:
        last += 1
    norms = [norm for _, _, _, norm in read_blocks(problem, f, last)][1:]
    ratios, binders = block_decay_ratios(problem.cone, norms)
    worst = max([0.0] + ratios)
    witness = next(((j, k - j) for k, (ratio, j)
                    in enumerate(zip(ratios, binders), start=1)
                    if ratio > 1.0 + _MEMBER_SLACK), None)
    return MembershipReport(member=worst <= 1.0 + _MEMBER_SLACK,
                            worst_ratio=worst, witness=witness, blocks=last)


def block_decay_ratios(cone: ConeParams, norms: Sequence[float]) -> tuple:
    """Worst decay ratio of each block over block norms s_1..s_J, in one pass.

    Returns ``(ratios, binders)``: for each block k, the worst ratio
    s_k / (a * b**(k-j) * s_j) over j < k, which is s_k over a times the
    allowance min_{j<k} b**(k-j) * s_j, and the earliest block j attaining
    that allowance (0.0 and None for block 1, which has no earlier block).
    The allowance of block k+1 is b * min(allowance of k, s_k), so no power
    of b is formed.  A zero allowance with a positive s_k is an infinite
    ratio, and a zero s_k a zero ratio.
    """
    ratios, binders = [], []
    allowance, binder = math.inf, None
    for k, s in enumerate(norms, start=1):
        if s == 0.0:
            ratios.append(0.0)
        elif allowance == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(s / (cone.a * allowance))
        binders.append(binder)
        if s < allowance:
            allowance, binder = s, k
        allowance *= cone.b
    return ratios, binders


@np.errstate(over="ignore")
def _multiply(lam: np.ndarray, coefficients: np.ndarray,
              out: np.ndarray) -> None:
    """lam * coefficients into ``out``, an overflow inf without a warning."""
    np.multiply(lam, coefficients, out=out)


def products(spectrum: SingularSpectrum, f: CoefficientSource, lo: int,
             hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The products lam_i * fhat_i that ``f`` holds at lo..hi, in index
    order, written into ``out``, a buffer of all of them, where given: one
    per index through the support, formed chunk by chunk of 2**14 (one
    ``checked`` range, one ``coefficients`` range and one multiply each,
    so no read of a long range is joined from chunks), or for a
    ``from_sparse`` f only those at its nonzeros, each lam a one-index
    range.  Past the last product a read at ``hi`` checks lam."""
    if f._listed is None:
        top = max(lo - 1, min(hi, f.support_bound))
        values = np.empty(top - lo + 1) if out is None else out[lo - 1:top]
        for span in _chunks(lo, top):
            _multiply(spectrum.checked(span), f.coefficients(span),
                      values[span.start - lo:span.stop - lo])
    else:
        where, entries = f._listed
        first = bisect_left(where, lo)
        stop = bisect_right(where, hi, first)
        values = np.empty(stop - first) if out is None else out[first:stop]
        top = lo - 1  # the index of the last product formed
        for k in range(first, stop):
            top = where[k]
            values[k - first] = spectrum.checked(range(top, top + 1)).item() \
                * entries[k]
    if hi > top:
        spectrum.checked(range(hi, hi + 1))
    return values


def read_blocks(problem: Problem, f: CoefficientSource, last: int):
    """Yield ``(end, values, total, norm)`` for blocks 0, 1, ..., ``last``.

    Block 0 is indices 1..n_0, sampled but never tested; blocks are
    clipped to a finite table.  Each block is one ``products`` call, so
    past the support lam is only checked, through the block's end.
    ``values`` are the products through ``end``, a prefix view of one
    buffer the caller must not write into, reserved once: as long as a
    sparse source's nonzeros, and otherwise min(n_last, support, table
    length).  ``total`` is the block's exact sum of squares
    (``_square_sum``) where it holds 2**9 products or more,
    ``exact_norm``'s own switch, and None otherwise; ``norm`` has the bits
    of ``block_norm``.  A non-finite norm raises ValueError.
    """
    spectrum, partition = problem.spectrum, problem.partition
    length = spectrum.enumerated_length
    buffer = np.empty(f.nonzeros[0].size if f.nonzeros is not None else
                      min(_solution_end(problem, f), partition.boundary(last)))
    start, count = 1, 0  # count products so far
    for j in range(last + 1):
        end = partition.boundary(j)
        if length is not None:  # no modes past a table
            end = min(end, length)
        piece = products(spectrum, f, start, end, buffer)
        count += piece.size
        total = _square_sum(piece) if piece.size >= _FSUM_BELOW else None
        norm = exact_norm(piece) if total is None else math.sqrt(_rounded(total))
        if not math.isfinite(norm):
            raise ValueError(
                f"non-finite norm over indices {start}..{end}: "
                "a solution coefficient is not finite or its square overflows")
        yield end, buffer[:count], total, norm
        start = end + 1


def block_tails(problem: Problem, f: CoefficientSource, values: np.ndarray,
                ends: Sequence[int], totals: Sequence) -> list:
    """``tail_norms`` at the ends of consecutive blocks, bit for bit.

    ``ends`` and ``totals`` are what ``read_blocks`` yielded for the
    blocks and ``values`` the products through ends[-1].  A block without a
    total has its squares summed here from ``values`` by ``_square_sum``,
    and only the support past ends[-1] is read, once; the exact ints then
    add from the last block backwards, each tail rounded once.
    """
    cuts = ends if f.nonzeros is None else np.searchsorted(
        f.nonzeros[0], ends, "right").tolist()
    sums = [_square_sum(values[lo:hi]) if total is None else total
            for lo, hi, total in zip(cuts, cuts[1:], totals[1:])]
    rest = _product_sum(problem, f, ends[-1] + 1, _solution_end(problem, f))
    return _suffix_norms(sums + [rest])


def tail_norms(problem: Problem, f: CoefficientSource, cuts) -> list:
    """Exact norms of the solution tails past each index n in ``cuts``.

    Returns sqrt(sum((lam_i * fhat_i)**2 for i > n)) for every n, in the
    order of ``cuts``, summed over the declared support (clipped to the
    table length when the spectrum is a finite table).  These are the
    reference errors of keeping only the first n solution coefficients; no
    quadrature enters.  One pass gathers the products past the smallest
    cut, sums each segment between two cuts exactly, and adds the segments
    from the last backwards, so every tail is the correctly rounded sum of
    its squares (the bits of ``math.fsum``) and each product is read once.
    """
    cuts = list(cuts)
    if any(n < 0 for n in cuts):
        raise ValueError("n must be non-negative")
    top = _solution_end(problem, f)
    # segment k covers indices edges[k]+1 .. edges[k+1]; past top it is empty
    edges = sorted({min(n, top) for n in cuts}) + [top]
    sums = [_product_sum(problem, f, lo + 1, hi)
            for lo, hi in zip(edges, edges[1:])]
    tails = dict(zip(edges, _suffix_norms(sums + [0])))
    return [tails[min(n, top)] for n in cuts]


def _solution_end(problem: Problem, f: CoefficientSource) -> int:
    """The input's support bound, clipped to a finite table."""
    length = problem.spectrum.enumerated_length
    return f.support_bound if length is None else min(f.support_bound, length)


def _product_sum(problem: Problem, f: CoefficientSource, lo: int, hi: int):
    """The ``_square_sum`` of the ``products`` at lo..hi: one ``products``
    call per chunk of 2**14 for a dense source, so no more than a chunk of
    products is held at once, and one call for a sparse one."""
    spans = _chunks(lo, hi) if f.nonzeros is None else [range(lo, hi + 1)]
    total = 0
    for span in spans:
        total = _plus(total, _square_sum(
            products(problem.spectrum, f, span.start, span.stop - 1)))
    return total


def tail_norm(problem: Problem, f: CoefficientSource, n: int) -> float:
    """Exact norm of the solution tail past index n, the one-cut case of
    ``tail_norms``: 0.0 at or past the support's end, and inf where the
    exact sum of squares exceeds the float range."""
    return tail_norms(problem, f, [n])[0]


@contextmanager
def _past_range(message: str):
    """Only the numpy arithmetic inside, never lam's evaluation, with an
    overflow raising ValueError(``message``) before anything is stored."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(message) from exc


def random_cone_member(problem: Problem, rng: np.random.Generator,
                       blocks: int, *, scale: float = 1.0,
                       head: bool = True) -> CoefficientSource:
    """Draw a finite-support input satisfying the cone decay by construction.

    The block norm profile is s_j = c_j * scale * b**j with c_j uniform on
    [1, a], so s_{j+r} / s_j = (c_{j+r} / c_j) * b**r <= a * b**r for every
    pair.  Mass inside each block is spread along a random direction,
    normalised with ``exact_norm`` so no BLAS thread count enters.  With
    ``head`` set, indices 1..n_0 also receive Gaussian mass, which changes
    the input norm but no block norm.  Each run of lam is checked before
    it divides, so a spectrum that underflows to zero or rises raises
    ValueError instead of giving infinite coefficients, and so does a
    division by lam that overflows, a lam too small for its block norm,
    and a profile, a scaled block or a head past the float range.
    """
    if blocks < 1:
        raise ValueError("need at least one block")
    a, b = problem.cone.a, problem.cone.b
    factors = rng.uniform(1.0, a, size=blocks)
    with _past_range("non-finite block norm profile: scale * c_j * b**j "
                     "is past the float range"):
        profile = scale * factors * b ** np.arange(1, blocks + 1,
                                                   dtype=np.float64)
    # the trailing zero lets the source read this array without a copy
    padded = np.zeros(problem.partition.boundary(blocks) + 1)
    for j in range(1, blocks + 1):
        lo, hi = problem.partition.block(j)
        weights = padded[lo - 1:hi]
        norm = 0.0
        while norm == 0.0:
            rng.standard_normal(out=weights)
            norm = exact_norm(weights)
        with _past_range(f"non-finite block {j}: its entries scaled to "
                         "the profile are past the float range"):
            weights *= profile[j - 1]
        weights /= norm
        for span in _chunks(lo, hi):
            lam = problem.spectrum.checked(span)
            with _past_range(f"the coefficients of block {j} overflow: "
                             "its norm over lam is past the float range"):
                weights[span.start - lo:span.stop - lo] /= lam
    head_len = problem.partition.boundary(0)
    if head and head_len > 0:
        with _past_range("non-finite head: scale * N(0, 1) is past the "
                         "float range"):
            padded[:head_len] = scale * rng.standard_normal(head_len)
    return CoefficientSource.from_padded(padded)
