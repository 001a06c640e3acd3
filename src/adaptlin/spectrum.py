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
import mmap
import operator
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_SCAN_LIMIT = 2 ** 30


class OutOfRangeError(LookupError):
    """An explicitly enumerated sequence was queried past its last element."""


class SupportBoundRequired(ValueError):
    """The requested quantity is undecidable without a finite support bound."""


class GuardExceeded(RuntimeError):
    """An iteration or scan guard was reached before the target condition."""


_FSUM_BELOW = 2 ** 11  # below this many squares math.fsum is the faster path
_NUMPY_FROM = 2 ** 5  # below this many, Python floats square faster than numpy
_CHUNK = 2 ** 14  # entries per pass: cache-sized, each bin sum exact
_FIELDS = 2048  # values of the 11-bit IEEE exponent field
_FRACTION = (1 << 52) - 1
_LOW = (1 << 26) - 1
_ULP_SCALE = 1 << 1074  # times the smallest subnormal gives 1
_MEMBER_SLACK = 1e-9  # relative slack of a membership verdict on the ratio
_MAPPED_FROM = 2 ** 16  # entries from which ``_zeros`` maps fresh pages


# an overflowing square is inf, and so is the sum; as a decorator errstate
# costs about 0.6 us a call, a quarter of a with block, which short blocks feel
@np.errstate(over="ignore")
def _squares(x: np.ndarray) -> np.ndarray:
    return np.square(x)


def _new_bins() -> np.ndarray:
    """Empty bins for ``_bin_squares``."""
    return np.zeros((3, _FIELDS), dtype=np.int64)


def _bin_squares(x: np.ndarray, bins: np.ndarray) -> None:
    """Add the squares of ``x`` into ``bins`` without rounding.

    ``bins`` is an int64 array of shape (3, 2048), indexed by the squares'
    exponent field: the count of squares, then the sums of the high 26 and
    the low 26 bits of their stored fractions.  Each bincount covers at
    most _CHUNK squares, so every float64 bin sum is an exact integer.
    """
    for start in range(0, x.size, _CHUNK):
        bits = _squares(x[start:start + _CHUNK]).view(np.int64)
        field = bits >> 52
        field &= _FIELDS - 1  # drops the sign a NaN may carry
        bits &= _FRACTION
        high = bits >> 26
        bits &= _LOW
        bins[0] += np.bincount(field, minlength=_FIELDS)
        bins[1] += np.bincount(field, high, _FIELDS).astype(np.int64)
        bins[2] += np.bincount(field, bits, _FIELDS).astype(np.int64)


def _exact_sum(bins: np.ndarray):
    """2**1074 times the sum of the squares binned in ``bins``, exactly.

    Field e >= 1 holds (2**52 + fraction) * 2**(e - 1075) and field 0, the
    subnormals, holds fraction * 2**-1074, so the scaled sum is one Python
    int, and the ints of two sets of squares add to the int of their union.
    A NaN square gives NaN and an infinite one inf, as floats.
    """
    count, high, low = bins
    if count[-1]:  # exponent field 2047: inf, or NaN with a nonzero fraction
        return math.nan if high[-1] or low[-1] else math.inf
    fields = np.flatnonzero(count)
    total = 0
    for e, c, h, l in zip(fields.tolist(), count[fields].tolist(),
                          high[fields].tolist(), low[fields].tolist()):
        mantissa = (h << 26) + l + (c << 52 if e else 0)
        total += mantissa << max(e - 1, 0)
    return total


def _rounded(total) -> float:
    """An ``_exact_sum`` rounded to nearest once.

    Int/int true division rounds once; a sum past the float range is inf,
    which is what ``math.fsum`` overflows towards, and NaN and inf pass.
    """
    if isinstance(total, float):
        return total
    try:
        return total / _ULP_SCALE
    except OverflowError:
        return math.inf


def _square_sum(x: np.ndarray):
    """The ``_exact_sum`` of the squares of ``x``."""
    bins = _new_bins()
    _bin_squares(x, bins)
    return _exact_sum(bins)


def _suffix_norms(sums) -> list:
    """Entry k is the root of the ``_exact_sum`` values sums[k] + sums[k+1]
    + ..., added exactly and rounded once; an inf or NaN sum carries to
    every earlier entry, NaN over inf."""
    total, norms = 0, []
    for s in reversed(sums):
        if isinstance(s, float) or isinstance(total, float):
            total = sum(v for v in (s, total) if isinstance(v, float))
        else:
            total += s
        norms.append(math.sqrt(_rounded(total)))
    return norms[::-1]


def exact_norm(x: np.ndarray) -> float:
    """Euclidean norm of ``x`` from the correctly rounded sum of its squares.

    The sum is exact before its one rounding, so the result does not depend
    on the order of ``x`` and has the bits of ``sqrt(math.fsum(x*x))``.
    Where that sum exceeds the float range, or a square is infinite, the
    norm is inf, and a NaN entry gives NaN.  Short vectors go through
    ``math.fsum`` (squared as Python floats below 32 entries, which skips
    numpy's per-call cost) and long ones through exponent bins
    (``_bin_squares``); both round the same exact sum to nearest.  From 32
    entries on, the zeros are dropped first, since a zero square adds
    nothing (NaN and inf stay), and the path is chosen by the entries
    left; below 32, adding the zeros costs less than finding them.  Every
    block, tail, input and solution norm goes through this one kernel.
    """
    if x.size >= _NUMPY_FROM:
        nonzero = x != 0.0
        if not nonzero.all():  # a copy only where there is a zero to drop
            x = x[nonzero]
    if x.size >= _FSUM_BELOW:
        return math.sqrt(_rounded(_square_sum(x)))
    if x.size < _NUMPY_FROM:
        return _list_norm(x.tolist())
    try:
        return math.sqrt(math.fsum(_squares(x).tolist()))
    except OverflowError:  # finite squares whose sum leaves the float range
        return math.nan if np.isnan(x).any() else math.inf


def _list_norm(values: list) -> float:
    """``exact_norm`` of a list of Python floats, each squared as such, so
    an overflowing square is inf without a warning."""
    try:
        return math.sqrt(math.fsum(map(operator.mul, values, values)))
    except OverflowError:  # finite squares whose sum leaves the float range
        return math.nan if any(map(math.isnan, values)) else math.inf


def _zeros(size: int) -> np.ndarray:
    """``size`` float64 zeros whose pages cost memory only once written.

    From 2**16 entries (512 KiB) the array is a fresh anonymous mapping
    without huge pages: an ``np.zeros`` that large may reuse heap memory
    the allocator must clear, and numpy advises huge pages for it, so a
    few scattered writes could map megabytes.
    """
    if size < _MAPPED_FROM:
        return np.zeros(size)
    pages = mmap.mmap(-1, 8 * size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=np.float64)


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
    """Non-increasing positive weights lam_1 >= lam_2 >= ... > 0.

    The sequence is described by a rule mapping 1-based indices to weights.
    Rules must accept float numpy arrays (indices are cast to float64 before
    the call so integer powers cannot overflow).  Explicitly enumerated
    spectra keep their values in a read-only copy, have no rule, and refuse
    queries past the end.

    A rule spectrum also keeps a checked head lam_1..lam_m for
    ``read_blocks``: m is the deepest index a walk has asked for, capped at
    _CHUNK (2**14 weights, 128 KiB).  Each index of the head is evaluated
    and checked once, when a walk first reaches it, and never before, so a
    rule that fails deep down fails only the walks that get there.
    """

    def __init__(self, rule: Optional[Callable], *, name: str = "spectrum",
                 table: Optional[np.ndarray] = None):
        self._rule = rule
        self._table = None
        self._head = np.empty(0)
        self.name = name
        if table is not None:
            self._table = np.array(table, dtype=np.float64)
            if self._table.ndim != 1 or self._table.size == 0:
                raise ValueError("enumerated spectrum must be a non-empty 1-d array")
            self.check_run(self._table)
            self._table.flags.writeable = False

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
        """Spectrum given by a rule that maps float index arrays to weights."""
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
        return float(self._rule(np.float64(i)))

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

    def first_at_or_below(self, threshold: float, *, limit: int = DEFAULT_SCAN_LIMIT) -> int:
        """Smallest index i with lam_i <= threshold.

        Monotonicity of the spectrum turns this into a bisection after an
        exponential bracketing phase.  Raises GuardExceeded when no index up
        to ``limit`` qualifies, or OutOfRangeError when an enumerated
        spectrum is exhausted first.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if self._table is not None:
            hits = np.nonzero(self._table <= threshold)[0]
            if hits.size == 0:
                raise OutOfRangeError(
                    "threshold not reached within the enumerated spectrum")
            first = int(hits[0]) + 1
            if first > limit:
                raise GuardExceeded(f"first qualifying index {first} exceeds limit {limit}")
            return first
        if self.value(1) <= threshold:
            return 1
        lo = 1  # invariant: lam_lo > threshold
        hi = 2
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

    def check_run(self, vals: np.ndarray, previous: float = math.inf) -> None:
        """Raise ValueError unless ``vals`` are positive and non-increasing.

        ``vals`` are consecutive weights and ``previous`` is the weight just
        before the first of them, so a long run can be checked in pieces.
        """
        # non-increasing down to a positive last value: one pass, NaN fails
        if not vals.size or (vals[-1] > 0.0 and vals[0] <= previous
                             and (vals[1:] <= vals[:-1]).all()):
            return
        if not (vals > 0.0).all():
            raise ValueError(f"{self.name}: singular values must be positive")
        raise ValueError(f"{self.name}: singular values must be non-increasing")

    def _checked_head(self, hi: int) -> np.ndarray:
        """The read-only head lam_1..lam_m of a rule, with m at least
        min(hi, _CHUNK).  Only the new indices are evaluated, through
        ``values``, and checked against the last old one; a failed check
        raises and leaves the head as it was, so every later walk fails
        the same way."""
        head = self._head
        top = min(hi, _CHUNK)
        if top > head.size:
            new = self.values(range(head.size + 1, top + 1))
            self.check_run(new, head[-1] if head.size else math.inf)
            head = np.concatenate((head, new))
            head.flags.writeable = False
            self._head = head
        return head

    def validate_prefix(self, count: int = 32) -> None:
        """Check positivity and monotonicity on the first ``count`` indices."""
        if self._table is not None:
            return  # validated at construction
        self.check_run(self.values(range(1, count + 1)))

    def __repr__(self):
        return f"SingularSpectrum({self.name})"


class Partition:
    """Strictly increasing block boundaries n_0 < n_1 < n_2 < ...

    Block j >= 1 covers coefficient indices n_{j-1}+1 through n_j.  Indices
    1..n_0 belong to no block; solvers sample them but never test them.
    """

    def __init__(self, rule: Optional[Callable[[int], int]], *, kind: str = "rule",
                 table: Optional[Sequence[int]] = None):
        self._rule = rule
        self._table = None if table is None else [int(v) for v in table]
        self.kind = kind
        if self._table is not None:
            if len(self._table) < 2:
                raise ValueError("explicit partition needs at least two boundaries")
            for lo, hi in zip(self._table, self._table[1:]):
                if hi <= lo:
                    raise ValueError("boundaries must be strictly increasing")
            if self._table[0] < 0:
                raise ValueError("boundaries must be non-negative")

    @classmethod
    def doubling(cls, start: int) -> "Partition":
        """n_j = start * 2**j with start >= 1."""
        if start < 1:
            raise ValueError("doubling partitions need start >= 1")
        return cls(lambda j: start << j, kind="doubling")

    @classmethod
    def arithmetic(cls, start: int, step: int) -> "Partition":
        """n_j = start + j * step with start >= 0, step >= 1."""
        if start < 0 or step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        return cls(lambda j: start + j * step, kind="arithmetic")

    @classmethod
    def from_boundaries(cls, values: Sequence[int]) -> "Partition":
        return cls(None, kind="explicit", table=values)

    @classmethod
    def zero_then_doubling(cls, first: int) -> "Partition":
        """Boundaries (0, first, 2*first, 4*first, ...) with first >= 1."""
        if first < 1:
            raise ValueError("need first >= 1")
        return cls(lambda j: 0 if j == 0 else first << (j - 1), kind="zero-doubling")

    def boundary(self, j: int) -> int:
        if j < 0:
            raise ValueError("boundary indices start at 0")
        if self._table is not None:
            if j >= len(self._table):
                raise OutOfRangeError(
                    f"partition has {len(self._table)} boundaries, asked for n_{j}")
            return self._table[j]
        return int(self._rule(j))

    @property
    def block_count(self) -> Optional[int]:
        """Number of blocks of an explicit partition; None for a rule."""
        return None if self._table is None else len(self._table) - 1

    def block(self, j: int) -> tuple:
        """Inclusive coefficient index range (n_{j-1}+1, n_j) of block j >= 1."""
        if j < 1:
            raise ValueError("blocks are numbered from 1")
        lo, hi = self.boundary(j - 1), self.boundary(j)
        if hi <= lo:
            raise ValueError(f"partition boundaries not increasing at block {j}")
        return lo + 1, hi

    def validate_prefix(self, count: int = 8) -> None:
        if self._table is not None:
            return
        previous = self.boundary(0)
        if previous < 0:
            raise ValueError("n_0 must be non-negative")
        for j in range(1, count + 1):
            current = self.boundary(j)
            if current <= previous:
                raise ValueError(f"boundaries must be strictly increasing (n_{j})")
            previous = current

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
    """Deterministic, repeatable map from 1-based index to series coefficient.

    ``rule`` maps ``np.arange(lo, hi + 1, dtype=np.float64)`` to the
    coefficients at lo..hi, one per index, the contract of
    ``SingularSpectrum.from_rule``.  ``support_bound`` = N promises that
    coefficients vanish for indices above N, which is what makes exact tail
    norms and membership checks decidable.  Sources without a bound can
    still be solved adaptively.  ``from_vector`` and ``from_padded``
    sources hold their coefficients in memory, so a walk over one reserves
    its products at once (see ``read_blocks``).  A ``from_sparse`` source
    holds only its nonzeros, and every read of it costs only those.
    """

    def __init__(self, rule: Callable, support_bound: Optional[int] = None):
        if support_bound is not None and support_bound < 0:
            raise ValueError("support bound must be non-negative")
        self.support_bound = support_bound
        # (lo, hi) -> coefficients lo..hi
        self._read = lambda lo, hi: np.asarray(
            rule(np.arange(lo, hi + 1, dtype=np.float64)), dtype=np.float64)
        # whether the source holds coefficients 1..support_bound in memory,
        # so that a walk may reserve as many products at once
        self._stored = False
        self._nonzeros = None

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

        source = cls(None, support_bound=size)
        source._read = read
        source._stored = True
        return source

    @classmethod
    def from_sparse(cls, indices, values,
                    support_bound: int) -> "CoefficientSource":
        """Source that is zero but at ``indices``, strictly increasing
        1-based indices up to ``support_bound``, where it takes ``values``
        (a zero among them is allowed).  Both are copied into read-only
        arrays, its ``nonzeros``.  ``coefficients`` scatters them into
        zeros, ``norm`` sums their squares alone, and ``read_blocks`` forms
        products only at them; anything else raises ValueError."""
        places = np.array(indices, dtype=np.int64)
        entries = np.array(values, dtype=np.float64)
        if not (places.ndim == entries.ndim == 1
                and places.size == entries.size and support_bound is not None
                and (places.size == 0
                     or (1 <= places[0] and places[-1] <= support_bound
                         and (places[1:] > places[:-1]).all()))):
            raise ValueError("sparse coefficients need strictly increasing "
                             "1-based indices up to the support bound, "
                             "one value each")
        places.flags.writeable = entries.flags.writeable = False

        def read(lo, hi):
            out = np.zeros(hi - lo + 1)
            first, stop = np.searchsorted(places, (lo, hi + 1))
            out[places[first:stop] - lo] = entries[first:stop]
            return out

        source = cls(None, support_bound=support_bound)
        source._read = read
        source._nonzeros = places, entries
        return source

    @classmethod
    def zero(cls) -> "CoefficientSource":
        return cls.from_vector(np.zeros(0))

    @property
    def nonzeros(self) -> Optional[tuple]:
        """``(indices, values)`` of a ``from_sparse`` source, read-only
        arrays; None for every other source."""
        return self._nonzeros

    @property
    def size(self) -> Optional[int]:
        """Length of the coefficients 1..``support_bound``, as of the array
        ``dense(support_bound)``; None without a support bound."""
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
        if self.support_bound is None:
            raise SupportBoundRequired(
                "input norms need a finite support bound")
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
        self.spectrum.validate_prefix(16)
        self.partition.validate_prefix(4)


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
    bound = f.support_bound
    if bound is None:
        raise SupportBoundRequired(
            "membership is undecidable without a finite support bound")
    last = 0
    while problem.partition.boundary(last) < bound:
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


@np.errstate(over="ignore", invalid="ignore")
def _products(lam: np.ndarray, coefficients: np.ndarray,
              out: np.ndarray) -> None:
    """lam * coefficients into ``out``, an overflow inf and an infinite lam
    times zero NaN without a warning: ``read_blocks`` rejects either."""
    np.multiply(lam, coefficients, out=out)


def read_blocks(problem: Problem, f: CoefficientSource, last: int):
    """Yield ``(end, values, total, norm)`` for blocks 0, 1, ..., ``last``.

    Block 0 is indices 1..n_0, sampled but never tested; each block is
    clipped to a finite table.  ``values`` are the products lam_i * fhat_i
    at 1..min(end, support), a prefix view of one buffer that the walk
    writes in order; each block's ``values`` extend the last, and the
    caller must not write into them.  Past the support every product of a
    finite lam is zero, so none is formed, stored or read from ``f`` there.
    ``total`` is the block's exact sum of squares for ``block_tails`` (None
    under 2**11 entries, summed by ``math.fsum``), and ``norm`` has the
    bits of ``block_norm``.  A block is formed chunk by chunk (2**14
    indices) into the buffer and binned while in cache.  The buffer is
    reserved once where the input stores that many coefficients itself (a
    vector source or a finite table), at min(n_last, support, table
    length); otherwise it grows geometrically, so a distant support bound
    reserves nothing the walk does not read.  A rule spectrum's weights up
    to 2**14 come from its checked head, so each is evaluated and checked
    once per spectrum; deeper ones, past the support too, are evaluated and
    checked on every walk.  A non-finite norm raises ValueError, so no
    certificate rests on it; an infinite lam past the support times the
    zero coefficient counts as NaN.

    A ``from_sparse`` source is read at its nonzeros alone: the buffer is
    zeros (``_zeros``, reserved as for a vector source), each block finds
    its nonzeros by bisection and writes lam_i * fhat_i there, and its
    norm and total come from those products, since a zero square adds
    nothing to an exact sum; a block without one has norm 0.  Every lam
    the walk passes is still evaluated and checked as above, and the
    nonzeros take theirs from the same chunks.  lam is non-increasing, so
    a block holds an infinite lam, which the dense products would turn
    into inf or NaN, exactly where its first one is infinite.  The yields
    have the bits of those of ``CoefficientSource.from_vector`` over the
    same coefficients.
    """
    spectrum, partition = problem.spectrum, problem.partition
    length, support = spectrum.enumerated_length, f.support_bound
    held = [n for n in (support, length) if n is not None]
    bound = min(held) if held else None  # no product is stored past it
    sparse = f.nonzeros
    if sparse is not None:  # as lists, bisected and read once per block
        where, entries = (part.tolist() for part in sparse)
        buffer = _zeros(min(bound, partition.boundary(last)))
    else:
        buffer = np.empty(min(bound, partition.boundary(last))
                          if f._stored or length is not None else 0)
    start, previous, n = 1, math.inf, partition.boundary(0)
    for j in range(last + 1):
        if j:  # the check of ``Partition.block``, on one new boundary
            lo, n = n, partition.boundary(j)
            if n <= lo:
                raise ValueError(
                    f"partition boundaries not increasing at block {j}")
        end = n if length is None else min(n, length)  # no modes past a table
        top = end if bound is None else min(end, bound)
        if top > buffer.size:  # a rule source: grow geometrically
            size = max(top, 2 * buffer.size)
            grown = np.empty(size if bound is None else min(size, bound))
            grown[:start - 1] = buffer[:start - 1]
            buffer = grown
        binned = end - start + 1 >= _FSUM_BELOW
        finite = True
        if sparse is not None:  # the block's nonzeros are k..stop - 1
            k = bisect_left(where, start)
            stop = bisect_right(where, top, k)
            products = []
        if end > -(-start // _CHUNK) * _CHUNK:  # past the chunk of start
            spans = _chunks(start, end)
        else:
            spans = [range(start, end + 1)] if start <= end else []
        bins = _new_bins() if binned and sparse is None else None
        for span in spans:
            if length is None and span.start <= _CHUNK:
                lam = spectrum._checked_head(span.stop - 1)[
                    span.start - 1:span.stop - 1]
            else:
                lam = spectrum.values(span)
                if length is None:
                    spectrum.check_run(lam, previous)
            previous = lam[-1]
            if sparse is not None:  # the span's nonzeros are the next ones
                finite = finite and lam.item(0) < math.inf
                while k < stop and where[k] < span.stop:
                    i = where[k]
                    products.append(lam.item(i - span.start) * entries[k])
                    buffer[i - 1] = products[-1]
                    k += 1
                continue
            if span.stop - 1 <= top:  # inside the support
                piece = buffer[span.start - 1:span.stop - 1]
                _products(lam, f.coefficients(span), piece)
            else:  # the span runs past the support, where products are lam * 0
                inside = range(span.start, max(top + 1, span.start))
                # an infinite lam makes that NaN, never a zero product
                finite = finite and lam[len(inside)] < math.inf
                if not inside:
                    continue
                piece = buffer[span.start - 1:top]
                _products(lam[:len(inside)], f.coefficients(inside), piece)
            if bins is not None:
                _bin_squares(piece, bins)
        if sparse is not None:
            total = _square_sum(np.array(products)) if binned else None
            norm = (_list_norm(products) if total is None
                    else math.sqrt(_rounded(total)))
        else:
            total = None if bins is None else _exact_sum(bins)
            norm = (exact_norm(buffer[start - 1:top]) if bins is None
                    else math.sqrt(_rounded(total)))
        if not (finite and math.isfinite(norm)):
            raise ValueError(
                f"non-finite norm over indices {start}..{end}: "
                "a solution coefficient is not finite or its square overflows")
        yield end, buffer[:top], total, norm
        start = end + 1


def block_tails(problem: Problem, f: CoefficientSource, values: np.ndarray,
                ends: Sequence[int], totals: Sequence) -> list:
    """``tail_norms`` at the ends of consecutive blocks, bit for bit.

    ``ends`` and ``totals`` are what ``read_blocks`` yielded for the
    blocks and ``values`` the products at 1..ends[-1], binned where a
    total is None; only the support past ends[-1] is read, once.
    """
    sums = [_square_sum(values[lo:hi]) if total is None else total
            for lo, hi, total in zip(ends, ends[1:], totals[1:])]
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
    if f.support_bound is None:
        raise SupportBoundRequired(
            "exact tail norms need a finite support bound")
    length = problem.spectrum.enumerated_length
    return f.support_bound if length is None else min(f.support_bound, length)


def _product_sum(problem: Problem, f: CoefficientSource, lo: int, hi: int):
    """The ``_exact_sum`` of the (lam_i * fhat_i)**2, i = lo..hi."""
    bins = _new_bins()
    for span in _chunks(lo, hi):
        _bin_squares(problem.spectrum.values(span) * f.coefficients(span),
                     bins)
    return _exact_sum(bins)


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
    previous = math.inf
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
            lam = problem.spectrum.values(span)
            problem.spectrum.check_run(lam, previous)
            previous = lam[-1]
            with _past_range(f"the coefficients of block {j} overflow: "
                             "its norm over lam is past the float range"):
                weights[span.start - lo:span.stop - lo] /= lam
    head_len = problem.partition.boundary(0)
    if head and head_len > 0:
        with _past_range("non-finite head: scale * N(0, 1) is past the "
                         "float range"):
            padded[:head_len] = scale * rng.standard_normal(head_len)
    return CoefficientSource.from_padded(padded)
