"""Worked problem instances.

Two families are built out here.  The first approximates periodic functions
of one variable with algebraic smoothness r, where the optimal fixed budget
has a closed form that the scanning solver can be checked against.  The
second differentiates a periodic function of d variables with respect to
the first coordinate: its singular basis is indexed by integer wave vectors,
so the spectrum is enumerated by sorting the per-mode weights, and random
trial inputs draw independent Gaussian coefficients on a box of modes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .algorithm import Approximation
from .spectrum import (CoefficientSource, ConeParams, Partition, Problem,
                       SingularSpectrum)

TWO_PI = 2.0 * math.pi
DEFAULT_ENUMERATION_CAP = 10 ** 8


# -- periodic approximation with algebraic smoothness -----------------------

def periodic_approximation_spectrum(r: float) -> SingularSpectrum:
    """Singular values 1 / max(1, floor(i/2))**r.

    The first three weights equal one (the constant mode plus the first
    sine/cosine pair); afterwards the paired modes decay algebraically with
    the smoothness r > 0.
    """
    if r <= 0:
        raise ValueError("smoothness r must be positive")

    def rule(i):
        return 1.0 / np.maximum(1.0, np.floor(i / 2.0)) ** r

    return SingularSpectrum.from_rule(rule, name=f"periodic(r={r})")


def periodic_approximation_cost(r: float, epsilon: float, rho: float) -> int:
    """Closed-form optimal fixed budget: 2 * ceil((rho/epsilon)**(1/r)) - 1.

    The formula bottoms out at 1 once epsilon reaches rho, where a direct
    scan would keep nothing at all; comparisons against scanned costs are
    only meaningful for epsilon < rho.
    """
    if r <= 0:
        raise ValueError("smoothness r must be positive")
    if epsilon <= 0 or rho <= 0:
        raise ValueError("tolerance and radius must be positive")
    return 2 * math.ceil((rho / epsilon) ** (1.0 / r)) - 1


# -- partial differentiation of periodic functions of d variables ------------

def default_gamma(d: int) -> np.ndarray:
    """Coordinate weights (1, 1/2, 1/4, ...): later axes matter less."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return 2.0 ** (-np.arange(d, dtype=np.float64))


def derivative_weights(ks: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-mode singular value of differentiation in the first coordinate.

    For wave vector k the weight is

        2*pi*|k_1| * prod_j 2**((1 - [k_j == 0]) / 2)
                   / prod_j max(1, gamma_j * |k_j|)**4.

    The damping uses |k_j|; with signed k_j every negative mode would keep
    weight one forever and the weights could not tend to zero.
    """
    ks = np.atleast_2d(np.asarray(ks, dtype=np.int64))
    absk = np.abs(ks).astype(np.float64)
    pairs = np.prod(2.0 ** (0.5 * (ks != 0)), axis=1)
    damping = np.prod(np.maximum(1.0, gamma * absk) ** 4, axis=1)
    return TWO_PI * absk[:, 0] * pairs / damping


class MultiIndexSpectrum:
    """Enumerated spectrum of the differentiation operator.

    Modes with k_1 = 0 are annihilated and excluded.  The remaining modes
    are sorted by decreasing weight; exact ties are broken by the
    lexicographic key (|k_1|, sign k_1, |k_2|, sign k_2, ...) with positive
    sign first, so the enumeration is a reproducible permutation of the box.
    Each mode is stored as its C-order position in the box
    {-k_max..k_max}**d; wave vectors are decoded from the positions when
    read.
    """

    def __init__(self, dimension: int, k_max: int, gamma: np.ndarray,
                 positions: np.ndarray, weights: np.ndarray):
        self.dimension = dimension
        self.k_max = k_max
        self.gamma = gamma
        self.positions = positions   # (N,) int64 box positions, sorted
        self.positions.flags.writeable = False
        self._spectrum = SingularSpectrum.from_values(
            weights, name=f"derivative(d={dimension}, k_max={k_max})")
        # (N,) matching singular values: the spectrum's read-only table
        self.weights = self._spectrum.checked(range(1, weights.size + 1))

    def __len__(self):
        return int(self.weights.size)

    def spectrum(self) -> SingularSpectrum:
        return self._spectrum

    def _decode(self, positions: np.ndarray) -> np.ndarray:
        """Wave vectors at box ``positions``, one per row."""
        box = (2 * self.k_max + 1,) * self.dimension
        return np.stack(np.unravel_index(positions, box), axis=-1) - self.k_max

    @property
    def indices(self) -> np.ndarray:
        """(N, d) int64 wave vectors in enumeration order, decoded anew."""
        return self._decode(self.positions)


def _axis_grid(j: int, d: int, values: np.ndarray) -> np.ndarray:
    """``values`` laid along axis j of a d-axis broadcast."""
    return values.reshape((-1,) + (1,) * (d - 1 - j))


def _box_positions(axes: Sequence[np.ndarray], k_max: int) -> np.ndarray:
    """C-order position in the box {-k_max..k_max}**d of each mode of the
    grid whose axis j runs over the wave numbers ``axes[j]``, flattened in
    the grid's own C order."""
    d, side = len(axes), 2 * k_max + 1
    positions = 0
    for j, a in enumerate(axes):
        positions = positions + _axis_grid(j, d,
                                           (a + k_max) * side ** (d - 1 - j))
    return positions.ravel()


def enumerate_derivative_spectrum(d: int, k_max: int,
                                  gamma: Optional[np.ndarray] = None, *,
                                  cap: int = DEFAULT_ENUMERATION_CAP) -> MultiIndexSpectrum:
    """Enumerate and sort all modes of the box {-k_max..k_max}**d with k_1 != 0."""
    if d < 1 or k_max < 1:
        raise ValueError("need d >= 1 and k_max >= 1")
    gamma = default_gamma(d) if gamma is None else np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (d,) or np.any(gamma <= 0):
        raise ValueError("gamma must hold d positive weights")
    total = (2 * k_max + 1) ** d
    if total > cap:
        raise ValueError(f"enumeration of {total} modes exceeds the cap {cap}")
    # The weights depend on |k| only: compute them once on the orthant, from
    # per-axis factors multiplied in the order of derivative_weights, and
    # rank the distinct values, largest first.
    mags = np.arange(k_max + 1, dtype=np.int64)
    absk = [mags[1:]] + [mags] * (d - 1)
    pairs = damping = 1.0
    for j, m in enumerate(absk):
        pairs = pairs * _axis_grid(j, d, 2.0 ** (0.5 * (m != 0)))
        damping = damping * _axis_grid(
            j, d, np.maximum(1.0, gamma[j] * m.astype(np.float64)) ** 4)
    lam = TWO_PI * _axis_grid(0, d, absk[0].astype(np.float64)) * pairs / damping
    neg_lam, rank = np.unique(-lam, return_inverse=True)
    rank = rank.reshape(lam.shape)
    # Lay each axis out in tie order, 1, -1, 2, -2, ... (with 0 first past
    # the first axis), so that the C order of the box is the tie-break
    # order and one stable sort by rank finishes the enumeration.
    signed = np.stack([mags, -mags], axis=1).ravel()[1:]
    axes = [signed[1:]] + [signed] * (d - 1)
    # ranks of at most 16 bits sort stably by radix
    ranks = rank.astype(np.min_scalar_type(neg_lam.size - 1))
    for j, a in enumerate(axes):  # the orthant's first axis starts at 1
        ranks = ranks.take(np.abs(a) - (1 if j == 0 else 0), axis=j)
    ranks = ranks.ravel()
    order = np.argsort(ranks, kind="stable")
    positions = _box_positions(axes, k_max)[order]
    weights = -neg_lam[ranks[order]]
    return MultiIndexSpectrum(dimension=d, k_max=k_max, gamma=gamma,
                              positions=positions, weights=weights)


class RandomPeriodicInput:
    """Independent standard normal coefficients on the mode box.

    The box spans {-k_max..k_max}**d; the coefficient of wave vector k sits
    at array position k + k_max along each axis.  All draws come from one
    ``standard_normal`` call on a fresh ``numpy.random.default_rng(seed)``
    (PCG64), filling the box in C order, so a seed pins every coefficient.
    """

    generator = "numpy-PCG64"

    def __init__(self, dimension: int, k_max: int, seed: int):
        if dimension < 1 or k_max < 1:
            raise ValueError("need dimension >= 1 and k_max >= 1")
        self.dimension = dimension
        self.k_max = k_max
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.box = rng.standard_normal((2 * k_max + 1,) * dimension)


def random_periodic_input(d: int, k_max: int, seed: int) -> RandomPeriodicInput:
    return RandomPeriodicInput(d, k_max, seed)


def derivative_coefficients(mis: MultiIndexSpectrum,
                            inp: RandomPeriodicInput) -> CoefficientSource:
    """Input coefficients in enumeration order, with a tight support bound.

    Position i holds the coefficient of the i-th enumerated mode; modes
    outside the input's box contribute zero.  The support bound is the last
    position whose mode lies inside the box.
    """
    if inp.dimension != mis.dimension:
        raise ValueError("dimension mismatch between spectrum and input")
    if inp.k_max >= mis.k_max:  # the box covers every enumerated mode
        # its centre is the enumeration's box: gather at the positions
        o = inp.k_max - mis.k_max
        centre = inp.box[(slice(o, o + 2 * mis.k_max + 1),) * mis.dimension]
        padded = np.empty(mis.positions.size + 1)
        padded[-1] = 0.0
        # positions lie in the box, so "clip" never clips; it lets take
        # write into ``padded`` without an intermediate copy
        np.take(centre.ravel(), mis.positions, out=padded[:-1], mode="clip")
        return CoefficientSource.from_padded(padded)
    ks = mis.indices
    inside = np.all(np.abs(ks) <= inp.k_max, axis=1)
    hits = np.nonzero(inside)[0]
    if hits.size == 0:
        return CoefficientSource.zero()
    support = int(hits[-1]) + 1
    values = np.zeros(support)
    rows = ks[hits] + inp.k_max
    values[hits] = inp.box[tuple(rows.T)]
    return CoefficientSource.from_vector(values)


def _input_axis_factor(k_max: int, gamma_j: float, x_j) -> np.ndarray:
    """Axis factor of the input basis over k = -k_max..k_max, along a new
    last axis: shape x_j.shape + (2 k_max + 1,) for a scalar or an array."""
    k = np.arange(-k_max, k_max + 1, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)[..., None]
    phase = np.where(k < 0, 0.5 * math.pi, 0.0)
    return (2.0 ** (0.5 * (k != 0)) * np.cos(TWO_PI * k * x_j + phase)
            / np.maximum(1.0, gamma_j * np.abs(k)) ** 4)


def _derivative_axis_factor(k_max: int, gamma_j: float, x_j) -> np.ndarray:
    """First-coordinate axis factor differentiated in x_j, shaped as
    ``_input_axis_factor``."""
    k = np.arange(-k_max, k_max + 1, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)[..., None]
    phase = np.where(k < 0, 0.5 * math.pi, 0.0)
    return (2.0 ** (0.5 * (k != 0)) * (-TWO_PI * k) * np.sin(TWO_PI * k * x_j + phase)
            / np.maximum(1.0, gamma_j * np.abs(k)) ** 4)


def evaluate_input(inp: RandomPeriodicInput, gamma: np.ndarray, x: Sequence[float]) -> float:
    """Value of the input function at a point of the unit cube.

    Sums coefficient times basis value over the whole mode box; the basis
    separates per axis, so the sum is a sequence of tensor contractions.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inp.dimension,):
        raise ValueError("point dimension mismatch")
    running = inp.box
    for j in range(inp.dimension):
        factor = _input_axis_factor(inp.k_max, float(gamma[j]), float(x[j]))
        running = np.tensordot(running, factor, axes=([0], [0]))
    return float(running)


def _positions(approx: Approximation, mis: MultiIndexSpectrum) -> np.ndarray:
    """Box positions of the modes of ``approx.values``."""
    if approx.places is None:  # a prefix
        return mis.positions[:approx.values.size]
    return mis.positions[approx.places - 1]


def evaluate_solution(approx: Approximation, mis: MultiIndexSpectrum,
                      x: Sequence[float]) -> float:
    """Value of an approximate derivative at a point of the unit cube.

    Sums the retained solution coefficients against the output basis

        -sign(k_1) sin(2 pi k_1 x_1 + phase(k_1))
            * prod_{j >= 2} cos(2 pi k_j x_j + phase(k_j)),

    where phase(k) is pi/2 for negative k and zero otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (mis.dimension,):
        raise ValueError("point dimension mismatch")
    if approx.values.size == 0:
        return 0.0
    ks = mis._decode(_positions(approx, mis))
    k1 = ks[:, 0].astype(np.float64)
    phase = np.where(k1 < 0, 0.5 * math.pi, 0.0)
    basis = -np.sign(k1) * np.sin(TWO_PI * k1 * x[0] + phase)
    for j in range(1, mis.dimension):
        kj = ks[:, j].astype(np.float64)
        phase = np.where(kj < 0, 0.5 * math.pi, 0.0)
        basis *= np.cos(TWO_PI * kj * x[j] + phase)
    return float(np.dot(approx.values, basis))


def _exact_slice_grid(inp: RandomPeriodicInput, gamma: np.ndarray,
                      first_factor, first: np.ndarray, second: np.ndarray,
                      rest: float) -> np.ndarray:
    """Contract the input box on a grid over the first two coordinates.

    Coordinates from the third on are pinned at ``rest``; ``first_factor``
    gives the first axis's factor, the second axis takes the input's own.
    """
    if inp.dimension < 2:
        raise ValueError("slice grids need at least two coordinates")
    running = inp.box
    for j in range(2, inp.dimension):
        factor = _input_axis_factor(inp.k_max, float(gamma[j]), rest)
        running = np.tensordot(running, factor, axes=([2], [0]))
    rows = first_factor(inp.k_max, float(gamma[0]), first)
    cols = _input_axis_factor(inp.k_max, float(gamma[1]), second)
    return rows @ running @ cols.T


def input_slice_grid(inp: RandomPeriodicInput, gamma: np.ndarray,
                     first: np.ndarray, second: np.ndarray,
                     rest: float = 0.0) -> np.ndarray:
    """Input values on a grid over the first two coordinates.

    Remaining coordinates are pinned at ``rest``.  Returns an array of shape
    (len(first), len(second)).
    """
    return _exact_slice_grid(inp, gamma, _input_axis_factor, first, second,
                             rest)


def derivative_slice_grid(inp: RandomPeriodicInput, gamma: np.ndarray,
                          first: np.ndarray, second: np.ndarray,
                          rest: float = 0.0) -> np.ndarray:
    """Exact first-coordinate derivative of the input on the same grid."""
    return _exact_slice_grid(inp, gamma, _derivative_axis_factor, first,
                             second, rest)


def solution_slice_grid(approx: Approximation, mis: MultiIndexSpectrum,
                        first: np.ndarray, second: np.ndarray,
                        rest: float = 0.0) -> np.ndarray:
    """Approximate derivative values on a grid over the first two coordinates.

    The sine factor of a term depends on it only through k_1 and the cosine
    factor only through k_2, so the terms (with the cosines of the pinned
    coordinates folded in) are first summed per (k_1, k_2) cell.  The grid
    is then S W C^T for the (2 k_max + 1)-square cell table W, contracted
    with ``einsum`` rather than BLAS so that its bits do not depend on the
    machine or the thread count.
    """
    if mis.dimension < 2:
        raise ValueError("slice grids need at least two coordinates")
    if approx.values.size == 0:
        return np.zeros((len(first), len(second)))
    d, side = mis.dimension, 2 * mis.k_max + 1
    # C-order box positions: k_j + k_max is digit d-1-j in base ``side``
    positions = _positions(approx, mis)
    term = approx.values.copy()
    for j in range(2, d):
        kj = (positions // side ** (d - 1 - j) % side
              - mis.k_max).astype(np.float64)
        phase = np.where(kj < 0, 0.5 * math.pi, 0.0)
        term *= np.cos(TWO_PI * kj * rest + phase)
    cell = positions // side ** (d - 2)  # (k_1 + k_max) * side + k_2 + k_max
    cells = np.zeros((side, side))  # the terms add in one by one, in order
    np.add.at(cells.ravel(), cell, term)
    k = np.arange(-mis.k_max, mis.k_max + 1, dtype=np.float64)
    phase = np.where(k < 0, 0.5 * math.pi, 0.0)
    sin_rows = -np.sign(k) * np.sin(TWO_PI * np.outer(first, k) + phase)
    cos_cols = np.cos(TWO_PI * np.outer(second, k) + phase)
    return np.einsum("al,bl->ab", np.einsum("ak,kl->al", sin_rows, cells),
                     cos_cols)


def derivative_problem(mis: MultiIndexSpectrum,
                       partition: Optional[Partition] = None,
                       cone: Optional[ConeParams] = None) -> Problem:
    """Bundle the enumerated derivative spectrum into a solvable problem."""
    return Problem(spectrum=mis.spectrum(),
                   partition=partition or Partition.zero_then_doubling(16),
                   cone=cone or ConeParams(2.0, 0.5))
