"""A sparse source reads with the bits of its dense twin.

``CoefficientSource.from_sparse`` keeps only its nonzeros, and
``read_blocks``, ``cone_membership``, ``norm`` and ``solution_separation``
cost only those.  The oracle is the dense twin,
``CoefficientSource.from_vector(src.dense(n))``, which goes through the
dense path of every routine: both must give the same bits, or raise the
same exception with the same message.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adaptlin import (CoefficientSource, ConeParams, FoolingPair, Partition,
                      Problem, SingularSpectrum, cone_membership,
                      periodic_approximation_spectrum, solution_separation)
from adaptlin.spectrum import exact_norm, read_blocks

CONE = ConeParams(2.0, 0.5)

# zeros of both signs, subnormals, squares that underflow or overflow, NaN
# and inf, besides any finite float
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -1e-200, 1e160, -1e200,
           1.7e308, math.nan, math.inf]
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6),
                    st.floats(allow_nan=False, allow_infinity=False))


def spectrum_of(family, scale, shape):
    """A fresh spectrum, so no checked head is shared between two reads."""
    if family == "algebraic":
        return SingularSpectrum.algebraic(scale, shape)
    if family == "geometric":
        return SingularSpectrum.geometric(scale, 1.0 + shape / 1000.0)
    if family == "periodic":
        return periodic_approximation_spectrum(shape)
    if family == "infinite head":  # lam_i = inf up to i = 10 * shape
        return SingularSpectrum.from_rule(
            lambda i: np.where(i <= 10.0 * shape, np.inf, scale / i))
    if family == "rising past the head":  # a fault at the first chunk's end
        return SingularSpectrum.from_rule(
            lambda i: np.where(i <= 2.0 ** 14, scale / i, scale))
    # a table of algebraic weights, which clips the blocks at its length
    return SingularSpectrum.from_values(
        scale / np.arange(1.0, int(shape * 20000) + 2))


@st.composite
def cases(draw):
    """(spectrum args, partition, last block, support, indices, values):
    supports up to 40000, so blocks lie on both sides of 2**11 entries, of
    the checked head's 2**14 and of the support."""
    family = draw(st.sampled_from(
        ["algebraic", "geometric", "periodic", "table", "infinite head",
         "rising past the head"]))
    scale = draw(st.sampled_from([1.0, 1.0, 3.5, 1e-300, 1e300]))
    shape = draw(st.floats(0.25, 3.0))
    support = draw(st.one_of(st.integers(1, 3000), st.integers(14000, 40000)))
    if draw(st.booleans()):
        partition = Partition.doubling(draw(st.integers(1, 40)))
    else:
        step = draw(st.integers(max(1, support // 30), max(1, support)))
        partition = Partition.arithmetic(draw(st.integers(0, 40)), step)
    covering = 0
    while partition.boundary(covering) < support:
        covering += 1
    last = covering + draw(st.integers(-min(covering, 2), 2))
    indices = sorted(draw(st.sets(st.integers(1, support), max_size=24)))
    values = draw(st.lists(entries, min_size=len(indices),
                           max_size=len(indices)))
    return (family, scale, shape), partition, last, support, indices, values


def twins(case):
    """The sparse source, its dense twin, and a fresh problem for each."""
    spectrum_args, partition, _, support, indices, values = case
    sparse = CoefficientSource.from_sparse(indices, values, support)
    dense = CoefficientSource.from_vector(sparse.dense(support))
    return [(Problem(spectrum_of(*spectrum_args), partition, CONE), source)
            for source in (sparse, dense)]


def bits(value):
    """A float's bits, any NaN as one; an exact int or None as itself."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def outcome(read):
    """What ``read()`` returns, or the type and message it raises."""
    try:
        return read()
    except (ValueError, LookupError) as exc:
        return type(exc), str(exc)


def quietly(read):
    """``read()`` without numpy's overflow and invalid warnings, which the
    dense product of ``dense_separation`` gives where it overflows; the
    library's walks give none."""
    with np.errstate(over="ignore", invalid="ignore"):
        return read()


def yields(problem, f, last):
    """Each block's (end, values bytes, total, norm) bits, read as yielded,
    then the exception that ended the walk, if any."""
    got = []
    try:
        for end, values, total, norm in read_blocks(problem, f, last):
            got.append((end, values.tobytes(), bits(total), bits(norm)))
    except (ValueError, LookupError) as exc:
        got.append((type(exc), str(exc)))
    return got


def membership(problem, f):
    report = cone_membership(problem, f)
    return (report.member, bits(report.worst_ratio), report.witness,
            report.blocks)


def dense_separation(problem, pair):
    """2 * shift * ||lam * bump|| over every index 1..n of the bump."""
    n = pair.bump.support_bound
    image = problem.spectrum.values(range(1, n + 1)) * pair.bump.dense(n)
    return 2.0 * pair.shift * exact_norm(image)


def separation_pair(bump, shift):
    return FoolingPair(base=bump, bump=bump, plus=bump, minus=bump,
                       amplitude=1.0, shift=shift, ratio=1.0, blocks=1)


@settings(max_examples=80, deadline=None)
@given(cases(), st.floats(1e-3, 1e3))
# a nonzero in each block of a doubling partition across the head
@example(case=(("algebraic", 1.0, 1.0), Partition.doubling(1), 16, 40000,
               [2 ** k for k in range(1, 16)] + [40000],
               [1.0] * 15 + [-2.5]), shift=1.0)
# blocks of 3000 across the head and the support, with zeros of both signs
@example(case=(("periodic", 1.0, 2.0), Partition.arithmetic(5, 3000), 8,
               20000, [5, 6, 3005, 16384, 16385, 19999],
               [-0.0, 0.0, 5e-324, 1e160, -3.0, 2.0]), shift=0.5)
# a square past the float range, and a NaN past the checked head
@example(case=(("geometric", 1.0, 1.0), Partition.doubling(3), 14, 30000,
               [7, 17000], [1.7e308, math.nan]), shift=2.0)
# an infinite lam over zero coefficients only
@example(case=(("infinite head", 1.0, 0.5), Partition.doubling(1), 5, 40,
               [8, 40], [1.0, 2.0]), shift=1.0)
# an infinite lam in a block 1 that runs past the checked head (n_0 = 0)
@example(case=(("infinite head", 1.0, 2.0), Partition.arithmetic(0, 20000),
               2, 30000, [25000], [1.0]), shift=1.0)
# a rise of lam where a block starts just past the checked head
@example(case=(("rising past the head", 1.0, 1.0), Partition.doubling(1), 15,
               20000, [3, 16384], [1.0, 1.0]), shift=1.0)
# a table shorter than the support, which clips the blocks
@example(case=(("table", 1.0, 0.5), Partition.doubling(1), 15, 30000,
               [3, 9000, 12000], [1.0, 2.0, 3.0]), shift=1.0)
def test_a_sparse_source_reads_with_the_bits_of_its_dense_twin(case, shift):
    last = case[2]
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert yields(problem, sparse, last) == yields(twin_problem, dense, last)
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert outcome(lambda: membership(problem, sparse)) \
        == outcome(lambda: membership(twin_problem, dense))
    assert bits(sparse.norm()) == bits(dense.norm())
    # the separation reads lam only at the bump's nonzeros, so an infinite
    # lam elsewhere, which the dense product turns into NaN, does not enter
    if sparse.nonzeros[0].size and case[0][0] != "infinite head":
        pair = separation_pair(sparse, shift)
        expected = quietly(
            lambda: outcome(lambda: bits(dense_separation(problem, pair))))
        if not isinstance(expected, tuple):  # a table shorter than the bump
            assert bits(solution_separation(problem, pair)) == expected


def test_a_sparse_source_scatters_its_values_into_zeros():
    f = CoefficientSource.from_sparse([2, 5], [-0.0, 3.0], 6)
    assert f.size == 6 and f.support_bound == 6
    assert f.coefficients(range(1, 9)).tobytes() == np.array(
        [0.0, -0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]).tobytes()
    assert f.coefficients(range(3, 5)).tolist() == [0.0, 0.0]
    places, values = f.nonzeros
    assert places.tolist() == [2, 5] and values.tolist() == [-0.0, 3.0]
    assert not (places.flags.writeable or values.flags.writeable)
    assert CoefficientSource.from_vector([1.0]).nonzeros is None


@pytest.mark.parametrize("indices, values, support", [
    ([0, 3], [1.0, 2.0], 4),  # indices are 1-based
    ([3, 2], [1.0, 2.0], 4),  # and strictly increasing
    ([2, 2], [1.0, 2.0], 4),
    ([2, 5], [1.0, 2.0], 4),  # and within the support
    ([2, 3], [1.0], 4),  # one value each
    ([], [], None),  # and a support bound
])
def test_a_sparse_source_rejects_a_malformed_index_list(indices, values,
                                                        support):
    with pytest.raises(ValueError, match="strictly increasing"):
        CoefficientSource.from_sparse(indices, values, support)


def test_a_deep_sparse_walk_writes_only_its_nonzeros():
    # a walk over 2**20 indices reserves 8 MiB of products, past the size
    # from which the buffer is a fresh mapping, and writes 21 of them
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), CONE)
    places = [2 ** k for k in range(21)]
    f = CoefficientSource.from_sparse(places, [1.0] * 21, 2 ** 20)
    *_, (end, values, total, norm) = read_blocks(problem, f, 20)
    assert end == values.size == 2 ** 20 and norm == 2.0 ** -20
    assert total == 2 ** (1074 - 40)  # (2**-20)**2, times 2**1074
    assert np.flatnonzero(values).tolist() == [p - 1 for p in places]
