"""A sparse source reads with the bits of its dense twin.

``CoefficientSource.from_sparse`` keeps only its nonzeros, and
``spectrum.products`` forms lam_i * fhat_i only at them, so
``read_blocks``, ``cone_membership``, ``norm``, ``interpolate``, the
tails and ``solution_separation`` cost only those.  The oracle is the
dense twin, ``CoefficientSource.from_vector(src.dense(n))``, which goes
through the dense path of every routine: both must give the same bits, or
raise the same exception with the same message.  Only the products and
block totals differ in form.  A sparse source's products are those at
its nonzeros alone, which scattered into zeros must give the bytes of the
twin's dense prefix; a block of fewer than 2**9 products, counted at its
nonzeros, yields no total, and ``block_tails`` sums its squares from the
walk's values when a tail needs them.
"""

import math
import os
import resource
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import adaptlin
from adaptlin import (CoefficientSource, ConeParams, FoolingPair, Partition,
                      Problem, SingularSpectrum, adaptive_algorithm,
                      adaptive_sweep, ball_algorithm, cone_membership,
                      derivative_problem, enumerate_derivative_spectrum,
                      evaluate_solution, interpolate,
                      periodic_approximation_spectrum, solution_separation,
                      solution_slice_grid, tail_norms)
from adaptlin.spectrum import exact_norm, read_blocks

from conftest import CountedHarmonic

CONE = ConeParams(2.0, 0.5)

# zeros of both signs, subnormals, squares that underflow or overflow, NaN
# and inf, besides any finite float
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -1e-200, 1e160, -1e200,
           1.7e308, math.nan, math.inf]
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e6, 1e6),
                    st.floats(allow_nan=False, allow_infinity=False))


def spectrum_of(family, scale, shape):
    """A fresh spectrum, so no watermark is shared between two reads."""
    if family == "algebraic":
        return SingularSpectrum.algebraic(scale, shape)
    if family == "geometric":
        return SingularSpectrum.geometric(scale, 1.0 + shape / 1000.0)
    if family == "periodic":
        return periodic_approximation_spectrum(shape)
    if family == "rising past the head":  # a fault at the first chunk's end
        return SingularSpectrum.from_rule(
            lambda i: np.where(i <= 2.0 ** 14, scale / i, scale))
    if family == "two faults":  # a rise at 140 and a zero at 160
        return SingularSpectrum.from_rule(
            lambda i: np.where(i == 140.0, 2.0 * scale,
                               np.where(i == 160.0, 0.0, scale / i)))
    # a table of algebraic weights, which clips the blocks at its length
    return SingularSpectrum.from_values(
        scale / np.arange(1.0, int(shape * 20000) + 2))


@st.composite
def cases(draw):
    """(spectrum args, partition, last block, support, indices, values):
    supports up to 40000, so blocks lie on both sides of 2**9 entries, of
    the checked head's 2**14 and of the support."""
    family = draw(st.sampled_from(
        ["algebraic", "geometric", "periodic", "table",
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


def scattered(f, values, n):
    """The bytes of ``values``, the products of ``f`` through n; a sparse
    source's, one at each nonzero through min(n, support), are scattered
    into zeros first, so they compare with the dense twin's prefix."""
    if f.nonzeros is not None:
        top = min(n, f.support_bound)
        places = f.nonzeros[0]
        assert values.size == np.searchsorted(places, top, "right")
        dense = np.zeros(top)
        dense[places[:values.size] - 1] = values
        values = dense
    return values.tobytes()


def yields(problem, f, last):
    """Each block's (end, values bytes, norm) bits, read as yielded, then
    the exception that ended the walk, if any.  A block of 2**9 products or
    more, a sparse one's counted at its nonzeros alone, has an exact int
    total, and any other block none."""
    got, count = [], 0
    try:
        for end, values, total, norm in read_blocks(problem, f, last):
            assert (total is None) == (values.size - count < 2 ** 9)
            assert total is None or isinstance(total, int)
            count = values.size
            got.append((end, scattered(f, values, end), bits(norm)))
    except (ValueError, LookupError) as exc:
        got.append((type(exc), str(exc)))
    return got


def true_errors(problem, f, last):
    """The bits of each tolerance's ``true_error`` from a sweep of at most
    ``last`` blocks, where ``block_tails`` sums a sparse source's blocks
    from its walk's values."""
    walk = adaptive_sweep(problem, f, [1e300, 1.0, 1e-300], block_limit=last)
    return [bits(error) for error in walk.true_errors()]


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
# a rise of lam where a block starts just past the checked head
@example(case=(("rising past the head", 1.0, 1.0), Partition.doubling(1), 15,
               20000, [3, 16384], [1.0, 1.0]), shift=1.0)
# the separation's one nonzero just past the fault of lam
@example(case=(("rising past the head", 1.0, 1.0), Partition.doubling(1), 15,
               16385, [16385], [0.0]), shift=1.0)
# a nonzero at the start of each block 1..13 of (4, 8, 16, ...), blocks of
# 2**9 entries and more among them: the tolerance 1e-300 settles at block
# 14, past the support, so the tails sum a sparse walk's blocks again
@example(case=(("algebraic", 1.0, 1.0), Partition.doubling(4), 15, 20000,
               [2 ** k + 1 for k in range(2, 15)],
               [(-1.5) ** -k for k in range(2, 15)]), shift=1.0)
# a rise before a zero in block 129..256: the sparse walk checks lam up to
# its nonzero at 150, then through the block's end, and names the rise as
# the dense one does
@example(case=(("two faults", 1.0, 1.0), Partition.doubling(1), 9, 300,
               [150], [1.0]), shift=1.0)
# a table shorter than the support, which clips the blocks
@example(case=(("table", 1.0, 0.5), Partition.doubling(1), 15, 30000,
               [3, 9000, 12000], [1.0, 2.0, 3.0]), shift=1.0)
# nonzeros at 600..1799, so blocks 513..1024 and 1025..2048 hold 425 and
# 775 of them: the second has an int total, summed by the tails as is
@example(case=(("algebraic", 1.0, 1.0), Partition.doubling(1), 12, 2000,
               list(range(600, 1800)),
               [(-1.0) ** k / k for k in range(600, 1800)]), shift=1.0)
def test_a_sparse_source_reads_with_the_bits_of_its_dense_twin(case, shift):
    last = case[2]
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert yields(problem, sparse, last) == yields(twin_problem, dense, last)
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert outcome(lambda: true_errors(problem, sparse, last)) \
        == outcome(lambda: true_errors(twin_problem, dense, last))
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert outcome(lambda: membership(problem, sparse)) \
        == outcome(lambda: membership(twin_problem, dense))
    assert bits(sparse.norm()) == bits(dense.norm())
    # the separation reads lam only at the bump's nonzeros, and checks it
    # through the last of them, so a fault there is its error
    places = sparse.nonzeros[0]
    if places.size:
        pair = separation_pair(sparse, shift)
        expected = quietly(
            lambda: outcome(lambda: bits(dense_separation(problem, pair))))
        fault = outcome(lambda: spectrum_of(*case[0]).checked(
            range(1, int(places[-1]) + 1)))
        if isinstance(fault, tuple) and fault[0] is ValueError:
            assert outcome(lambda: solution_separation(problem, pair)) \
                == fault
        elif not isinstance(expected, tuple):  # a table shorter than the bump
            assert bits(solution_separation(problem, pair)) == expected
    # interpolate and the tails at a cut inside the support and one past it
    cuts = [(case[3] + 1) // 2, case[3] + 5]
    for n in cuts:
        (problem, sparse), (twin_problem, dense) = twins(case)
        assert outcome(lambda: scattered(
            sparse, interpolate(problem, sparse, n).values, n)) \
            == outcome(lambda: scattered(
                dense, interpolate(twin_problem, dense, n).values, n))
    (problem, sparse), (twin_problem, dense) = twins(case)
    assert outcome(lambda: list(map(bits, tail_norms(problem, sparse, cuts)))) \
        == outcome(lambda: list(map(bits, tail_norms(twin_problem, dense,
                                                     cuts))))


def test_an_infinite_lam_is_refused_before_either_twin_reads_it():
    # lam_i = inf up to i = 10: lam is the spectrum of a bounded operator,
    # so Problem's prefix check refuses it for the sparse source and its
    # dense twin alike, as the table constructor and ``checked`` do
    def infinite_head(i):
        return np.where(i <= 10.0, np.inf, 1.0 / i)

    sparse = CoefficientSource.from_sparse([100], [1.0], 200)
    dense = CoefficientSource.from_vector(sparse.dense(200))
    for source in (sparse, dense):
        with pytest.raises(ValueError,
                           match="rule: singular values must be finite"):
            tail_norms(Problem(SingularSpectrum.from_rule(infinite_head),
                               Partition.doubling(1), CONE), source, [0, 50])
    with pytest.raises(ValueError,
                       match="enumerated: singular values must be finite"):
        SingularSpectrum.from_values([math.inf, 1.0])
    with pytest.raises(ValueError, match="rule: singular values must be finite"):
        SingularSpectrum.from_rule(
            lambda i: np.where(i == 1.0, np.inf, 1.0 / i)).checked(range(1, 3))


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
    ([], [], None),  # and a support bound,
    ([], [], -1),  # a non-negative
    ([2], [1.0], 4.0),  # int
])
def test_a_sparse_source_rejects_a_malformed_index_list(indices, values,
                                                        support):
    with pytest.raises(ValueError, match="strictly increasing"):
        CoefficientSource.from_sparse(indices, values, support)


def test_a_deep_sparse_walk_writes_only_its_nonzeros():
    # a walk over 2**20 indices stores its 21 products, not 2**20 of them;
    # a walk over checked lam reads it only where it forms a product
    for depth in (17, 20):
        spectrum = CountedHarmonic()
        problem = Problem(spectrum, Partition.doubling(1), CONE)
        places = [2 ** k for k in range(depth + 1)]
        f = CoefficientSource.from_sparse(places, [1.0] * (depth + 1),
                                          2 ** depth)
        for walk in range(2):
            reads = len(spectrum.reads)
            *_, (end, values, total, norm) = read_blocks(problem, f, depth)
            assert end == 2 ** depth
            assert values.tolist() == [1.0 / p for p in places]
            assert norm == 2.0 ** -depth
            assert total is None  # its one square is summed only for a tail
            if walk == 0:  # the first walk evaluates and checks each lam once
                for indices in (spectrum.reads, spectrum.checks):
                    counts = spectrum.counts(indices)
                    assert counts.size == 2 ** depth + 1
                    assert (counts[1:] == 1).all()
            else:  # the second evaluates lam at its nonzeros past the head
                read = np.concatenate(spectrum.reads[reads:]).tolist()
                assert read == [p for p in places if p > 2 ** 14]


def test_a_sparse_walk_over_2_28_indices_fits_a_small_address_space():
    # one nonzero at each 2**k up to a support of 2**28: the walk keeps its
    # 29 products, where a dense prefix of them would take 2 GiB, past the
    # 1.5 GB address space of the child that walks it
    script = textwrap.dedent("""
        from adaptlin import (CoefficientSource, ConeParams, Partition,
                              Problem, SingularSpectrum)
        from adaptlin.spectrum import read_blocks
        problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                          Partition.doubling(1), ConeParams(2.0, 0.5))
        places = [2 ** k for k in range(29)]
        f = CoefficientSource.from_sparse(places, [1.0] * 29, 2 ** 28)
        *_, (end, values, total, norm) = read_blocks(problem, f, 28)
        print(end, values.tolist() == [1.0 / p for p in places],
              norm == 2.0 ** -28)
        """)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

    src = str(Path(adaptlin.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=cap)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(2 ** 28), "True", "True"]


def test_a_sparse_interpolation_and_its_tails_cost_only_its_nonzeros(
        monkeypatch):
    # 25 nonzeros at 2**k over a 2**24 support: interpolate keeps their 25
    # products, in the format of an adaptive run, and neither it nor the
    # walk's tails read a coefficient through ``coefficients``
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), CONE)
    places = [2 ** k for k in range(25)]
    f = CoefficientSource.from_sparse(places, [0.5 ** k for k in range(25)],
                                      2 ** 24)

    def refuse(self, indices):
        raise AssertionError(f"a dense read of {indices}")

    monkeypatch.setattr(CoefficientSource, "coefficients", refuse)
    approx = interpolate(problem, f, 2 ** 24)
    assert approx.values.tolist() == [0.25 ** k for k in range(25)]
    walk = adaptive_sweep(problem, f, [1e-2])
    end = walk.ends[walk.stops[0]]
    assert walk.true_errors() == [math.sqrt(math.fsum(
        0.0625 ** k for k in range(25) if 2 ** k > end))]


@pytest.mark.parametrize("solve", [
    lambda problem, f, n: interpolate(problem, f, n),
    lambda problem, f, n: ball_algorithm(problem, f, 1e-2, 1.0),
    lambda problem, f, n: adaptive_algorithm(problem, f, 1e-3)],
    ids=["interpolate", "ball", "adaptive"])
def test_a_sparse_run_evaluates_as_its_dense_twin(solve):
    # a sparse run holds its products at its places alone; the evaluators
    # read them there, so its derivative is the dense twin's run's
    mis = enumerate_derivative_spectrum(3, 6)
    problem = derivative_problem(mis)
    sparse = CoefficientSource.from_sparse([2, 40, 300], [1.0, -0.5, 0.25],
                                           len(mis))
    dense = CoefficientSource.from_vector(sparse.dense(len(mis)))
    run, twin = (solve(problem, f, len(mis)) for f in (sparse, dense))
    assert run.places.tolist() == [2, 40, 300][:run.values.size]
    assert twin.places is None and run.cost == twin.cost
    for x in ([0.1, 0.2, 0.3], [0.7, 0.05, 0.9]):
        assert evaluate_solution(run, mis, x) == pytest.approx(
            evaluate_solution(twin, mis, x), rel=1e-13, abs=1e-13)
    axis = np.array([0.1, 0.35, 0.8])
    np.testing.assert_array_equal(
        solution_slice_grid(run, mis, axis, axis, rest=0.3),
        solution_slice_grid(twin, mis, axis, axis, rest=0.3))
