"""Problem primitives: spectra, partitions, cones, block norms, membership."""

import math

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, FoolingPair,
                      GuardExceeded, OutOfRangeError, Partition, Problem,
                      SingularSpectrum, block_norm, cone_membership,
                      enumerate_derivative_spectrum,
                      interpolate, periodic_approximation_spectrum,
                      random_cone_member, solution_separation, tail_norm,
                      tail_norms)
from adaptlin import cli
from adaptlin import spectrum as spectrum_module
from adaptlin.spectrum import exact_norm, read_blocks

from conftest import (CountedHarmonic, brute_sigma, brute_tail,
                      coefficient_of, unit_spectrum)


# -- SingularSpectrum --------------------------------------------------------

def test_algebraic_values():
    spec = SingularSpectrum.algebraic(1.0, 2.0)
    assert spec.value(1) == 1.0
    assert spec.value(10) == pytest.approx(0.01)
    assert np.allclose(spec.values(range(1, 5)), [1.0, 0.25, 1.0 / 9.0, 0.0625])


def test_harmonic_value_has_the_bits_of_the_power_formula():
    # power 1 divides without the power, which changes no bit; ranges are
    # checked with the other families below
    spec = SingularSpectrum.algebraic(3.7, 1.0)
    for i in (1, 3, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 10 ** 9 + 7, 2 ** 53):
        assert spec.value(i) == float(3.7 / np.float64(i) ** 1.0)


def test_algebraic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SingularSpectrum.algebraic(0.0, 1.0)
    with pytest.raises(ValueError):
        SingularSpectrum.algebraic(1.0, -2.0)


def test_geometric_values():
    spec = SingularSpectrum.geometric(2.0, 2.0)
    # lam_i = 2 / 2**i = 2**(1 - i)
    assert spec.value(1) == 1.0
    assert spec.value(3) == 0.25


def test_geometric_rejects_base_at_most_one():
    with pytest.raises(ValueError):
        SingularSpectrum.geometric(1.0, 1.0)


def test_enumerated_spectrum_validates_at_construction():
    with pytest.raises(ValueError):
        SingularSpectrum.from_values([1.0, 2.0])  # increasing
    with pytest.raises(ValueError):
        SingularSpectrum.from_values([1.0, 0.0])  # not positive
    with pytest.raises(ValueError):
        SingularSpectrum.from_values([])


def test_enumerated_spectrum_refuses_out_of_range():
    spec = SingularSpectrum.from_values([1.0, 0.5, 0.25])
    assert spec.enumerated_length == 3
    assert spec.value(3) == 0.25
    with pytest.raises(OutOfRangeError):
        spec.value(4)
    with pytest.raises(OutOfRangeError):
        spec.values(range(2, 6))


def test_indices_are_one_based():
    spec = SingularSpectrum.algebraic(1.0, 1.0)
    with pytest.raises(ValueError):
        spec.value(0)
    with pytest.raises(ValueError):
        spec.values(range(0, 2))


def test_huge_index_does_not_overflow():
    # integer 10**40 would overflow int64 powers; the rule gets float64,
    # which 2**1024 is past, so there the rule is not evaluated: a guard
    spec = SingularSpectrum.algebraic(1.0, 2.0)
    assert spec.value(10 ** 40) == pytest.approx(1e-80)
    assert SingularSpectrum.algebraic(1.0, 1.0).value(2 ** 1023) \
        == 2.0 ** -1023
    with pytest.raises(GuardExceeded,
                       match=f"^index {2 ** 1024} is past the float range$"):
        spec.value(2 ** 1024)


_WEIGHTS = 1.0 / np.arange(1.0, 50_001.0) ** 0.7


@pytest.mark.parametrize("spec, weight", [
    (SingularSpectrum.algebraic(1.5, 1.3), lambda i: 1.5 / i ** 1.3),
    (SingularSpectrum.algebraic(3.7, 1.0), lambda i: 3.7 / i ** 1.0),
    (SingularSpectrum.geometric(2.0, 1.001), lambda i: 2.0 / 1.001 ** i),
    (periodic_approximation_spectrum(2.5),
     lambda i: 1.0 / np.maximum(1.0, np.floor(i / 2.0)) ** 2.5),
    (SingularSpectrum.from_values(_WEIGHTS),
     lambda i: _WEIGHTS[i.astype(np.int64) - 1]),
], ids=["algebraic", "harmonic", "geometric", "periodic", "table"])
@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 50_000), (7, 40_003)])
def test_range_values_have_the_bits_of_index_values(spec, weight, lo, hi):
    # the documented weight of each index, evaluated on the index floats
    whole = spec.values(range(lo, hi + 1))
    expect = weight(np.arange(lo, hi + 1, dtype=np.float64))
    assert whole.tobytes() == expect.tobytes()
    # the walk reads in chunks: pieces have the bits of the whole
    cut = lo + (hi - lo) // 3
    pieces = [spec.values(range(lo, cut)), spec.values(range(cut, hi + 1))]
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("family", [
    {"family": "algebraic", "scale": 3.0, "power": 1.5},
    {"family": "algebraic", "scale": 1.0, "power": 1.0},
    {"family": "geometric", "scale": 1.0, "base": 1.1},
    {"family": "periodic", "r": 1.3},
    {"family": "derivative", "dimension": 2, "k_max": 40},
], ids=["algebraic", "harmonic", "geometric", "periodic", "derivative"])
def test_index_values_have_the_bits_of_range_values(family):
    # the bounds read lam one boundary at a time and the walks a range at
    # a time: for every CLI family both read one sequence
    spec, _ = cli.build_spectrum(family)
    top = min(2 ** 16, spec.enumerated_length or 2 ** 16)
    each = np.array([spec.value(i) for i in range(1, top + 1)])
    assert each.tobytes() == spec.values(range(1, top + 1)).tobytes()


def test_table_values_are_read_only_views():
    weights = np.array([1.0, 0.5, 0.25, 0.125])
    spec = SingularSpectrum.from_values(weights)
    weights[0] = 9.0  # the table is a copy
    view = spec.values(range(2, 5))
    assert np.array_equal(view, [0.5, 0.25, 0.125])
    assert np.shares_memory(view, spec.values(range(1, 3)))
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 1.0
    assert spec.values(range(1, 2))[0] == 1.0


@pytest.mark.parametrize("span", [range(2, 5), range(4, 6), range(9, 10)])
def test_range_past_a_table_raises(span):
    spec = SingularSpectrum.from_values([1.0, 0.5, 0.25])
    with pytest.raises(OutOfRangeError, match=f"index {span[-1]} past"):
        spec.values(span)


def test_first_at_or_below_rule_path():
    spec = SingularSpectrum.algebraic(1.0, 1.0)
    assert spec.first_at_or_below(1.0) == 1
    assert spec.first_at_or_below(0.1) == 10
    assert spec.first_at_or_below(0.09999) == 11


def test_first_at_or_below_table_path():
    spec = SingularSpectrum.from_values([1.0, 0.5, 0.5, 0.125])
    assert spec.first_at_or_below(0.5) == 2
    with pytest.raises(OutOfRangeError):
        spec.first_at_or_below(0.01)


def test_first_at_or_below_guard():
    # lam_i = 1/i first reaches 1e-12 at 10**12, past the 2**30 scan limit
    spec = SingularSpectrum.algebraic(1.0, 1.0)
    with pytest.raises(GuardExceeded, match="within 1073741824 indices"):
        spec.first_at_or_below(1e-12)
    assert spec.first_at_or_below(1.0 / 2 ** 30) == 2 ** 30


def brute_first_at_or_below(table, threshold, limit):
    """The first 1-based index of ``table`` at or below ``threshold`` by a
    scan of every entry, or the exception ``first_at_or_below`` raises."""
    for i, lam in enumerate(table, start=1):
        if lam <= threshold:
            return i if i <= limit else GuardExceeded
    return OutOfRangeError


@pytest.mark.parametrize("seed", range(6))
def test_table_first_at_or_below_matches_a_scan(monkeypatch, seed):
    # non-increasing tables with runs of ties; thresholds at every entry,
    # between entries, below the last (never reached) and above the first,
    # under a scan limit inside the table and one past its end
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 40))
    table = np.sort(rng.choice([0.125, 0.25, 0.5, 1.0, 2.0, 3.0],
                               size=size))[::-1]
    spec = SingularSpectrum.from_values(table)
    thresholds = sorted({*table, *(table * 0.75), table[0] * 2, 0.1})
    for limit in (int(rng.integers(1, size + 1)), 2 ** 30):
        monkeypatch.setattr(spectrum_module, "DEFAULT_SCAN_LIMIT", limit)
        for threshold in thresholds:
            expected = brute_first_at_or_below(table, threshold, limit)
            if isinstance(expected, int):
                assert spec.first_at_or_below(threshold) == expected
            else:
                with pytest.raises(expected):
                    spec.first_at_or_below(threshold)


def test_validate_prefix_flags_increasing_rule():
    bad = SingularSpectrum.from_rule(
        lambda i: np.asarray(i, dtype=np.float64), name="increasing")
    with pytest.raises(ValueError):
        bad.validate_prefix()


def test_checked_reads_have_the_bits_of_values():
    # inside the head, across its end, up to and across the watermark,
    # past it with a gap, and empty
    spectrum = CountedHarmonic()
    reference = SingularSpectrum.algebraic(1.0, 1.0)
    for lo, hi in [(1, 16), (3, 40), (10, 20_000), (30_000, 40_000),
                   (15_000, 50_000), (16_384, 16_385), (45_000, 45_000),
                   (7, 6), (60_001, 60_000)]:
        before = len(spectrum.reads)
        got = spectrum.checked(range(lo, hi + 1))
        assert got.tobytes() == reference.values(range(lo, hi + 1)).tobytes()
        # no index of a read is evaluated twice by it
        counts = spectrum.counts(spectrum.reads[before:] + [np.zeros(0)])
        assert (counts <= 1).all()
    # every index up to the deepest read is checked, and once
    checks = spectrum.counts(spectrum.checks)
    assert checks.size == 50_001 and checks[0] == 0 and (checks[1:] == 1).all()
    # the head is lam_1..lam_(2**14), read-only
    head = spectrum.checked(range(1, 2 ** 14 + 1))
    assert head.size == 2 ** 14 and not head.flags.writeable


def two_faults():
    """lam_i = 1/i but for a rise at 140 and a zero at 160."""
    return SingularSpectrum.from_rule(
        lambda i: np.where(i == 140.0, 2.0,
                           np.where(i == 160.0, 0.0, 1.0 / i)),
        name="two faults")


def test_a_fault_is_named_alike_however_the_read_is_split():
    # the first fault by index names the error, whichever run holds it
    whole, split = two_faults(), two_faults()
    with pytest.raises(ValueError) as one:
        whole.checked(range(1, 301))
    with pytest.raises(ValueError) as two:
        split.checked(range(1, 151))
        split.checked(range(151, 301))
    assert str(one.value) == str(two.value) \
        == "two faults: singular values must be non-increasing"


@pytest.mark.parametrize("table, fault", [
    ([math.nan, 1.0], "positive"),  # NaN is no positive weight
    ([1.0, math.inf], "non-increasing"),  # a rise to inf is a rise
    ([math.inf, 1.0], "finite"),
    ([math.inf, 0.0], "finite"),  # the fault at the lowest index names it
    ([1.0, 0.5, -math.inf], "positive"),
    ([2.0, 3.0, math.inf], "non-increasing"),
], ids=["nan", "rise-to-inf", "inf-head", "inf-before-zero", "minus-inf",
        "rise-before-inf"])
def test_a_fault_at_the_lowest_index_is_named_in_one_order(table, fault):
    # at one index: not positive, then rises, then not finite
    with pytest.raises(ValueError,
                       match=f"^enumerated: singular values must be {fault}$"):
        SingularSpectrum.from_values(table)


_WATERMARK = 2 ** 15 + 200
# every built-in family; the derivative table (34,848 modes) is its own head
_FAMILIES = {
    "harmonic": lambda: SingularSpectrum.algebraic(3.7, 1.0),
    "algebraic": lambda: SingularSpectrum.algebraic(1.5, 1.3),
    "geometric": lambda: SingularSpectrum.geometric(2.0, 1.001),
    "periodic": lambda: periodic_approximation_spectrum(2.5),
    "derivative": lambda: enumerate_derivative_spectrum(3, 16).spectrum(),
}


@pytest.mark.parametrize("family", list(_FAMILIES.values()),
                         ids=list(_FAMILIES))
@pytest.mark.parametrize("lo", [100, 20_000, _WATERMARK - 200],
                         ids=["head", "below-watermark", "across-watermark"])
def test_a_one_index_read_has_the_bits_of_a_range_read(family, lo):
    # a sparse walk reads lam at each nonzero as a one-index range
    whole, single = family(), family()
    for spectrum in (whole, single):
        spectrum.checked(range(1, _WATERMARK + 1))
    expect = whole.checked(range(lo, lo + 400))
    got = [single.checked(range(i, i + 1)).item()
           for i in range(lo, lo + 400)]
    assert np.array(got).tobytes() == expect.tobytes()


def fault_problem():
    """lam_i = 1/i up to 3000, then 1: a rise past the prefix that the
    problem checks; each reader gets a fresh one."""
    return Problem(SingularSpectrum.from_rule(
        lambda i: np.where(i <= 3000, 1.0 / i, 1.0), name="rising"),
        Partition.doubling(1), ConeParams(2.0, 0.5))


def separation(places):
    bump = CoefficientSource.from_sparse(places, [1.0] * len(places), 5000)
    pair = FoolingPair(base=bump, bump=bump, plus=bump, minus=bump,
                       amplitude=1.0, shift=1.0, ratio=1.0, blocks=1)
    return lambda problem: solution_separation(problem, pair)


@pytest.mark.parametrize("short, deep", [
    (lambda p: interpolate(p, CoefficientSource.from_vector(np.ones(5000)),
                           2000),
     lambda p: interpolate(p, CoefficientSource.from_vector(np.ones(5000)),
                           4000)),
    (lambda p: tail_norms(p, CoefficientSource.from_vector(np.ones(2000)),
                          [0, 10]),
     lambda p: tail_norms(p, CoefficientSource.from_vector(np.ones(4000)),
                          [0, 10])),
    (separation([5, 1000]), separation([5, 4000])),
], ids=["interpolate", "tail_norms", "solution_separation"])
def test_readers_raise_the_spectrum_error_past_a_fault(short, deep):
    problem = fault_problem()
    short(problem)
    for _ in range(2):  # every read that reaches the fault fails the same way
        with pytest.raises(ValueError,
                           match="rising: singular values must be "
                                 "non-increasing"):
            deep(problem)
    short(problem)


def test_a_walk_over_what_the_draw_checked_checks_nothing():
    spectrum = CountedHarmonic()
    problem = Problem(spectrum, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(46), 16)
    checks, reads = len(spectrum.checks), len(spectrum.reads)
    assert len(list(read_blocks(problem, f, 16))) == 17
    assert len(spectrum.checks) == checks
    # the walk evaluates only the weights past the head
    assert spectrum.counts(spectrum.reads[reads:])[:2 ** 14 + 1].sum() == 0


def test_dense_reads_of_lam_stay_inside_one_chunk(monkeypatch):
    # ``products`` forms a dense range chunk by chunk, so no reader asks
    # ``checked`` for a range across a multiple of 2**14, which it would
    # have to join from chunks
    spans, checked = [], SingularSpectrum.checked
    monkeypatch.setattr(SingularSpectrum, "checked",
                        lambda self, indices: spans.append(indices)
                        or checked(self, indices))
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector(np.ones(3 * 2 ** 14 + 5))
    for read in (lambda: interpolate(problem, f, 2 ** 16),
                 lambda: list(read_blocks(problem, f, 17)),
                 lambda: tail_norms(problem, f, [0, 100, 2 ** 15 + 3])):
        spans.clear()
        read()
        assert spans
        for span in spans:
            assert list(spectrum_module._chunks(span.start, span.stop - 1)) \
                in ([span], [])


# -- Partition ---------------------------------------------------------------

def test_doubling_boundaries():
    part = Partition.doubling(1)
    assert [part.boundary(j) for j in range(5)] == [1, 2, 4, 8, 16]
    assert part.block(2) == (3, 4)
    assert part.block(3) == (5, 8)


def test_arithmetic_boundaries():
    part = Partition.arithmetic(0, 2)
    assert [part.boundary(j) for j in range(4)] == [0, 2, 4, 6]
    assert part.block(1) == (1, 2)


def test_zero_then_doubling_boundaries():
    part = Partition.zero_then_doubling(16)
    assert [part.boundary(j) for j in range(5)] == [0, 16, 32, 64, 128]


def test_explicit_partition_exhaustion():
    part = Partition.from_boundaries([0, 2, 4])
    assert part.boundary(2) == 4
    with pytest.raises(OutOfRangeError):
        part.boundary(3)
    with pytest.raises(OutOfRangeError):
        part.block(3)


def test_explicit_partition_must_increase():
    with pytest.raises(ValueError):
        Partition.from_boundaries([0, 2, 2])
    with pytest.raises(ValueError):
        Partition.from_boundaries([-1, 2])
    with pytest.raises(ValueError):
        Partition.from_boundaries([5])


def test_a_partition_comes_only_from_its_four_kinds():
    for args, kwargs in (((lambda j: 2 ** j,), {}), ((), {}),
                         ((None,), {"kind": "explicit", "table": [0, 1]})):
        with pytest.raises(TypeError, match="comes from doubling"):
            Partition(*args, **kwargs)
    kinds = [Partition.doubling(1), Partition.arithmetic(0, 1),
             Partition.zero_then_doubling(1),
             Partition.from_boundaries([0, 1])]
    assert [(p.kind, p.block_count) for p in kinds] == [
        ("doubling", None), ("arithmetic", None), ("zero-doubling", None),
        ("explicit", 1)]


@pytest.mark.parametrize("part", [
    Partition.doubling(1), Partition.doubling(3), Partition.arithmetic(0, 1),
    Partition.arithmetic(5, 7), Partition.zero_then_doubling(16),
    Partition.from_boundaries([2, 3, 50, 51, 2 ** 40])],
    ids=["doubling", "doubling-3", "arithmetic", "arithmetic-5-7",
         "zero-doubling", "explicit"])
def test_the_last_block_within_an_index_limit_is_the_scanned_one(part):
    # the largest j <= the block limit (and the explicit end) with
    # n_j <= the index limit, or -1 where n_0 is past it
    for block_limit in (1, 4, 40, 5000):
        last = part.last_block(block_limit)
        assert part.last_block(block_limit, None) == last
        for index_limit in (0, 1, 2, 3, 49, 50, 51, 1000, 2 ** 26, 2 ** 41):
            scanned = -1
            for j in range(last + 1):
                if part.boundary(j) > index_limit:
                    break
                scanned = j
            assert part.last_block(block_limit, index_limit) == scanned


def test_a_far_block_limit_is_cut_without_its_boundary():
    # n_(10**9) of a doubling partition would be an int of 10**9 bits
    assert Partition.doubling(1).last_block(10 ** 9, 2 ** 26) == 26


def test_partition_rejects_bad_queries():
    part = Partition.doubling(1)
    with pytest.raises(ValueError):
        part.boundary(-1)
    with pytest.raises(ValueError):
        part.block(0)


# -- ConeParams --------------------------------------------------------------

def test_cone_requires_b_below_one_below_a():
    ConeParams(2.0, 0.5)
    for a, b in ((1.0, 0.5), (2.0, 1.0), (2.0, 0.0), (0.5, 0.25)):
        with pytest.raises(ValueError):
            ConeParams(a, b)


def test_tail_factor_value():
    cone = ConeParams(2.0, 0.5)
    assert cone.tail_factor == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-15)


# -- CoefficientSource -------------------------------------------------------

def test_from_vector_reads_and_pads_with_zero():
    f = CoefficientSource.from_vector([1.0, -2.0, 3.0])
    assert f.support_bound == 3
    assert f.coefficients(range(2, 3)).tolist() == [-2.0]
    assert f.coefficients(range(7, 8)).tolist() == [0.0]
    assert f.coefficients(range(3, 6)).tolist() == [3.0, 0.0, 0.0]
    assert np.array_equal(f.dense(5), [1.0, -2.0, 3.0, 0.0, 0.0])


def test_from_padded_reads_the_array_itself():
    padded = np.array([1.0, -2.0, 3.0, 0.0])
    f = CoefficientSource.from_padded(padded)
    assert f.support_bound == 3
    assert np.shares_memory(f.coefficients(range(1, 4)), padded)
    assert not padded.flags.writeable
    assert f.coefficients(range(3, 6)).tolist() == [3.0, 0.0, 0.0]


@pytest.mark.parametrize("padded", [
    np.array([1.0, 2.0]), np.zeros(0), np.zeros((2, 2)),
    np.array([1, 0]), [1.0, 0.0]],
    ids=["no-trailing-zero", "empty", "2-d", "int", "list"])
def test_from_padded_rejects_anything_but_a_zero_ended_float_vector(padded):
    with pytest.raises(ValueError, match="ending in a zero"):
        CoefficientSource.from_padded(padded)


def test_zero_source():
    f = CoefficientSource.zero()
    assert f.support_bound == 0
    assert f.coefficients(range(1, 2)).tolist() == [0.0]
    assert f.norm() == 0.0


def test_norm_matches_hand_value():
    f = CoefficientSource.from_vector([3.0, 4.0])
    assert f.norm() == 5.0


def test_a_source_comes_only_from_its_kinds():
    for args, kwargs in (((lambda i: 1.0 / i,), {}), ((), {}),
                         ((np.ones_like,), {"support_bound": 5})):
        with pytest.raises(TypeError, match="comes from from_vector"):
            CoefficientSource(*args, **kwargs)
    kinds = [CoefficientSource.from_vector([1.0, 2.0]),
             CoefficientSource.from_padded(np.array([1.0, 2.0, 0.0])),
             CoefficientSource.zero(),
             CoefficientSource.from_sparse([2], [3.0], 4)]
    assert [(f.size, f.nonzeros is None) for f in kinds] == [
        (2, True), (2, True), (0, True), (4, False)]


def test_queries_are_repeatable():
    f = CoefficientSource.from_vector(np.random.default_rng(0).normal(size=9))
    for i in (1, 5, 9):
        span = range(i, i + 1)
        assert f.coefficients(span).tolist() == f.coefficients(span).tolist()


def _sources():
    coeffs = np.array([1.0, -2.0, 3.0, 0.5, -0.25])
    return {"vector": CoefficientSource.from_vector(coeffs),
            "scaled": CoefficientSource.from_vector(-0.5 * coeffs),
            "custom": CoefficientSource.from_sparse([1, 2, 4],
                                                    [1.0, 0.5, 0.25], 5),
            "zero": CoefficientSource.zero(),
            # coefficient i at 1..9, covering every range read below
            "provider": CoefficientSource.from_padded(
                np.append(np.arange(1.0, 10.0), 0.0))}


@pytest.mark.parametrize("name", list(_sources()))
@pytest.mark.parametrize("lo, hi", [(1, 1), (1, 5), (2, 4), (4, 9), (6, 8)])
def test_range_coefficients_match_the_index_path(name, lo, hi):
    # a range has the bits of reading its indices one at a time
    f = _sources()[name]
    got = f.coefficients(range(lo, hi + 1))
    one_by_one = [f.coefficients(range(i, i + 1)) for i in range(lo, hi + 1)]
    assert got.tobytes() == np.concatenate(one_by_one).tobytes()
    # the walk reads in chunks: pieces have the bits of the whole
    cut = (lo + hi + 1) // 2
    pieces = [f.coefficients(range(lo, cut)), f.coefficients(range(cut, hi + 1))]
    assert np.concatenate(pieces).tobytes() == got.tobytes()
    assert not got[max(f.support_bound - lo + 1, 0):].any()


def test_range_coefficients_of_a_vector_are_read_only_views():
    f = CoefficientSource.from_vector([1.0, -2.0, 3.0])
    view = f.coefficients(range(2, 4))
    assert np.shares_memory(view, f.dense(3))
    assert not view.flags.writeable


_READERS = {
    "rule-values": lambda: SingularSpectrum.algebraic(1.0, 1.0).values,
    "table-values": lambda: SingularSpectrum.from_values([1.0, 0.5]).values,
    "sparse-coefficients":
        lambda: CoefficientSource.from_sparse([1, 3], [1.0, 0.5], 4).coefficients,
    "vector-coefficients":
        lambda: CoefficientSource.from_vector([1.0, -2.0]).coefficients,
    "zero-coefficients": lambda: CoefficientSource.zero().coefficients,
}


@pytest.mark.parametrize("reader", list(_READERS.values()), ids=list(_READERS))
def test_only_step_one_ranges_of_one_based_indices_are_read(reader):
    read = reader()
    for bad in ([1, 2], np.arange(1, 3), range(1, 9, 2), range(0, 3)):
        with pytest.raises(ValueError, match="step-1 range"):
            read(bad)
    # empty anywhere, past a table's end or reversed too
    for empty in (read(range(1, 1)), read(range(5, 5)), read(range(4, 2))):
        assert isinstance(empty, np.ndarray)
        assert empty.dtype == np.float64 and empty.shape == (0,)


def test_a_rule_reads_the_float_indices_of_a_range():
    seen = []

    def rule(i):
        seen.append(i.copy())
        return 1.0 / i

    SingularSpectrum.from_rule(rule).values(range(3, 8))
    (i,) = seen
    assert i.dtype == np.float64
    assert i.tobytes() == np.arange(3, 8, dtype=np.float64).tobytes()


# -- block_norm --------------------------------------------------------------

def test_block_norm_zero_input(unit_doubling):
    assert block_norm(unit_doubling, CoefficientSource.zero(), 3) == 0.0


def test_block_norm_unit_spectrum_geometric_coefficients(unit_doubling):
    # indices 3..4 of fhat_i = 2**-i: sqrt(2**-6 + 2**-8) = sqrt(5)/16
    f = CoefficientSource.from_vector([2.0 ** -i for i in range(1, 9)])
    assert block_norm(unit_doubling, f, 2) == pytest.approx(
        math.sqrt(5.0) / 16.0, rel=1e-15)


def test_block_norm_harmonic_spectrum():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.arithmetic(0, 2), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0, 1.0])
    # indices 3..4: sqrt(1/9 + 1/16) = 5/12
    assert block_norm(problem, f, 2) == pytest.approx(5.0 / 12.0, rel=1e-15)


def test_block_norm_clips_to_enumerated_length():
    # three-mode operator: block 2 of the doubling partition is half gone,
    # block 3 and beyond do not exist at all
    spec = SingularSpectrum.from_values([1.0, 0.5, 0.25])
    problem = Problem(spec, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0, 1.0, 1.0])
    assert block_norm(problem, f, 2) == pytest.approx(0.25, rel=1e-15)
    assert block_norm(problem, f, 3) == 0.0
    assert block_norm(problem, f, 9) == 0.0


def test_block_norm_matches_brute_oracle(harmonic_doubling):
    rng = np.random.default_rng(4)
    f = CoefficientSource.from_vector(rng.normal(size=32))
    for j in range(1, 6):
        assert block_norm(harmonic_doubling, f, j) == pytest.approx(
            brute_sigma(harmonic_doubling, f, j), rel=1e-13)


def test_block_norm_homogeneous(harmonic_doubling):
    f = CoefficientSource.from_vector(np.random.default_rng(5).normal(size=16))
    g = CoefficientSource.from_vector(8.0 * f.dense(16))  # exact: power of two
    for j in range(1, 5):
        assert block_norm(harmonic_doubling, g, j) == pytest.approx(
            8.0 * block_norm(harmonic_doubling, f, j), rel=1e-12)


def test_sigma_sandwich(harmonic_doubling):
    # lam_{n_j} * ||block fhat|| <= sigma_j <= lam_{n_{j-1}+1} * ||block fhat||
    rng = np.random.default_rng(6)
    f = CoefficientSource.from_vector(rng.normal(size=64))
    for j in range(1, 7):
        lo, hi = harmonic_doubling.partition.block(j)
        piece = float(np.linalg.norm(f.dense(hi)[lo - 1:hi]))
        s = block_norm(harmonic_doubling, f, j)
        lam_lo = harmonic_doubling.spectrum.value(hi)
        lam_hi = harmonic_doubling.spectrum.value(lo)
        assert lam_lo * piece <= s * (1 + 1e-12)
        assert s <= lam_hi * piece * (1 + 1e-12)


# -- cone_membership ---------------------------------------------------------

def test_membership_zero_input(unit_doubling):
    report = cone_membership(unit_doubling, CoefficientSource.zero())
    assert report.member
    assert report.worst_ratio == 0.0
    assert report.witness is None


def test_membership_violator_with_witness():
    # sigma = (1, 0, 1): block 3 breaks the decay; zero block 2 binds it
    problem = Problem(unit_spectrum(), Partition.arithmetic(0, 1),
                      ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1.0, 0.0, 1.0])
    report = cone_membership(problem, f)
    assert not report.member
    assert report.witness == (2, 1)
    assert report.blocks == 3
    assert math.isinf(report.worst_ratio)  # block 2 is zero, block 3 is not


def test_membership_allows_a_relative_slack_of_1e_9():
    # a * b = 1, so block 2's ratio is its norm over block 1's
    problem = Problem(unit_spectrum(), Partition.arithmetic(0, 1),
                      ConeParams(2.0, 0.5))
    for excess, member in ((5e-10, True), (2e-9, False)):
        f = CoefficientSource.from_vector([1.0, 1.0 + excess])
        report = cone_membership(problem, f)
        assert report.member is member
        assert report.witness == (None if member else (1, 1))
        assert report.worst_ratio == 1.0 + excess


def test_membership_accepts_exact_profile(unit_doubling):
    # sigma_j = b**j satisfies every pair with ratio 1/a < 1
    b = unit_doubling.cone.b
    coeffs = np.zeros(16)
    for j in range(1, 5):
        coeffs[unit_doubling.partition.boundary(j) - 1] = b ** j
    report = cone_membership(unit_doubling, CoefficientSource.from_vector(coeffs))
    assert report.member
    assert report.worst_ratio == pytest.approx(1.0 / unit_doubling.cone.a)


def test_membership_scale_invariant(harmonic_doubling):
    rng = np.random.default_rng(7)
    f = CoefficientSource.from_vector(rng.normal(size=16))
    base = cone_membership(harmonic_doubling, f)
    for c in (0.125, -4.0, 1e6):
        scaled = cone_membership(harmonic_doubling,
                                 CoefficientSource.from_vector(c * f.dense(16)))
        assert scaled.member == base.member
        assert scaled.worst_ratio == pytest.approx(base.worst_ratio, rel=1e-9)


@pytest.mark.parametrize("index, value", [
    (6, math.nan), (11, math.nan), (21, math.nan), (41, math.nan),
    (6, math.inf)])
def test_membership_refuses_non_finite_input(index, value):
    # a NaN ratio never became the worst, and a NaN or inf block norm left
    # the allowance at inf, so each of these inputs was certified a member
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(4), ConeParams(2.0, 0.5))
    f = random_cone_member(problem, np.random.default_rng(1), 4)
    assert cone_membership(problem, f).member
    coeffs = f.dense(f.support_bound).copy()
    coeffs[index - 1] = value
    with pytest.raises(ValueError, match="non-finite norm over indices"):
        cone_membership(problem, CoefficientSource.from_vector(coeffs))


# -- exact_norm --------------------------------------------------------------

@pytest.mark.parametrize("size", [4, 100, 4096],
                         ids=["python-squares", "numpy-squares", "binned"])
def test_exact_norm_zero_overflow_and_nan(size):
    x = np.zeros(size)
    assert exact_norm(x) == 0.0
    x[:4] = [3.0, 4.0, -12.0, 0.0]
    assert exact_norm(x) == 13.0
    x[:4] = [0.0, 1e154, 1.3e154, 1.3e154]  # finite squares, sum past range
    assert exact_norm(x) == math.inf
    x[1] = -2e154  # a square past the range
    assert exact_norm(x) == math.inf
    x[2] = math.nan
    assert math.isnan(exact_norm(x))


def test_exact_norm_sums_subnormal_squares_exactly():
    # each square is the smallest subnormal 2**-1074; their sums are exact
    x = np.full(4096, 2.0 ** -537)
    assert exact_norm(x) == math.sqrt(4096 * 2.0 ** -1074)
    assert exact_norm(x[:5]) == math.sqrt(5 * 2.0 ** -1074)


# -- tail_norm ---------------------------------------------------------------

def test_tail_norm_hand_value(harmonic_doubling):
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0])
    # indices 2..3: sqrt(1/4 + 1/9)
    assert tail_norm(harmonic_doubling, f, 1) == pytest.approx(
        math.sqrt(13.0 / 36.0), rel=1e-15)


def test_tail_norm_empty_cases(harmonic_doubling):
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0])
    assert tail_norm(harmonic_doubling, f, 3) == 0.0
    assert tail_norm(harmonic_doubling, f, 12) == 0.0
    assert tail_norm(harmonic_doubling, CoefficientSource.zero(), 0) == 0.0


def test_tail_norm_matches_brute_oracle(harmonic_doubling):
    rng = np.random.default_rng(8)
    f = CoefficientSource.from_vector(rng.normal(size=40))
    for n in (0, 1, 7, 23, 39):
        expect = brute_tail(harmonic_doubling.spectrum.value, coefficient_of(f),
                            n, 40)
        assert tail_norm(harmonic_doubling, f, n) == pytest.approx(
            expect, rel=1e-13, abs=1e-300)


def test_tail_norm_clips_to_enumerated_length():
    spec = SingularSpectrum.from_values([1.0, 0.5])
    problem = Problem(spec, Partition.doubling(1), ConeParams(2.0, 0.5))
    f = CoefficientSource.from_vector([1.0, 1.0, 1.0, 1.0])
    assert tail_norm(problem, f, 1) == 0.5
    assert tail_norm(problem, f, 2) == 0.0


def test_tail_norms_serve_any_cut_list(harmonic_doubling):
    # above the fsum cutoff, so the suffix pass runs the binned kernel
    rng = np.random.default_rng(12)
    support = 5000
    f = CoefficientSource.from_vector(rng.normal(size=support))
    cuts = [4000, 0, 17, 4000, support, support + 9, 2047]
    expect = []
    for n in cuts:
        span = range(n + 1, support + 1)
        prod = harmonic_doubling.spectrum.values(span) * f.coefficients(span)
        expect.append(math.sqrt(math.fsum((prod * prod).tolist())))
    assert tail_norms(harmonic_doubling, f, cuts) == expect
    assert [tail_norm(harmonic_doubling, f, n) for n in cuts] == expect
    assert tail_norms(harmonic_doubling, f, []) == []


def test_tail_norms_carry_inf_and_nan_to_earlier_cuts(harmonic_doubling):
    # a NaN in segment 1..2 and an inf in 3..4: NaN wins over inf
    f = CoefficientSource.from_vector([1.0, math.nan, math.inf, 1.0, 0.5])
    tails = tail_norms(harmonic_doubling, f, [4, 0, 2, 1, 5])
    assert tails[0] == 0.1 and tails[4] == 0.0
    assert math.isnan(tails[1]) and math.isnan(tails[3])
    assert tails[2] == math.inf


def test_tail_norms_reject_bad_cuts(harmonic_doubling):
    f = CoefficientSource.from_vector([1.0, 1.0])
    with pytest.raises(ValueError):
        tail_norms(harmonic_doubling, f, [0, -1])


def test_pythagoras_blocks_sum_to_tail(harmonic_doubling):
    # tail past n_0 splits exactly into the block norms
    rng = np.random.default_rng(9)
    f = CoefficientSource.from_vector(rng.normal(size=64))
    total = tail_norm(harmonic_doubling, f,
                      harmonic_doubling.partition.boundary(0)) ** 2
    parts = math.fsum(block_norm(harmonic_doubling, f, j) ** 2
                      for j in range(1, 7))
    assert parts == pytest.approx(total, rel=1e-12)


# -- random_cone_member ------------------------------------------------------

def test_random_cone_member_always_member(harmonic_doubling):
    rng = np.random.default_rng(10)
    for _ in range(25):
        f = random_cone_member(harmonic_doubling, rng, blocks=6)
        assert cone_membership(harmonic_doubling, f).member


def test_random_cone_member_head_changes_norm_not_blocks(unit_doubling):
    with_head = random_cone_member(unit_doubling,
                                   np.random.default_rng(11), 4, head=True)
    without = random_cone_member(unit_doubling,
                                 np.random.default_rng(11), 4, head=False)
    for j in range(1, 5):
        assert block_norm(unit_doubling, with_head, j) == pytest.approx(
            block_norm(unit_doubling, without, j), rel=1e-12)
