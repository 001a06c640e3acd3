"""The bound and fooling-pair certificates, in-process: every
``bounds_table`` row is the scalar bounds of its tolerance, and every
``fooling_certificates`` entry is that of a fresh search for its tolerance,
started where the search of the larger tolerance before it ended, with the
same failure text where that search fails."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from adaptlin import (ConeParams, GuardExceeded, Partition, Problem,
                      SingularSpectrum, boundary_ratio, bounds_table,
                      complexity_lower_block, fooling_certificates,
                      stop_block_bound, stop_block_bound_first_term,
                      stop_block_bound_rough, tolerance_shrink_factor)

from conftest import fresh_probe_search


@st.composite
def problems(draw, first=0):
    """Algebraic or geometric weights on a doubling or arithmetic partition
    with n_0 >= ``first``, under a drawn cone."""
    scale = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        spectrum = SingularSpectrum.algebraic(scale, draw(st.floats(0.25, 4)))
    else:
        spectrum = SingularSpectrum.geometric(scale,
                                              draw(st.floats(1.001, 4)))
    if draw(st.booleans()):
        partition = Partition.doubling(draw(st.integers(1, 4)))
    else:
        partition = Partition.arithmetic(draw(st.integers(first, 5)),
                                         draw(st.integers(1, 6)))
    cone = ConeParams(draw(st.floats(1.1, 8)), draw(st.floats(0.05, 0.95)))
    return Problem(spectrum, partition, cone)


tolerance_lists = st.lists(st.floats(1e-7, 2.0), min_size=1, max_size=6)


def scalar_row(problem, epsilon, rho, block_limit, scan):
    """The four j columns of one tolerance from the scalar bounds, and the
    GuardExceeded text of the first that does not settle."""
    omega = (None if scan.still_growing
             else tolerance_shrink_factor(problem.cone, scan.value))
    columns, guard = [], None
    try:
        columns.append(stop_block_bound(problem, epsilon, rho,
                                        block_limit=block_limit))
        columns.append(stop_block_bound_rough(problem, epsilon, rho,
                                              block_limit=block_limit))
        columns.append(stop_block_bound_first_term(problem, epsilon, rho))
        if omega is not None and problem.partition.boundary(0) >= 1:
            if not omega * epsilon > 0.0:  # underflowed: no block settles it
                raise GuardExceeded("lower-bound block still growing at "
                                    f"block limit {block_limit}")
            columns.append(complexity_lower_block(
                problem, scan.value, omega * epsilon, rho,
                block_limit=block_limit))
    except GuardExceeded as exc:
        guard = str(exc)
    return columns + [None] * (4 - len(columns)), guard


@settings(max_examples=60, deadline=None)
@given(problems(), tolerance_lists, st.floats(0.1, 10.0),
       st.integers(2, 24))
def test_each_bounds_row_is_the_scalar_bounds_of_its_tolerance(
        problem, epsilons, rho, block_limit):
    scan = boundary_ratio(problem, block_limit)
    rows = bounds_table(problem, epsilons, rho, block_limit=block_limit)
    assert [row.epsilon for row in rows] == sorted(set(epsilons),
                                                   reverse=True)
    for row in rows:
        columns, guard = scalar_row(problem, row.epsilon, rho, block_limit,
                                    scan)
        assert [row.j_dagger, row.j_dagger_rough, row.j_dagger_first,
                row.j_star_lower] == columns
        assert row.guard == guard
        assert (row.rho, row.R) == (rho, scan.value)
        assert (row.omega is None) == scan.still_growing
        assert (row.note is None) == (not scan.still_growing and
                                      problem.partition.boundary(0) >= 1)
        if row.j_star_lower is None:
            assert row.chain_holds is None
        else:
            n_dagger, n_lower = (problem.partition.boundary(j) for j in
                                 (row.j_dagger, row.j_star_lower))
            assert (row.n_dagger, row.n_lower) == (n_dagger, n_lower)
            assert row.chain_holds == (n_dagger <= n_lower)


def summary(cert):
    """A certificate's fields, with the pair as its scalars and the
    nonzeros of its four inputs."""
    fields = {f.name: getattr(cert, f.name)
              for f in dataclasses.fields(cert) if f.name != "pair"}
    pair = cert.pair
    if pair is not None:
        fields["pair"] = (pair.amplitude, pair.shift, pair.ratio, pair.blocks,
                          [[part.tolist() for part in source.nonzeros]
                           for source in (pair.base, pair.bump, pair.plus,
                                          pair.minus)])
    return fields


def resumed_searches(problem, epsilons, rho, block_limit, index_limit,
                     blocks, ratio):
    """(epsilon, (ratio, depth, cost) or the exception raised) per distinct
    tolerance, largest first: ``fresh_probe_search`` for each, started at
    the depth where the search of the one before ended."""
    depth = None
    for eps in sorted(set(epsilons), reverse=True):
        try:
            found = fresh_probe_search(problem, eps, rho, block_limit,
                                       index_limit, blocks=blocks,
                                       ratio=ratio, start=depth)
            depth = found[1]
        except (ValueError, GuardExceeded) as exc:
            found, depth = exc, exc.depth
        yield eps, found


@settings(max_examples=60, deadline=None)
# most ratios are scanned, since a drawn one is mostly below a drop
@given(problems(first=1), tolerance_lists, st.floats(0.1, 10.0),
       st.one_of(st.none(), st.integers(1, 8)),
       st.one_of(st.none(), st.none(), st.floats(1.0, 20.0)),
       st.integers(4, 20), st.integers(16, 4096))
def test_each_fooling_certificate_is_that_of_a_fresh_search(
        problem, epsilons, rho, blocks, ratio, block_limit, index_limit):
    certificates = fooling_certificates(
        problem, epsilons, rho, blocks=blocks, ratio=ratio,
        block_limit=block_limit, index_limit=index_limit)
    searches = list(resumed_searches(problem, epsilons, rho, block_limit,
                                     index_limit, blocks, ratio))
    assert [c.epsilon for c in certificates] == [eps for eps, _ in searches]
    for cert, (_, found) in zip(certificates, searches):
        if isinstance(found, Exception):
            assert (cert.failure, cert.ok, cert.pair) == (str(found), False,
                                                          None)
            continue
        r, depth, cost = found
        # a fresh certificate at that depth and ratio, searched no further
        (fresh,) = fooling_certificates(problem, [cert.epsilon], rho,
                                        blocks=depth, ratio=r,
                                        block_limit=block_limit)
        assert cert.zeroed_count == cost
        assert summary(cert) == summary(fresh)
        assert cert.ok == (cert.indistinguishable
                           and all(m.member for m in cert.membership.values())
                           and all(v <= rho * (1.0 + 1e-10)
                                   for v in cert.norms.values())
                           and cert.separation >= 2.0 * cert.pair.shift
                           and cert.identity_gap
                           <= 1e-12 * max(1.0, cert.pair.amplitude))


def test_a_search_resumes_at_the_depth_a_larger_tolerance_reached():
    # the run at 1.0 on the depth-4 probe never stops within 4 blocks, but
    # 2.0 outgrew depth 4, and on the depth-5 probe the run at 1.0 stops
    problem = Problem(SingularSpectrum.algebraic(584.0, 2.25),
                      Partition.doubling(3), ConeParams(4.0, 0.5))
    with pytest.raises(GuardExceeded):
        fresh_probe_search(problem, 1.0, 5.0, 4, 96)
    certificates = fooling_certificates(problem, [1.0, 2.0], 5.0,
                                        block_limit=4, index_limit=96)
    assert [(c.epsilon, c.pair.blocks, c.ok) for c in certificates] == [
        (2.0, 5, True), (1.0, 5, True)]


def test_no_search_starts_without_a_head():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.arithmetic(0, 2), ConeParams(2.0, 0.5))
    assert {c.failure for c in fooling_certificates(problem, [1e-2, 1e-3],
                                                    1.0)} == {
        "the lower bound construction needs n_0 >= 1"}


def test_a_search_refused_for_room_does_not_decide_the_next_tolerance():
    # at 2.0 the probe outgrows the index budget at depth 12; at 1.0 the run
    # on the depth-11 probe never stops within 10 blocks, which a fresh
    # search for 1.0 also reports, so the first failure is not the second's
    problem = Problem(SingularSpectrum.geometric(443.0, 1.125),
                      Partition.arithmetic(5, 1), ConeParams(3.0, 0.5625))
    failures = [cert.failure for cert in fooling_certificates(
        problem, [1.0, 2.0], 1.0, block_limit=10, index_limit=16)]
    assert failures == [
        "the probe depth = 12 spans 17 indices, over the index budget "
        "guards.n_max = 16",
        "no stopping block within 10 blocks; the input may not satisfy the "
        "assumed decay, or the tolerance may be unreachable"]


def test_a_harmonic_row_and_certificate_hold():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.doubling(1), ConeParams(2.0, 0.5))
    (row,) = bounds_table(problem, [1e-2], 1.0)
    assert (row.R, row.guard, row.note, row.chain_holds) == (2.0, None,
                                                             None, True)
    assert row.n_dagger == 2 ** row.j_dagger <= row.n_lower
    (cert,) = fooling_certificates(problem, [1e-2], 1.0)
    assert cert.ok and cert.failure is None
    assert cert.zeroed_count + 1 < problem.partition.boundary(cert.pair.blocks)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.ok = False


def test_the_chain_reads_violated_where_the_lower_bound_is_block_zero():
    # omega * epsilon is about 1e-190 against rho = 1e-200: the zero input
    # meets the lower bound's tolerance, so j_star_lower is 0 (n_0 = 1)
    problem = Problem(SingularSpectrum.geometric(1.0, 1e10),
                      Partition.arithmetic(1, 3), ConeParams(1e6, 1e-6))
    (row,) = bounds_table(problem, [1e-100], 1e-200, block_limit=5)
    assert (row.j_dagger, row.j_star_lower) == (1, 0)
    assert (row.n_dagger, row.n_lower, row.chain_holds) == (4, 1, False)
    assert row.omega * row.epsilon > row.rho
