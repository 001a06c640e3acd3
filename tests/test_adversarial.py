"""Fooling constructions behind the complexity lower bound."""

import numpy as np
import pytest

from adaptlin import (CoefficientSource, ConeParams, Partition, Problem,
                      SingularSpectrum, adaptive_algorithm, block_norm,
                      cone_membership, fooling_input, fooling_pair,
                      solution_separation)

from conftest import unit_spectrum

CONE = ConeParams(2.0, 0.5)


def unit_problem():
    return Problem(unit_spectrum(), Partition.doubling(1), CONE)


def harmonic_problem():
    return Problem(SingularSpectrum.algebraic(1.0, 1.0),
                   Partition.doubling(1), CONE)


# -- amplitude and base input ------------------------------------------------

def amplitude(problem, ratio, rho, blocks):
    """The amplitude c of the base profile, from a pair that zeroes
    nothing."""
    return fooling_pair(problem, ratio, rho, blocks, ()).amplitude


def test_fooling_scale_of_a_cone_past_2_to_the_511():
    # (a-1)**2 / (a+1)**2 is 1 past 2**53, where its squares overflow or not
    scales = [amplitude(Problem(SingularSpectrum.algebraic(1.0, 1.0),
                                Partition.doubling(1), ConeParams(a, 0.5)),
                        2.0, 1.0, 6) for a in (1e150, 1e200)]
    assert scales[0] == scales[1]


def test_fooling_scale_hand_value():
    # flat weights, two blocks: c**2 = rho**2 / ((10/9) * (16 + 4 + 1))
    c = amplitude(unit_problem(), 1.0, 1.0, 2)
    assert c ** 2 == pytest.approx(9.0 / 210.0, rel=1e-14)
    assert c == pytest.approx(0.20701966780270625, rel=1e-14)


def test_fooling_scale_proportional_to_radius():
    problem = unit_problem()
    assert amplitude(problem, 1.0, 5.0, 2) == pytest.approx(
        5.0 * amplitude(problem, 1.0, 1.0, 2), rel=1e-14)


def test_fooling_input_dense_layout():
    problem = unit_problem()
    f = fooling_input(problem, 1.0, 1.0, 2)
    c = amplitude(problem, 1.0, 1.0, 2)
    assert np.allclose(f.dense(4), [0.0, 2.0 * c, 0.0, c], rtol=1e-14)


def test_fooling_input_profile_is_exactly_geometric():
    problem = harmonic_problem()
    blocks = 6
    f = fooling_input(problem, 2.0, 1.0, blocks)
    c = amplitude(problem, 2.0, 1.0, blocks)
    b = problem.cone.b
    for k in range(1, blocks + 1):
        assert block_norm(problem, f, k) == pytest.approx(
            c * b ** (k - blocks), rel=1e-10)


def test_fooling_input_is_member_with_norm_inside_ball():
    problem = harmonic_problem()
    for rho in (1.0, 7.0):
        f = fooling_input(problem, 2.0, rho, 5)
        assert cone_membership(problem, f).member
        assert f.norm() <= rho * (1 + 1e-12)


def test_fooling_rejects_understated_ratio():
    # the harmonic spectrum drops by 2 across each doubling block
    with pytest.raises(ValueError):
        fooling_input(harmonic_problem(), 1.5, 1.0, 4)


def test_fooling_requires_head():
    problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                      Partition.zero_then_doubling(4), CONE)
    with pytest.raises(ValueError, match="n_0 >= 1"):
        fooling_input(problem, 2.0, 1.0, 3)


# -- fooling pairs -----------------------------------------------------------

def make_pair(problem, ratio, rho=1.0, blocks=6, zeroed=(1, 2, 5)):
    return fooling_pair(problem, ratio, rho, blocks, zeroed)


def dense_bump(pair):
    """The bump over 1..n_blocks, the dense twin of its sparse source."""
    return pair.bump.dense(pair.bump.size)


def test_pair_base_has_the_bits_of_the_fooling_input():
    problem = harmonic_problem()
    pair = make_pair(problem, 2.0, rho=3.0, blocks=7)
    probe = fooling_input(problem, 2.0, 3.0, 7)
    size = problem.partition.boundary(7)
    assert pair.base.dense(size).tobytes() == probe.dense(size).tobytes()
    assert pair.amplitude == fooling_pair(problem, 2.0, 3.0, 7, ()).amplitude


def test_pair_identity_between_amplitude_and_shift():
    pair = make_pair(harmonic_problem(), 2.0)
    a = CONE.a
    gap = abs(a * (pair.amplitude - pair.shift * pair.ratio)
              - (pair.amplitude + pair.shift * pair.ratio))
    assert gap <= 1e-12 * max(1.0, pair.amplitude)


def test_pair_bump_constraints():
    problem = harmonic_problem()
    zeroed = (1, 2, 5, 9)
    pair = fooling_pair(problem, 2.0, 1.0, 6, zeroed)
    bump = dense_bump(pair)
    for i in zeroed:
        assert abs(bump[i - 1]) < 1e-10
    base_vec = pair.base.dense(bump.size)
    assert abs(float(np.dot(bump, base_vec))) < 1e-10
    # largest per-block piece of the bump is normalized to one
    b = problem.cone.b
    norms = []
    for k in range(0, pair.blocks + 1):
        lo = problem.partition.boundary(max(k - 1, 0)) + 1 if k else 1
        hi = problem.partition.boundary(k)
        weight = (b ** (k - pair.blocks)
                  / problem.spectrum.value(problem.partition.boundary(k)))
        norms.append(np.linalg.norm(bump[lo - 1:hi]) / weight)
    assert max(norms) == pytest.approx(1.0, rel=1e-12)


def test_pair_sigma_profile_sandwich():
    problem = harmonic_problem()
    pair = make_pair(problem, 2.0)
    b = problem.cone.b
    c, eta, r = pair.amplitude, pair.shift, pair.ratio
    for k in range(1, pair.blocks + 1):
        for f in (pair.plus, pair.minus):
            s = block_norm(problem, f, k)
            assert s >= b ** (k - pair.blocks) * (c - eta * r) * (1 - 1e-12)
            assert s <= b ** (k - pair.blocks) * (c + eta * r) * (1 + 1e-12)


def test_pair_members_inside_ball():
    problem = harmonic_problem()
    rho = 3.0
    pair = fooling_pair(problem, 2.0, rho, 6, (3, 4))
    for f in (pair.base, pair.plus, pair.minus):
        assert cone_membership(problem, f).member
        assert f.norm() <= rho * (1 + 1e-10)


def test_pair_separation_at_least_twice_shift():
    problem = harmonic_problem()
    pair = make_pair(problem, 2.0)
    separation = solution_separation(problem, pair)
    assert separation >= 2.0 * pair.shift * (1 - 1e-12)
    # and matches the direct solution-space distance of the two inputs
    lam = problem.spectrum.values(range(1, pair.bump.size + 1))
    direct = np.linalg.norm(lam * (pair.plus.dense(pair.bump.size)
                                   - pair.minus.dense(pair.bump.size)))
    assert separation == pytest.approx(float(direct), rel=1e-12)


def test_pair_fools_the_adaptive_run():
    problem = harmonic_problem()
    eps = 0.05
    blocks = 8
    probe = fooling_input(problem, 2.0, 1.0, blocks)
    run = adaptive_algorithm(problem, probe, eps)
    assert run.cost + 1 < problem.partition.boundary(blocks)
    pair = fooling_pair(problem, 2.0, 1.0, blocks, range(1, run.cost + 1))
    run_plus = adaptive_algorithm(problem, pair.plus, eps)
    run_minus = adaptive_algorithm(problem, pair.minus, eps)
    assert run_plus.cost == run_minus.cost
    assert np.array_equal(run_plus.values, run_minus.values)
    # yet the two true solutions sit strictly apart
    assert solution_separation(problem, pair) > 0.0


def test_pair_infeasible_when_constraints_fill_dimension():
    problem = unit_problem()
    # two blocks span four coordinates; zeroing three leaves only the
    # orthogonality constraint no slack
    with pytest.raises(ValueError, match="available dimensions"):
        fooling_pair(problem, 1.0, 1.0, 2, (1, 2, 3))


def test_pair_ignores_repeated_and_out_of_range_zeroed_indices():
    # six blocks span 64 coordinates; 0, -3 and 65 are outside, and the
    # repeats count once, so 62 distinct constraints + 1 still fit
    problem = harmonic_problem()
    inside = list(range(1, 63))
    noisy = inside + [0, -3, 65, 10 ** 6] + inside[::7]
    pair = fooling_pair(problem, 2.0, 1.0, 6, noisy)
    clean = fooling_pair(problem, 2.0, 1.0, 6, inside)
    assert np.array_equal(dense_bump(pair), dense_bump(clean))
    with pytest.raises(ValueError, match="63 zeroed functionals"):
        fooling_pair(problem, 2.0, 1.0, 6, noisy + [63])


@pytest.mark.parametrize("zeroed", [
    range(-3, 40), range(5, 3), range(70, 90), range(1, 60, 2),
    range(40, 0, -1)])
def test_pair_reads_a_range_of_zeroed_indices_as_its_list(zeroed):
    # a step-1 range is clipped to 1..64 by arithmetic, any other is a set
    problem = harmonic_problem()
    from_range = fooling_pair(problem, 2.0, 1.0, 6, zeroed)
    from_list = fooling_pair(problem, 2.0, 1.0, 6, list(zeroed))
    assert (dense_bump(from_range).tobytes()
            == dense_bump(from_list).tobytes())
    with pytest.raises(ValueError, match="64 zeroed functionals"):
        fooling_pair(problem, 2.0, 1.0, 6, range(-3, 100))


def test_pair_reads_each_boundary_value_once(monkeypatch):
    # the ratio check, the amplitude, the base input and the bump weights
    # share one read of lam_{n_0}..lam_{n_depth}
    problem = harmonic_problem()
    depth = 11
    calls = []
    value = SingularSpectrum.value

    def counted(self, i):
        calls.append(i)
        return value(self, i)

    monkeypatch.setattr(SingularSpectrum, "value", counted)
    fooling_pair(problem, 2.0, 1.0, depth, range(1, 100))
    assert len(calls) <= 2 * (depth + 1)


def test_pair_deterministic():
    problem = harmonic_problem()
    first = make_pair(problem, 2.0)
    second = make_pair(problem, 2.0)
    assert np.array_equal(dense_bump(first), dense_bump(second))
    assert np.array_equal(first.plus.dense(64), second.plus.dense(64))


# -- closed-form bump --------------------------------------------------------

def check_pair_like_the_cli(problem, pair, rho, eps, zeroed):
    """The constraint and per-entry checks the adversarial command makes."""
    bump = dense_bump(pair)
    for i in zeroed:
        assert bump[i - 1] == 0.0
    base_vec = pair.base.dense(bump.size)
    assert abs(float(np.dot(bump, base_vec))) <= 1e-14 * float(
        np.linalg.norm(bump) * np.linalg.norm(base_vec))
    for f in (pair.base, pair.plus, pair.minus):
        assert cone_membership(problem, f).member
        assert f.norm() <= rho * (1 + 1e-10)
    assert solution_separation(problem, pair) >= 2.0 * pair.shift
    if eps is not None:
        run_plus = adaptive_algorithm(problem, pair.plus, eps)
        run_minus = adaptive_algorithm(problem, pair.minus, eps)
        assert run_plus.cost == run_minus.cost
        assert np.array_equal(run_plus.values, run_minus.values)


def test_pair_bump_sits_at_lowest_free_index_where_base_vanishes():
    problem = harmonic_problem()
    # the base is nonzero exactly at n_1..n_6; n_0 = 1 is no exception
    support = {problem.partition.boundary(k) for k in range(1, 7)}
    for zeroed in ((), (1, 2, 5), (1, 2, 3), (1, 2, 3, 5, 6)):
        pair = fooling_pair(problem, 2.0, 1.0, 6, zeroed)
        expected = min(i for i in range(1, pair.bump.size + 1)
                       if i not in zeroed and i not in support)
        assert np.flatnonzero(dense_bump(pair)).tolist() == [expected - 1]


def test_pair_two_coordinate_bump_when_only_boundaries_are_free():
    # four coordinates, zeroed 1 and 3: the free ones, 2 and 4, are both
    # boundaries, so the bump rotates the base within them
    problem = unit_problem()
    rho = 1.0
    pair = fooling_pair(problem, 1.0, rho, 2, (1, 3))
    base_vec = pair.base.dense(4)
    bump = dense_bump(pair)
    assert np.flatnonzero(bump).tolist() == [1, 3]
    assert bump[1] * base_vec[3] > 0.0 and bump[3] * base_vec[1] < 0.0
    check_pair_like_the_cli(problem, pair, rho, None, (1, 3))


def test_pair_at_dimension_two_to_the_fourteen():
    problem = harmonic_problem()
    rho, eps, blocks = 1.0, 1e-3, 14
    probe = fooling_input(problem, 2.0, rho, blocks)
    zeroed = range(1, adaptive_algorithm(problem, probe, eps).cost + 1)
    pair = fooling_pair(problem, 2.0, rho, blocks, zeroed)
    assert pair.bump.size == 2 ** 14
    check_pair_like_the_cli(problem, pair, rho, eps, zeroed)
