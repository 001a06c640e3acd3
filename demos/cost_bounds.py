"""
A-priori cost bounds against observed stopping blocks
=====================================================

Before seeing any data, the stopping block of the adaptive solver can be
bounded from the spectrum, the partition, and the cone parameters alone.
This script compares the tight bound, its rough and first-term
simplifications, and the complexity lower bound that certifies essential
optimality.
"""

import numpy as np

from adaptlin import (ConeParams, Partition, Problem, SingularSpectrum,
                      adaptive_algorithm, boundary_ratio, bounds_table,
                      random_cone_member, tolerance_shrink_factor)

problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                  Partition.doubling(1),
                  ConeParams(2.0, 0.5))

# The worst singular-value drop across one block; for lam_i = 1/i with
# doubling boundaries it is exactly 2, attained at every block.
scan = boundary_ratio(problem, 32)
omega = tolerance_shrink_factor(problem.cone, scan.value)
print(f"boundary ratio R    {scan.value}   still growing: {scan.still_growing}")
print(f"tolerance factor    {omega:.6f}")

rng = np.random.default_rng(3)
f = random_cone_member(problem, rng, blocks=14)
rho = f.norm()

print(f"\n{'epsilon':>9} {'observed j*':>12} {'tight':>6} {'rough':>6} "
      f"{'first-term':>11} {'lower at shrunk eps':>20}")
# every bound over the whole tolerance list, largest tolerance first
for row in bounds_table(problem, (0.3, 0.1, 0.03, 0.01), rho):
    observed = adaptive_algorithm(problem, f, row.epsilon).stop_block
    print(f"{row.epsilon:>9} {observed:>12} {row.j_dagger:>6} "
          f"{row.j_dagger_rough:>6} {row.j_dagger_first:>11} "
          f"{row.j_star_lower:>20}")

# observed <= tight <= rough holds always; the tight bound is at most the
# last column + 1, which is what makes the adaptive cost essentially no
# worse than that of the best possible algorithm.
