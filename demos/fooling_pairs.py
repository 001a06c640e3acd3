"""
Fooling pairs: why adaptive cost cannot be beaten by much
=========================================================

Two inputs that agree on every coefficient an algorithm samples force
that algorithm to return the same answer for both.  If their true
solutions are far apart, the tolerance must exceed half the separation.
This script builds such a pair around the nastiest cone input and shows
the adaptive solver literally cannot tell them apart.
"""

import numpy as np

from adaptlin import (ConeParams, Partition, Problem, SingularSpectrum,
                      adaptive_algorithm, cone_membership, fooling_pair,
                      solution_separation)

problem = Problem(SingularSpectrum.algebraic(1.0, 1.0),
                  Partition.doubling(1),
                  ConeParams(2.0, 0.5))
rho = 1.0
epsilon = 0.05

# Run the solver on the worst-profile base input.  It samples a prefix:
# coefficients 1..cost are the ones it actually looked at.
base_run = adaptive_algorithm(
    problem, fooling_pair(problem, 2.0, rho, 8, ()).base, epsilon)
sampled = range(1, base_run.cost + 1)
print(f"adaptive sampled {base_run.cost} coefficients for eps = {epsilon}")

# Perturb the base up and down along a bump hidden in unsampled
# coordinates.  Both perturbed inputs stay inside the cone and the ball.
pair = fooling_pair(problem, 2.0, rho, 8, sampled)
for name, source in (("base", pair.base), ("plus", pair.plus),
                     ("minus", pair.minus)):
    report = cone_membership(problem, source)
    print(f"{name:>6}: member={report.member} "
          f"worst ratio={report.worst_ratio:.4f} norm={source.norm():.6f}")

run_plus = adaptive_algorithm(problem, pair.plus, epsilon)
run_minus = adaptive_algorithm(problem, pair.minus, epsilon)
# both runs keep a prefix, so equal values mean equal samples
same = np.array_equal(run_plus.values, run_minus.values)
print(f"solver output identical for both: {same}")

# Yet the two true solutions differ by a fixed amount, so no algorithm
# seeing only these samples can be accurate for both inputs at once.
print(f"solution separation  {solution_separation(problem, pair):.6f}")
print(f"twice the step size  {2.0 * pair.shift:.6f}")
