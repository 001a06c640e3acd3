"""
Differentiating a random periodic function of three variables
=============================================================

The partial derivative with respect to the first coordinate acts
diagonally on a weighted Fourier basis of the unit cube.  Enumerating
and sorting the 61^3 modes gives a concrete spectrum; a random input is
then differentiated adaptively at ten tolerances.
"""

import time

import numpy as np

from adaptlin import (adaptive_algorithm, cone_membership, default_gamma,
                      derivative_coefficients, derivative_problem,
                      enumerate_derivative_spectrum, evaluate_input,
                      evaluate_solution, random_periodic_input, true_error)

start = time.perf_counter()
mis = enumerate_derivative_spectrum(d=3, k_max=30)
print(f"enumerated {len(mis)} modes "
      f"in {time.perf_counter() - start:.2f} s")
print(f"largest weight {mis.weights[0]:.6f} "
      f"at mode {mis.indices[0].tolist()}")

problem = derivative_problem(mis)
inp = random_periodic_input(3, 30, seed=20250101)
f = derivative_coefficients(mis, inp)

# The draw is random, so cone membership is measured, not assumed.
report = cone_membership(problem, f)
print(f"cone membership: {report.member} "
      f"(worst ratio {report.worst_ratio:.3f} over {report.blocks} blocks)")

print(f"\n{'epsilon':>10} {'cost':>7} {'bound':>10} {'true error':>12}")
for epsilon in np.logspace(1, -1, 10):
    approx = adaptive_algorithm(problem, f, epsilon)
    err = true_error(problem, f, approx)
    print(f"{epsilon:>10.4f} {approx.cost:>7} {approx.error_bound:>10.5f} "
          f"{err:>12.6f}")

# Spot check at one point of the cube: central differences of the input
# against the adaptively computed derivative.
x = (0.3, 0.6, 0.9)
gamma = default_gamma(3)
h = 1e-5
fd = (evaluate_input(inp, gamma, (x[0] + h, x[1], x[2]))
      - evaluate_input(inp, gamma, (x[0] - h, x[1], x[2]))) / (2 * h)
approx = adaptive_algorithm(problem, f, 0.1)
print(f"\ncentral difference  {fd:.6f}")
print(f"approx derivative   {evaluate_solution(approx, mis, x):.6f}")
