"""
Closed-form complexity of periodic function approximation
=========================================================

Approximating a periodic function from its Fourier coefficients has
singular values 1/max(1, floor(i/2))^r, two per frequency.  For this
family the optimal sample count has a closed form, which the scanning
solver must reproduce exactly.
"""

import numpy as np

from adaptlin import (cost_bracket_check, periodic_approximation_cost,
                      periodic_approximation_spectrum)

for r in (1.0, 2.0, 4.0):
    spectrum = periodic_approximation_spectrum(r)
    print(f"smoothness r = {r}")
    for ratio in (10.0, 1e3, 1e6):
        epsilon = 1.0 / ratio
        scanned = spectrum.first_at_or_below(epsilon) - 1
        closed = periodic_approximation_cost(r, epsilon, 1.0)
        print(f"  rho/eps = {ratio:>9.0f}: scan {scanned:>6} "
              f"closed form {closed:>6}  equal: {scanned == closed}")

# The same scan also lands inside the generic cost brackets for plain
# algebraic and geometric spectra.
print("\nbracket checks")
for family, scale, power in (("algebraic", 1.0, 2.0), ("geometric", 1.0, 2.0)):
    report = cost_bracket_check(family, scale, power, 1e-3, 1.0)
    print(f"  {family:<10} cost={report.cost:>5} "
          f"bracket=[{report.lower:.3f}, {report.upper:.3f}) ok={report.ok}")
