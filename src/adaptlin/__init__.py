"""Adaptive coefficient-sampling approximation of diagonal linear operators.

The package solves problems of the form "recover S(f) from series
coefficients of f", where S acts diagonally on a known orthonormal basis
with non-increasing singular values.  Inputs are not assumed to lie in a
known ball; instead their block norms must decay steadily (a convex cone
condition), which lets the solver read the reachable accuracy off the data
and stop as soon as a computable error bound meets the tolerance.
"""

from .spectrum import (CoefficientSource, ConeParams, GuardExceeded,
                       MembershipReport, OutOfRangeError, Partition, Problem,
                       SingularSpectrum, block_norm, cone_membership,
                       random_cone_member, tail_norm, tail_norms)
from .algorithm import (Approximation, Walk, adaptive_algorithm,
                        adaptive_sweep, ball_algorithm, ball_budget,
                        interpolate, stop_threshold, true_error,
                        DEFAULT_BLOCK_LIMIT)
from .analysis import (BoundsRow, BracketReport, RatioScan, bounds_table,
                       boundary_ratio, complexity_lower_block,
                       cost_bracket_check, stop_block_bound,
                       stop_block_bound_first_term, stop_block_bound_rough,
                       tolerance_shrink_factor)
from .adversarial import (FoolingCertificate, FoolingPair,
                          fooling_certificates, fooling_input, fooling_inputs,
                          fooling_pair, solution_separation)
from .problems import (MultiIndexSpectrum, RandomPeriodicInput,
                       default_gamma, derivative_coefficients,
                       derivative_problem,
                       derivative_weights, derivative_slice_grid,
                       enumerate_derivative_spectrum, evaluate_input,
                       evaluate_solution, input_slice_grid,
                       periodic_approximation_cost,
                       periodic_approximation_spectrum,
                       random_periodic_input, solution_slice_grid)

__version__ = "0.1.0"

__all__ = [
    "Approximation", "BoundsRow", "BracketReport", "CoefficientSource",
    "ConeParams", "DEFAULT_BLOCK_LIMIT", "FoolingCertificate",
    "FoolingPair", "GuardExceeded", "MembershipReport",
    "MultiIndexSpectrum", "OutOfRangeError", "Partition", "Problem",
    "RandomPeriodicInput", "RatioScan", "SingularSpectrum", "Walk",
    "adaptive_algorithm", "adaptive_sweep",
    "ball_algorithm", "ball_budget", "block_norm", "boundary_ratio",
    "bounds_table", "complexity_lower_block",
    "cone_membership", "cost_bracket_check", "default_gamma",
    "derivative_coefficients", "derivative_problem",
    "derivative_slice_grid", "derivative_weights",
    "enumerate_derivative_spectrum", "evaluate_input", "evaluate_solution",
    "fooling_certificates", "fooling_input", "fooling_inputs",
    "fooling_pair", "input_slice_grid", "interpolate",
    "periodic_approximation_cost", "periodic_approximation_spectrum",
    "random_cone_member", "random_periodic_input", "solution_separation",
    "solution_slice_grid", "stop_block_bound",
    "stop_block_bound_first_term", "stop_block_bound_rough",
    "stop_threshold", "tail_norm", "tail_norms",
    "tolerance_shrink_factor", "true_error",
]
