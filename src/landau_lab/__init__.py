"""
Numerical laboratory for the spatially homogeneous Landau dynamics:
coefficient fields and their closed-form oracles, weight functionals over
dyadic cube families, spectral coercivity curves, a conservative
equilibrium-compatible time stepper, and regularization-rate measurements.
"""

from .coefficients import (
    CoefficientBundle,
    MatrixField,
    a_field,
    a_star_field,
    build_coefficients,
    h_field,
    kernel_constants,
)
from .grid import (
    Cube,
    CubeSet,
    ScalarField,
    VelocityGrid,
    counterexample_profile,
    make_dyadic_cubes,
    make_grid,
    maxwellian,
    read_field,
    shell_profile,
    squeezed_gaussian,
    write_field,
)
from .poincare import LambdaCurve, gks_check, lambda_curve, verify_eps_poincare
from .rates import RateFit, fit_decay, linf_history, moser_report, moser_schedule
from .solver import (
    Trajectory,
    collision_operator,
    entropy,
    entropy_production,
    simulate,
    step,
)
from .weights import WeightReport, a1_constant, ap_constant, doubling_constant, reverse_holder

__version__ = "0.1.0"

__all__ = [
    "CoefficientBundle",
    "Cube",
    "CubeSet",
    "LambdaCurve",
    "MatrixField",
    "RateFit",
    "ScalarField",
    "Trajectory",
    "VelocityGrid",
    "WeightReport",
    "a1_constant",
    "a_field",
    "a_star_field",
    "ap_constant",
    "build_coefficients",
    "collision_operator",
    "counterexample_profile",
    "doubling_constant",
    "entropy",
    "entropy_production",
    "fit_decay",
    "gks_check",
    "h_field",
    "kernel_constants",
    "lambda_curve",
    "linf_history",
    "make_dyadic_cubes",
    "make_grid",
    "maxwellian",
    "moser_report",
    "moser_schedule",
    "read_field",
    "reverse_holder",
    "shell_profile",
    "simulate",
    "squeezed_gaussian",
    "step",
    "verify_eps_poincare",
    "write_field",
]
