"""Closed-form classification and numerical verification of synchronized
radial solutions of a doubly critical elliptic system with an inverse-square
potential."""

from .errors import (BracketError, ConvergenceError, DomainError,
                     IntegrationError, ParameterError, TrajectoryError)
from .params import (DerivedConstants, ProblemParams, amplitude,
                     critical_exponent, derived_constants, hardy_constant,
                     tau_exponents)
from .profiles import (AsymptoticData, ScalarProfile, asymptotic_limits,
                       aubin_talenti_value, hardy_weight, hardy_weight_dx1,
                       kelvin_transform, scalar_equation_residual,
                       weighted_transform)
from .coupling import (CouplingRoot, SynchronizedFamily, classify,
                       constants_from_root, coupling_f, coupling_f_prime,
                       endpoint_signs, find_positive_roots,
                       verify_constants_system)
from .emdenfowler import (EFState, EFTrajectory, ef_energy, ef_rhs,
                          ef_system_residual, exact_ef_solution,
                          exact_trajectory, integrate, proportionality_defect,
                          radial_system_residual, shoot_synchronized,
                          simultaneous_max_check, weighted_system_residual)
from .verify import (CheckResult, RadialGrid, VerificationReport,
                     convergence_order, fd_derivative, full_verification)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticData", "BracketError", "CheckResult", "ConvergenceError",
    "CouplingRoot", "DerivedConstants", "DomainError", "EFState",
    "EFTrajectory", "IntegrationError", "ParameterError", "ProblemParams",
    "RadialGrid", "ScalarProfile", "SynchronizedFamily", "TrajectoryError", "VerificationReport",
    "amplitude", "asymptotic_limits", "aubin_talenti_value", "classify",
    "constants_from_root", "convergence_order", "coupling_f",
    "coupling_f_prime", "critical_exponent", "derived_constants", "ef_energy",
    "ef_rhs", "ef_system_residual", "endpoint_signs", "exact_ef_solution",
    "exact_trajectory", "fd_derivative", "find_positive_roots",
    "full_verification", "hardy_constant", "hardy_weight", "hardy_weight_dx1",
    "integrate", "kelvin_transform", "proportionality_defect",
    "radial_system_residual", "scalar_equation_residual",
    "shoot_synchronized", "simultaneous_max_check", "tau_exponents",
    "verify_constants_system", "weighted_system_residual",
    "weighted_transform",
]
