"""Squeezing of a quantum oscillator driven by a time-dependent frequency.

The simulator propagates the vacuum through the frequency profile with the
fourth-order commutator-free Magnus step (CF4: two constant-frequency
half-steps per slice, sampled at the slice's Gauss nodes) and reports the
squeeze magnitude and phase in both the initial basis and the instantaneous
one, together with the closed forms and the secant-decay approximation
they are checked against.
"""

from .algebra import (
    BchCoeffs,
    BogoliubovCoeffs,
    InstSqueezeParams,
    SqueezeParams,
    bch_to_inst,
    bogoliubov_coeffs,
    chi_to_squeeze,
    compose_bch,
    fock_coefficients,
    lambda_coeffs,
    quadrature_variance,
    rho_of,
    variance_cross_basis,
)
from .analytic import (
    ContourGrid,
    FitResult,
    SweepPoint,
    adiabaticity_measure,
    contour_grid,
    fit_ansatz,
    fitted_sp,
    is_adiabatic,
    jump_sp_closed_form,
    reference_sweep_data,
    sweep_final_sp,
)
from .errors import (
    CompositionError,
    DegenerateDataError,
    FitConditionWarning,
    SaturationError,
    SaturationWarning,
    SimulationError,
    StepSingularityError,
    ValidityWarning,
    WindowError,
)
from .evolution import (
    PostTransitionSummary,
    SimulationConfig,
    Trajectory,
    default_t_end,
    post_transition_summary,
    propagate_converged,
    step_coeffs,
)
from .frequency import (
    FrequencyProfile,
    epsilon_from_slope,
    eval_omega,
    jump_profile,
    load_samples,
    sampled_profile,
    tanh_profile,
    transition_interval,
)

__version__ = "0.1.0"

__all__ = [
    "BchCoeffs",
    "BogoliubovCoeffs",
    "CompositionError",
    "ContourGrid",
    "DegenerateDataError",
    "FitConditionWarning",
    "FitResult",
    "FrequencyProfile",
    "InstSqueezeParams",
    "PostTransitionSummary",
    "SaturationError",
    "SaturationWarning",
    "SimulationConfig",
    "SimulationError",
    "SqueezeParams",
    "StepSingularityError",
    "SweepPoint",
    "Trajectory",
    "ValidityWarning",
    "WindowError",
    "adiabaticity_measure",
    "bch_to_inst",
    "bogoliubov_coeffs",
    "chi_to_squeeze",
    "compose_bch",
    "contour_grid",
    "default_t_end",
    "epsilon_from_slope",
    "eval_omega",
    "fit_ansatz",
    "fitted_sp",
    "fock_coefficients",
    "is_adiabatic",
    "jump_profile",
    "jump_sp_closed_form",
    "lambda_coeffs",
    "load_samples",
    "post_transition_summary",
    "propagate_converged",
    "quadrature_variance",
    "reference_sweep_data",
    "rho_of",
    "sampled_profile",
    "step_coeffs",
    "sweep_final_sp",
    "tanh_profile",
    "transition_interval",
    "variance_cross_basis",
]
