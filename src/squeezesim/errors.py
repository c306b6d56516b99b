"""Exception and warning types shared across the package."""

import sys


class SimulationError(Exception):
    """Base class for failures raised by the numerical layers."""


class SaturationError(SimulationError):
    """A squeeze magnitude left the representable range |.| < 1 by more
    than the clamping window."""


class CompositionError(SimulationError):
    """The squeeze composition hit a singular denominator."""


class StepSingularityError(SimulationError):
    """The propagator state became non-finite during stepping."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite propagator state at step {step}")


class WindowError(SimulationError):
    """The requested analysis window is too short or empty."""


class DegenerateDataError(SimulationError):
    """Fit input data cannot constrain the model parameters."""


class SaturationWarning(RuntimeWarning):
    """A squeeze magnitude grazed 1 and was clamped."""


class FitConditionWarning(UserWarning):
    """Fit data leaves a parameter combination poorly constrained."""


class ValidityWarning(UserWarning):
    """Inputs are outside the range where the fitted formula was calibrated."""


def caller_stacklevel() -> int:
    """stacklevel at which a warning issued by the calling function names
    the first frame outside this package, the user's line."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
        __package__ + "."
    ):
        level, frame = level + 1, frame.f_back
    return level
