"""Exception and warning types, and the input check, shared across the package."""

import math
import sys

import numpy as np


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


def require_finite(name: str, *values, positive: bool = True) -> None:
    """Raise ValueError unless every value, a scalar or an array, is finite
    and > 0 (a frequency), or finite and >= 0 with positive False (a width)."""
    for value in values:
        if isinstance(value, (int, float)):  # numpy's per-call cost is 20x a compare's
            ok = 0.0 < value < math.inf if positive else 0.0 <= value < math.inf
        else:
            arr = np.asarray(value, dtype=float)
            ok = ((arr > 0.0 if positive else arr >= 0.0) & (arr < np.inf)).all()
        if not ok:
            bound = "positive and finite" if positive else "finite and >= 0"
            raise ValueError(f"{name} must be {bound}, got {', '.join(map(str, values))}")
