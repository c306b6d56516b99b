"""Closed-form limits of the mode-function oracle used by the acceptance suite.

The oracle (perfbench/oracle.py, loaded by conftest) is the independent
reference for the propagator, so its own conventions are pinned here
against limits that need no simulation: a constant frequency keeps the
vacuum, and a near-sudden ramp reaches the sudden-limit value
|rho_f| = |ln(omegaf/omega0)|/2.
"""

import math

import pytest


def test_constant_frequency_keeps_vacuum(mode_function_oracle):
    assert mode_function_oracle(1.0, 1.0, 0.5) <= 1e-9


@pytest.mark.parametrize("omegaf", (0.2, 3.0, 5.0))
def test_sudden_limit_reaches_half_log_ratio(mode_function_oracle, omegaf):
    rho_f = abs(0.5 * math.log(omegaf))
    assert abs(mode_function_oracle(1.0, omegaf, 1e-3) - rho_f) <= 1e-4
