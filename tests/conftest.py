"""Shared heavy fixtures: the reference runs reused across test modules.

The reference runs and the checks on them come from squeezesim.checks,
which `squeezesim verify` runs too; they are computed once per session.
The mode-function oracle integrates the classical equation of motion
directly and shares no code with the package, so it can tell a wrong
propagator from a wrong reference value.
"""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from squeezesim import SimulationConfig, checks, evolution, reference_sweep_data

T0 = 10.0  # ramp centre of the oracle


@pytest.fixture(scope="session")
def reference_runs():
    """The jump and tanh-ramp runs of squeezesim.checks, keyed "jump" and by width."""
    return checks.reference_runs()


@pytest.fixture(scope="session")
def physics_checks(reference_runs):
    """The squeezesim.checks verdicts on the reference runs, keyed by name."""
    return {c.name: c for c in checks.physics_checks(reference_runs)}


@pytest.fixture
def nan_steps_from(monkeypatch):
    """Install a step coefficient a that is nan from a given step on.

    Steps count from 1 across every call of evolution._step_arrays after
    the install, so the count follows one run through its chunks and levels.
    """

    def install(first_bad: int) -> None:
        step = evolution._step_arrays
        done = 0

        def poisoned(omega, omega0, tau, out=None):
            nonlocal done
            a, b = step(omega, omega0, tau, out)
            a[max(0, first_bad - 1 - done) :] = np.nan
            done += len(a)
            return a, b

        monkeypatch.setattr(evolution, "_step_arrays", poisoned)

    return install


@pytest.fixture
def kernel_calls(monkeypatch):
    """Spy on the two stepping kernels of evolution._propagate.

    The returned list gains ("rows", cells) for each call of
    evolution._step_rows and ("loop", cells) for each call of
    evolution._step_loop, cells being the number of cells it advances.
    """
    calls = []
    for kind in ("rows", "loop"):
        kernel = getattr(evolution, f"_step_{kind}")

        def spy(a, b, chi, rec, per_record, kind=kind, kernel=kernel):
            calls.append((kind, len(chi)))
            return kernel(a, b, chi, rec, per_record)

        monkeypatch.setattr(evolution, f"_step_{kind}", spy)
    return calls


@pytest.fixture(scope="session")
def design_sweep():
    """Simulated final squeezing on the default ratio-by-width lattice."""
    cfg = SimulationConfig(n_slices=4096, record_stride=8, convergence_tol=5e-5)
    return reference_sweep_data(cfg=cfg, source="simulation")


def _mode_function_R(omega0, omegaf, eps):
    """Final instantaneous-basis squeezing of a tanh ramp from the mode function.

    The ramp is centred on T0.  Integrates u'' + omega(t)^2 u = 0 from the
    omega0 vacuum mode u = 1/sqrt(2 omega0), u' = -i omega0 u at t = 0
    (DOP853, rtol 1e-12).  Decomposing u into the positive- and
    negative-frequency modes of the instantaneous frequency gives
    tanh R = |omega u - i u'| / |omega u + i u'|.  R is averaged over the
    window of post_transition_summary: from the end of the transition,
    T0 + 3 eps, to three periods pi/omegaf later (256 evenly spaced times).
    """
    mid, amp = 0.5 * (omegaf + omega0), 0.5 * (omegaf - omega0)

    def omega(t):
        return mid + amp * np.tanh((t - T0) / eps)

    def rhs(t, y):
        return [y[1], -omega(t) ** 2 * y[0]]

    u0 = complex(1.0 / math.sqrt(2.0 * omega0))
    t_open = T0 + 3.0 * eps
    t_end = t_open + 3.0 * math.pi / omegaf
    t_window = np.linspace(t_open, t_end, 257)[1:]
    sol = solve_ivp(rhs, (0.0, t_end), [u0, -1j * omega0 * u0], method="DOP853",
                    t_eval=t_window, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"mode-function integration failed: {sol.message}")
    u, du = sol.y
    w = omega(sol.t)
    big_r = np.arctanh(np.abs(w * u - 1j * du) / np.abs(w * u + 1j * du))
    return float(np.mean(big_r))


@pytest.fixture(scope="session")
def mode_function_oracle():
    """Cached callable (omega0, omegaf, eps) -> final squeezing R."""
    return functools.lru_cache(maxsize=None)(_mode_function_R)
