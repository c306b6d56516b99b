"""Shared heavy fixtures: the reference runs reused across test modules.

The reference runs and the checks on them come from squeezesim.checks,
which `squeezesim verify` runs too; they are computed once per session.
The mode-function oracle, perfbench/oracle.py, integrates the classical
equation of motion directly and shares no code with the package, so it can
tell a wrong propagator from a wrong reference value.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from squeezesim import SimulationConfig, checks, evolution, reference_sweep_data


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
    """Install a slice map coefficient A that is nan from a given slice on.

    Slices count from 1 across every call of evolution._maps after the
    install, so the count follows one run through its chunks and levels.
    """

    def install(first_bad: int) -> None:
        maps = evolution._maps
        done = 0

        def poisoned(omega, omega0, width, out=None):
            nonlocal done
            a, b, c = maps(omega, omega0, width, out)
            a[max(0, first_bad - 1 - done) :] = np.nan
            done += len(a)
            return a, b, c

        monkeypatch.setattr(evolution, "_maps", poisoned)

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

        def spy(a, b, c, chi, rec, per_record, kind=kind, kernel=kernel):
            calls.append((kind, len(chi)))
            return kernel(a, b, c, chi, rec, per_record)

        monkeypatch.setattr(evolution, f"_step_{kind}", spy)
    return calls


@pytest.fixture(scope="session")
def design_sweep():
    """Simulated final squeezing on the default ratio-by-width lattice."""
    cfg = SimulationConfig(n_slices=4096, record_stride=8, convergence_tol=5e-5)
    return reference_sweep_data(cfg=cfg, source="simulation")


@pytest.fixture(scope="session")
def mode_function_oracle():
    """Cached callable (omega0, omegaf, eps) -> final squeezing R of a tanh
    ramp centred on t0 = 10: the benchmark's perfbench/oracle.py, loaded by
    path since Tier-1 collects only tests/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return functools.lru_cache(maxsize=None)(oracle.mode_function_R)
