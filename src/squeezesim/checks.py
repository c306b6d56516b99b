"""Physics checks shared by `squeezesim verify` and the acceptance tests.

reference_runs builds the five propagations the checks read: a sudden jump
and tanh ramps of width 1e-3, 0.5, 1.0 and 1.5, all from omega0 = 1 to
omega_f = 3 around t0 = 10.  physics_checks turns them into named verdicts.
Every reference configuration and every bound the checks apply is written
here and nowhere else.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from . import analytic
from .evolution import (
    PostTransitionSummary,
    SimulationConfig,
    Trajectory,
    post_transition_summary,
    propagate_converged,
)
from .frequency import FrequencyProfile, jump_profile, tanh_profile, transition_interval

OMEGA0, OMEGAF, T0 = 1.0, 3.0, 10.0
RHO_F = 0.5 * math.log(OMEGAF / OMEGA0)
NEAR_SUDDEN = 1e-3
SMOOTH_WIDTHS = (0.5, 1.0, 1.5)
# (omega_f, width, band) at omega0 = 1: points the formula contour must cross
ANCHORS = ((5.0, 0.4, (0.3, 0.4)), (0.2, 0.4, (0.7, 0.8)))


class Run(NamedTuple):
    profile: FrequencyProfile
    traj: Trajectory
    summary: PostTransitionSummary


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def _run(p: FrequencyProfile, cfg: SimulationConfig) -> Run:
    traj = propagate_converged(p, cfg)
    return Run(p, traj, post_transition_summary(traj, p))


def reference_runs() -> dict:
    """The runs the checks read, keyed "jump" and by ramp width."""
    # a jump is propagated exactly at every n; the fixed 2^16 grid is there
    # for its record spacing, which r_max and the period are read from
    jump = SimulationConfig(n_slices=1 << 16, record_stride=16, n_max=1 << 16)
    near = SimulationConfig(n_slices=4096, record_stride=16)
    smooth = SimulationConfig(n_slices=4096, record_stride=4)
    runs = {"jump": _run(jump_profile(OMEGA0, OMEGAF, T0), jump)}
    for eps, cfg in [(NEAR_SUDDEN, near)] + [(eps, smooth) for eps in SMOOTH_WIDTHS]:
        runs[eps] = _run(tanh_profile(OMEGA0, OMEGAF, T0, eps), cfg)
    return runs


def _closed_form_deviation(run: Run) -> float:
    """Sup |r - sudden closed form| from the end of the transition on."""
    p, traj = run.profile, run.traj
    mask = traj.t >= transition_interval(p)[1]
    ref = analytic.jump_sp_closed_form(p.omega0, p.omegaf, traj.t[mask] - p.t0)
    return float(np.max(np.abs(traj.r[mask] - ref)))


def physics_checks(runs: dict, unitarity_tol: float = 1e-10) -> Iterator[Check]:
    """Yield one Check per headline claim, read from reference_runs output."""
    for name, key in (("jump-oracle", "jump"), ("near-sudden-oracle", NEAR_SUDDEN)):
        dev = _closed_form_deviation(runs[key])
        yield Check(name, dev <= 1e-3, f"sup deviation {dev:.3e} (tol 1.0e-03)")

    jump = runs["jump"].summary
    period_ref = math.pi / OMEGAF
    rmax_err = abs(jump.r_max - 2.0 * RHO_F)
    period_err = abs(jump.period - period_ref) / period_ref
    yield Check(
        "jump-extrema",
        rmax_err <= 1e-3 and jump.r_min <= 1e-3 and period_err <= 0.01,
        f"r_max err {rmax_err:.3e}, r_min {jump.r_min:.3e}, "
        f"period rel err {period_err:.3e}",
    )

    smooth = [runs[eps].summary for eps in SMOOTH_WIDTHS]
    mids = [abs(s.r_midpoint - RHO_F) for s in smooth]
    amps = [s.amplitude for s in smooth]
    yield Check(
        "midpoint",
        max(mids) <= 1e-2 and amps[0] > amps[1] > amps[2],
        "|r_mid - ln(3)/2| "
        + ", ".join(f"eps {e}: {m:.2e}" for e, m in zip(SMOOTH_WIDTHS, mids))
        + " (tol 1.0e-02); amplitudes "
        + " > ".join(f"{a:.4f}" for a in amps),
    )

    stds = [s.R_std for s in smooth]
    finals = [s.R_final for s in smooth]
    sudden_err = abs(runs[NEAR_SUDDEN].summary.R_final - RHO_F)
    yield Check(
        "instantaneous-constancy",
        max(stds) < 1e-3 and finals[0] > finals[1] > finals[2] and sudden_err <= 1e-2,
        "post-transition R std "
        + ", ".join(f"{v:.1e}" for v in stds)
        + " (tol 1.0e-03); R_final "
        + " > ".join(f"{v:.4f}" for v in finals)
        + f"; sudden-limit error {sudden_err:.2e} (tol 1.0e-02)",
    )

    defect = max(run.traj.unitarity_defect() for run in runs.values())
    yield Check(
        "unitarity",
        defect <= unitarity_tol,
        f"max defect {defect:.3e} over {len(runs)} runs (tol {unitarity_tol:.1e})",
    )

    fit = analytic.fit_ansatz(analytic.reference_sweep_data(source="formula"))
    yield Check(
        "fit-recovery",
        abs(fit.c1 - 2.0) <= 1e-6 and abs(fit.c2 - 1.0) <= 1e-6,
        f"formula-data fit ({fit.c1:.8f}, {fit.c2:.8f}) vs (2, 1) (tol 1.0e-06)",
    )

    parts, inside = [], []
    for omegaf, width, (lo, hi) in ANCHORS:
        value = analytic.fitted_sp(OMEGA0, omegaf, width)
        inside.append(lo < value < hi)
        parts.append(f"R(ratio {omegaf:g}, {width:g}) = {value:.6f} in ({lo}, {hi}): {inside[-1]}")
    yield Check("contour-anchors", all(inside), "; ".join(parts))
