"""Plain-text serialisation of trajectories, summaries, sweeps and fits.

Everything here is byte-deterministic: a given input always produces the
same text, with floats printed as lowercase scientific notation at 12
significant digits.  No timestamps, hostnames or versions are embedded.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .analytic import ContourGrid, FitResult, SweepPoint, fitted_sp
from .evolution import PostTransitionSummary, Trajectory


FLOAT_FORMAT = "%.11e"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


_BLOCK_ROWS = 4096


def _table(header: str, *columns) -> str:
    """CSV text of equal-length float columns under header, every field in
    FLOAT_FORMAT; formatted in blocks of _BLOCK_ROWS rows, one % per block."""
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FORMAT] * len(columns))
    blocks = [header]
    for i in range(0, len(table), _BLOCK_ROWS):
        rows = table[i : i + _BLOCK_ROWS]
        blocks.append("\n".join([row] * len(rows)) % tuple(rows.ravel().tolist()))
    blocks.append("")  # the final newline, without copying the whole text again
    return "\n".join(blocks)


def _value_text(val) -> str:
    """A report value: a bool as true/false, None as none, an integer or a
    str as itself, anything else in FLOAT_FORMAT."""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if val is None:
        return "none"
    if isinstance(val, (int, np.integer, str)):
        return str(val)
    return format_float(val)


def report(items) -> str:
    """`key = value` lines, one per (key, value) pair."""
    return "".join(f"{key} = {_value_text(val)}\n" for key, val in items)


TRAJECTORY_HEADER = "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"


def trajectory_csv(traj: Trajectory) -> str:
    return _table(TRAJECTORY_HEADER, traj.t, traj.omega, traj.rho, traj.chi.real,
                  traj.chi.imag, traj.r, traj.phi, traj.R, traj.Phi)


def summary_text(traj: Trajectory, summary: PostTransitionSummary | None = None) -> str:
    p = traj.profile
    sampled = p.kind == "sampled"  # a tabulated profile has no ramp centre or width
    items: list[tuple[str, object]] = [
        ("profile_kind", p.kind),
        ("omega0", p.omega0),
        ("omegaf", p.omegaf),
        ("epsilon", None if sampled else p.epsilon),
        ("t0", None if sampled else p.t0),
        ("t_start", traj.t[0]),
        ("t_end", traj.t[-1]),
        ("n_slices", traj.n_slices),
        ("n_records", len(traj)),
        ("converged", traj.converged),
        ("achieved_delta", traj.achieved_delta),
        ("unitarity_defect", traj.unitarity_defect()),
        ("r_end", traj.r[-1]),
        ("phi_end", traj.phi[-1]),
        ("R_end", traj.R[-1]),
        ("Phi_end", traj.Phi[-1]),
    ]
    if summary is not None:
        items += [
            ("window_start", summary.window[0]),
            ("window_end", summary.window[1]),
            ("r_min", summary.r_min),
            ("r_max", summary.r_max),
            ("r_midpoint", summary.r_midpoint),
            ("amplitude", summary.amplitude),
            ("period", summary.period),
            ("n_maxima", summary.n_maxima),
            ("R_final", summary.R_final),
            ("R_std", summary.R_std),
        ]
    return report(items)


SWEEP_HEADER = "epsilon,R_sim,R_formula,rel_err"


def sweep_csv(points: list[SweepPoint], omega0: float, omegaf: float) -> str:
    """Sweep results next to the secant formula, one row per ramp width.

    rel_err is |sim - formula| / formula; failed cells carry nan.
    """
    eps = np.array([pt.epsilon for pt in points], dtype=float)
    sim = np.array([pt.R_final for pt in points], dtype=float)
    ref = fitted_sp(omega0, omegaf, eps)
    ok = np.array([pt.error is None for pt in points], dtype=bool) & (ref > 0.0)
    rel = np.abs(sim - ref) / np.where(ok, ref, np.nan)
    return _table(SWEEP_HEADER, eps, sim, ref, rel)


CONTOUR_HEADER = "ratio,omega0_eps,R"


def contour_csv(grid: ContourGrid) -> str:
    ratios, xs = np.meshgrid(grid.ratios, grid.omega0_eps, indexing="ij")
    return _table(CONTOUR_HEADER, ratios.ravel(), xs.ravel(), grid.R.ravel())


def fit_text(fit: FitResult) -> str:
    """One `key = value` line per FitResult field, in field order."""
    return report(dataclasses.asdict(fit).items())


def write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
