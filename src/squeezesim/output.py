"""Plain-text serialisation of trajectories, summaries, sweeps and fits.

Everything here is byte-deterministic: a given input always produces the
same text, with floats printed as lowercase scientific notation at 12
significant digits.  No timestamps, hostnames or versions are embedded.
"""

from __future__ import annotations

import numpy as np

from .analytic import ContourGrid, FitResult, SweepPoint, fitted_sp
from .evolution import PostTransitionSummary, Trajectory


FLOAT_FORMAT = "%.11e"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


TRAJECTORY_HEADER = "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"
_TRAJECTORY_ROW = ",".join([FLOAT_FORMAT] * len(TRAJECTORY_HEADER.split(",")))
_BLOCK_ROWS = 4096


def trajectory_csv(traj: Trajectory) -> str:
    table = np.column_stack(
        (
            traj.t,
            traj.omega,
            traj.rho,
            traj.chi.real,
            traj.chi.imag,
            traj.r,
            traj.phi,
            traj.R,
            traj.Phi,
        )
    )
    blocks = [TRAJECTORY_HEADER]
    for i in range(0, len(table), _BLOCK_ROWS):
        rows = table[i : i + _BLOCK_ROWS]
        template = "\n".join([_TRAJECTORY_ROW] * len(rows))
        blocks.append(template % tuple(rows.ravel().tolist()))
    blocks.append("")  # the final newline, without copying the whole text again
    return "\n".join(blocks)


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
    lines = []
    for key, val in items:
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, (int, np.integer)):
            text = str(int(val))
        elif val is None:
            text = "none"
        elif isinstance(val, str):
            text = val
        else:
            text = format_float(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


SWEEP_HEADER = "epsilon,R_sim,R_formula,rel_err"


def sweep_csv(points: list[SweepPoint], omega0: float, omegaf: float) -> str:
    """Sweep results next to the secant formula, one row per ramp width.

    rel_err is |sim - formula| / formula; failed cells carry nan.
    """
    lines = [SWEEP_HEADER]
    for pt in points:
        ref = fitted_sp(omega0, omegaf, pt.epsilon)
        if pt.error is None and ref > 0.0:
            rel = abs(pt.R_final - ref) / ref
        else:
            rel = float("nan")
        lines.append(
            ",".join(format_float(v) for v in (pt.epsilon, pt.R_final, ref, rel))
        )
    return "\n".join(lines) + "\n"


CONTOUR_HEADER = "ratio,omega0_eps,R"


def contour_csv(grid: ContourGrid) -> str:
    lines = [CONTOUR_HEADER]
    for i, k in enumerate(grid.ratios):
        for j, x in enumerate(grid.omega0_eps):
            lines.append(",".join(format_float(v) for v in (k, x, grid.R[i, j])))
    return "\n".join(lines) + "\n"


def fit_text(fit: FitResult) -> str:
    lines = [
        f"c1 = {format_float(fit.c1)}",
        f"c2 = {format_float(fit.c2)}",
        f"residual_rms = {format_float(fit.residual_rms)}",
        f"n_points = {fit.n_points}",
        f"grid = {fit.grid}",
    ]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
