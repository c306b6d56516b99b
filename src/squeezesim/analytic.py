"""Closed-form oracles, parameter sweeps and the decay-constant fit.

The sudden-switch limit admits a closed form for the squeeze magnitude, and
the final instantaneous-basis squeezing across ramp widths is approximated
by a hyperbolic-secant decay in epsilon.  This module evaluates both, runs
the simulation sweeps that they are compared against, and fits the two
decay constants of the secant ansatz to sweep data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDataError,
    FitConditionWarning,
    ValidityWarning,
    caller_stacklevel,
)
from .evolution import SimulationConfig, window_means
from .frequency import tanh_profile

_VALIDITY_RATIO = 10.0

# Default sweep lattice: ratios crossed with ramp widths, both directions,
# covering the sudden through the deep-adiabatic regime.
SWEEP_RATIOS = (1.5, 2.0, 3.0, 4.0, 5.0)
SWEEP_EPSILONS = (0.0, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0)
# Ladder seed of every sweep, in the library and the CLI: a CF4 cell
# converges on R_final from a few hundred slices, and every cell runs at
# least two levels
SWEEP_SLICES = 256


def jump_sp_closed_form(omega0: float, omegaf: float, t):
    """Squeeze magnitude after a sudden frequency switch, t measured from it.

    Equals arcosh(sqrt(1 + A^2 sin^2(omegaf t))) with
    A = (omegaf^2 - omega0^2)/(2 omega0 omegaf); evaluated through arcsinh,
    which is the same function written stably near the zeros.
    """
    if omega0 <= 0.0 or omegaf <= 0.0:
        raise ValueError(f"frequencies must be positive, got {omega0}, {omegaf}")
    amp = (omegaf**2 - omega0**2) / (2.0 * omega0 * omegaf)
    out = np.arcsinh(np.abs(amp * np.sin(omegaf * np.asarray(t, dtype=float))))
    return float(out) if np.ndim(t) == 0 else out


def fitted_sp(omega0: float, omegaf: float, epsilon, c1: float = 2.0, c2: float = 1.0):
    """Secant-decay approximation of the final instantaneous-basis squeezing.

    R = |rho_f| sech(c1 (|rho_f| + c2) omega_min epsilon) with
    omega_min = min(omega0, omegaf).  Calibrated for frequency ratios up to
    10; a ValidityWarning is emitted beyond that.
    """
    if omega0 <= 0.0 or omegaf <= 0.0:
        raise ValueError(f"frequencies must be positive, got {omega0}, {omegaf}")
    eps = np.asarray(epsilon, dtype=float)
    if np.any(eps < 0.0):
        raise ValueError("epsilon must be >= 0")
    ratio = omegaf / omega0
    if ratio > _VALIDITY_RATIO or ratio < 1.0 / _VALIDITY_RATIO:
        warnings.warn(
            f"frequency ratio {ratio:.6g} outside the calibrated range "
            f"[{1.0 / _VALIDITY_RATIO}, {_VALIDITY_RATIO}]",
            ValidityWarning,
            stacklevel=caller_stacklevel(),
        )
    rf = abs(0.5 * np.log(ratio))
    out = rf / np.cosh(c1 * (rf + c2) * min(omega0, omegaf) * eps)
    return float(out) if np.ndim(epsilon) == 0 else out


def adiabaticity_measure(omega0: float, omegaf: float, epsilon: float) -> float:
    """Dimensionless speed of the ramp; values well below 1 mean adiabatic.

    Evaluates the midpoint slope over the natural frequency scales,
    1 / (2 epsilon omega_min (|rho_f| + 1)); epsilon = 0 maps to infinity.
    """
    if omega0 <= 0.0 or omegaf <= 0.0:
        raise ValueError(f"frequencies must be positive, got {omega0}, {omegaf}")
    if omegaf == omega0:
        raise ValueError("degenerate transition: omegaf equals omega0")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        return float("inf")
    rf = abs(0.5 * np.log(omegaf / omega0))
    return 1.0 / (2.0 * epsilon * min(omega0, omegaf) * (rf + 1.0))


def is_adiabatic(
    omega0: float, omegaf: float, epsilon: float, threshold: float = 0.1
) -> bool:
    """Whether the ramp is slow at the given cutoff on the adiabaticity measure."""
    if not threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    return adiabaticity_measure(omega0, omegaf, epsilon) < threshold


class SweepPoint(NamedTuple):
    """One sweep cell: ramp width, final squeezing, error text if it failed."""

    epsilon: float
    R_final: float
    error: str | None = None


def _sweep_points(cells, cfg: SimulationConfig | None) -> list[SweepPoint]:
    """R_final of tanh ramps (omega0, omegaf, eps) through one window_means;
    every profile is built first, so an invalid width or frequency raises
    ValueError before any cell steps.  cfg None seeds at SWEEP_SLICES."""
    cfg = cfg or SimulationConfig(n_slices=SWEEP_SLICES)
    profiles = [tanh_profile(omega0, omegaf, epsilon=eps) for omega0, omegaf, eps in cells]
    means = window_means(profiles, cfg)
    points = []
    for (_, omegaf, eps), mean in zip(cells, means):
        error = None
        if mean.error is not None:
            error = f"{type(mean.error).__name__}: {mean.error}"
        elif mean.converged is False:
            warnings.warn(
                f"sweep cell (omegaf={omegaf:g}, eps={eps:g}) did not converge: "
                f"n_slices {mean.n_slices}, last delta {mean.achieved_delta:.3g} "
                f"(tol {cfg.convergence_tol:g})",
                UserWarning,
                stacklevel=caller_stacklevel(),
            )
        points.append(SweepPoint(eps, mean.R_final, error))
    return points


def sweep_final_sp(
    omega0: float,
    omegaf: float,
    epsilons,
    cfg: SimulationConfig | None = None,
) -> list[SweepPoint]:
    """Final squeezing across ramp widths for one frequency pair.

    One window_means call runs every cell: its ladder tests what the cell
    reports, R over the post-transition window and its mean R_final, at
    every slice, so cfg.record_stride does not change a result; cfg None
    seeds it at SWEEP_SLICES, as the CLI does.  An invalid width or
    frequency raises ValueError before any cell steps.  A cell whose window
    is shorter than three periods pi/omegaf, or that fails as it climbs, is
    reported in its point; one that reaches n_max unconverged keeps its
    value with a UserWarning.  epsilon = 0 runs the jump profile.
    """
    return _sweep_points([(omega0, omegaf, float(e)) for e in epsilons], cfg)


def reference_sweep_data(
    cfg: SimulationConfig | None = None, source: str = "simulation"
) -> list[tuple[float, float, float, float]]:
    """Sweep of the default lattice as (omega0, omegaf, epsilon, R) rows.

    Covers every ratio of SWEEP_RATIOS in both directions, with omega0 = 1,
    crossed with SWEEP_EPSILONS.  source selects simulated final squeezing,
    one sweep over the whole lattice (cfg None seeds it at SWEEP_SLICES),
    or direct evaluation of the secant formula.
    """
    if source not in ("simulation", "formula"):
        raise ValueError(f"source must be 'simulation' or 'formula', got {source!r}")
    pairs = [omegaf for k in SWEEP_RATIOS for omegaf in (float(k), 1.0 / float(k))]
    cells = [(1.0, omegaf, float(eps)) for omegaf in pairs for eps in SWEEP_EPSILONS]
    if source == "formula":
        return [(*cell, fitted_sp(*cell)) for cell in cells]
    data = []
    for cell, point in zip(cells, _sweep_points(cells, cfg)):
        if point.error is not None:
            warnings.warn(
                f"sweep cell (omegaf={cell[1]}, eps={cell[2]}) failed: {point.error}",
                UserWarning,
                stacklevel=caller_stacklevel(),
            )
            continue
        data.append((*cell, point.R_final))
    return data


@dataclass(frozen=True)
class FitResult:
    """Fitted decay constants of the secant ansatz."""

    c1: float
    c2: float
    residual_rms: float
    n_points: int
    grid: str


def fit_ansatz(sweep_data) -> FitResult:
    """Least-squares fit of the secant decay constants (c1, c2).

    sweep_data rows are (omega0, omegaf, epsilon, R_final).  Residuals are
    taken in R and minimised by damped Gauss-Newton from the starting point
    (1, 0.5), with the analytic Jacobian and Levenberg's damping on the
    diagonal of the normal matrix (Marquardt's scaling), then polished by
    undamped Gauss-Newton steps for as long as they shrink.  The model is
    even in c1, so its sign is normalised to +.
    """
    pts = [(float(o0), float(of), float(e), float(r)) for o0, of, e, r in sweep_data]
    if len(pts) < 2:
        raise DegenerateDataError(f"need at least 2 data points, got {len(pts)}")
    if all(e == 0.0 for _, _, e, _ in pts):
        raise DegenerateDataError(
            "all data points have epsilon = 0; the decay constants are unconstrained"
        )
    rho_mags = {round(abs(0.5 * np.log(of / o0)), 12) for o0, of, _, _ in pts}
    if len(rho_mags) < 2:
        warnings.warn(
            "single frequency ratio in fit data: c1 and c2 are only jointly "
            "constrained and c2 is poorly determined",
            FitConditionWarning,
            stacklevel=caller_stacklevel(),
        )

    o0s, ofs, eps, robs = np.array(pts).T
    rfs = np.abs(0.5 * np.log(ofs / o0s))
    wmin = np.minimum(o0s, ofs)

    def residuals(c):
        """Residuals in R and their Jacobian in (c1, c2)."""
        # cosh overflow in a trial step is benign: the model value
        # underflows to 0, the cost rises and the step is rejected
        with np.errstate(over="ignore"):
            z = c[0] * (rfs + c[1]) * wmin * eps
            f = rfs / np.cosh(z)
        g = -f * np.tanh(z) * wmin * eps
        return f - robs, np.column_stack([g * (rfs + c[1]), g * c[0]])

    c, lam = np.array([1.0, 0.5]), 1e-3
    res, jac = residuals(c)
    if not np.isfinite(res).all():
        raise ValueError("fit residuals are not finite at the starting point")
    for _ in range(200):
        jtj = jac.T @ jac
        try:
            step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jac.T @ res)
        except np.linalg.LinAlgError:  # singular: a failed step raises the damping
            step = np.full(2, np.nan)
        trial, trial_jac = residuals(c + step)
        if trial @ trial < res @ res:
            c, res, jac, lam = c + step, trial, trial_jac, lam / 10.0
        elif lam > 1e12:  # no descent even along the scaled gradient
            break
        else:
            lam *= 10.0
    # Near the optimum rounding decides whether a step lowers the cost, so
    # the damped loop can stop short of it; undamped Gauss-Newton steps end
    # there, taken while they keep shrinking
    size = np.inf
    for _ in range(50):
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if not np.linalg.norm(step) < size:  # a non-finite step stops too
            break
        c, size = c + step, np.linalg.norm(step)
        res, jac = residuals(c)
    c1, c2 = float(abs(c[0])), float(c[1])
    if np.linalg.cond(jac) > 1e8:
        warnings.warn(
            "fit Jacobian nearly rank deficient; c1 and c2 trade off freely",
            FitConditionWarning,
            stacklevel=caller_stacklevel(),
        )
    rms = float(np.sqrt(np.mean(res**2)))
    grid = (
        f"{len(pts)} points, ratio in [{float(np.min(ofs / o0s)):.6g}, "
        f"{float(np.max(ofs / o0s)):.6g}], eps in [{float(np.min(eps)):.6g}, "
        f"{float(np.max(eps)):.6g}]"
    )
    return FitResult(c1, c2, rms, len(pts), grid)


@dataclass(frozen=True)
class ContourGrid:
    """Final squeezing over a (ratio, omega0*epsilon) lattice with omega0 = 1."""

    ratios: np.ndarray
    omega0_eps: np.ndarray
    R: np.ndarray
    mode: str
    source: str


def contour_grid(
    ratio_range: tuple[float, float],
    epsilon_range: tuple[float, float],
    n_ratio: int,
    n_eps: int,
    mode: str = "above-unity",
    source: str = "formula",
    cfg: SimulationConfig | None = None,
) -> ContourGrid:
    """Tensor grid of final squeezing versus ratio and ramp width.

    mode fixes which side of unity the ratio axis lives on; values beyond
    the calibrated ratio range trigger per-cell warnings but are still
    evaluated.  source 'formula' evaluates the secant approximation,
    'simulation' runs a converged propagation per cell, all cells as one
    sweep.
    """
    if mode not in ("above-unity", "below-unity"):
        raise ValueError(f"mode must be 'above-unity' or 'below-unity', got {mode!r}")
    if source not in ("formula", "simulation"):
        raise ValueError(f"source must be 'formula' or 'simulation', got {source!r}")
    lo, hi = float(ratio_range[0]), float(ratio_range[1])
    elo, ehi = float(epsilon_range[0]), float(epsilon_range[1])
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"ratio range must be positive, finite and increasing, got {ratio_range}")
    if not 0.0 <= elo < ehi < np.inf:
        raise ValueError(f"epsilon range must be >= 0, finite and increasing, got {epsilon_range}")
    if n_ratio < 2 or n_eps < 2:
        raise ValueError("need at least 2 points per axis")
    if mode == "above-unity" and lo <= 1.0:
        raise ValueError(f"above-unity mode needs ratios > 1, got {ratio_range}")
    if mode == "below-unity" and hi >= 1.0:
        raise ValueError(f"below-unity mode needs ratios < 1, got {ratio_range}")
    ratios = np.linspace(lo, hi, n_ratio)
    xs = np.linspace(elo, ehi, n_eps)
    big_r = np.empty((n_ratio, n_eps))
    if source == "formula":
        for i, k in enumerate(ratios):
            big_r[i] = fitted_sp(1.0, float(k), xs)
    else:
        cells = [(1.0, k, x) for k in ratios.tolist() for x in xs.tolist()]
        points = _sweep_points(cells, cfg)
        for (_, k, x), point in zip(cells, points):
            if point.error is not None:
                warnings.warn(
                    f"contour cell {k, x} failed: {point.error}",
                    UserWarning,
                    stacklevel=caller_stacklevel(),
                )
        big_r[:] = np.reshape([point.R_final for point in points], big_r.shape)
    return ContourGrid(ratios, xs, big_r, mode, source)
