"""Closed-form oracles, parameter sweeps and the decay-constant fit.

The sudden-switch limit admits a closed form for the squeeze magnitude, and
the final instantaneous-basis squeezing across ramp widths is approximated
by a hyperbolic-secant decay in epsilon.  This module evaluates both, runs
the simulation sweeps that they are compared against, and fits the two
decay constants of the secant ansatz to sweep data.
"""

from __future__ import annotations

import sys
import warnings
from typing import NamedTuple

import numpy as np

from .algebra import rho_of
from .errors import (
    DegenerateDataError,
    FitConditionWarning,
    ValidityWarning,
    caller_stacklevel,
    require_finite,
)
from .evolution import SimulationConfig, window_means
from .frequency import tanh_profile

_VALIDITY_RATIO = 10.0

# Default sweep lattice: ratios crossed with ramp widths, both directions,
# covering the sudden through the deep-adiabatic regime.
SWEEP_RATIOS = (1.5, 2.0, 3.0, 4.0, 5.0)
SWEEP_EPSILONS = (0.0, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0)


def jump_sp_closed_form(omega0: float, omegaf: float, t):
    """Squeeze magnitude after a sudden frequency switch, t measured from it.

    Equals arcosh(sqrt(1 + A^2 sin^2(omegaf t))) with
    A = (omegaf^2 - omega0^2)/(2 omega0 omegaf); evaluated through arcsinh,
    which is the same function written stably near the zeros.
    """
    require_finite("frequencies", omega0, omegaf)
    amp = (omegaf**2 - omega0**2) / (2.0 * omega0 * omegaf)
    out = np.arcsinh(np.abs(amp * np.sin(omegaf * np.asarray(t, dtype=float))))
    return float(out) if np.ndim(t) == 0 else out


def _secant(rf, c1, c2, wmin, eps):
    """The secant ansatz and its argument, (rf sech z, z = c1 (rf + c2) wmin eps) for
    rf = |rho_f| and wmin = omega_min; a wide ramp's cosh overflows, to an R of 0,
    and z is 0 at eps = 0, also where c1 (rf + c2) wmin overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is replaced by 0
        z = np.where(eps == 0.0, 0.0, c1 * (rf + c2) * wmin * eps)
        return rf / np.cosh(z), z


def fitted_sp(omega0: float, omegaf: float, epsilon, c1: float = 2.0, c2: float = 1.0):
    """Secant-decay approximation of the final instantaneous-basis squeezing.

    R = |rho_f| sech(c1 (|rho_f| + c2) omega_min epsilon) with
    omega_min = min(omega0, omegaf).  Calibrated for frequency ratios up to
    10; a ValidityWarning is emitted beyond that.
    """
    require_finite("frequencies", omega0, omegaf)
    eps = np.asarray(epsilon, dtype=float)
    require_finite("epsilon", eps, positive=False)
    ratio = omegaf / omega0
    if ratio > _VALIDITY_RATIO or ratio < 1.0 / _VALIDITY_RATIO:
        # a ratio that under- or overflowed is named by its two frequencies
        named = f"{ratio:.6g}" if sys.float_info.min <= ratio < np.inf else f"{omegaf:.6g}/{omega0:.6g}"
        warnings.warn(
            f"frequency ratio {named} outside the calibrated range "
            f"[{1.0 / _VALIDITY_RATIO}, {_VALIDITY_RATIO}]",
            ValidityWarning,
            stacklevel=caller_stacklevel(),
        )
    out = _secant(abs(rho_of(omegaf, omega0)), c1, c2, min(omega0, omegaf), eps)[0]
    return float(out) if np.ndim(epsilon) == 0 else out


def adiabaticity_measure(omega0: float, omegaf: float, epsilon: float) -> float:
    """Dimensionless speed of the ramp; values well below 1 mean adiabatic.

    Evaluates the midpoint slope over the natural frequency scales,
    1 / (2 epsilon omega_min (|rho_f| + 1)); epsilon = 0 maps to infinity.
    """
    require_finite("frequencies", omega0, omegaf)
    if omegaf == omega0:
        raise ValueError("degenerate transition: omegaf equals omega0")
    require_finite("epsilon", epsilon, positive=False)
    if epsilon == 0.0:
        return float("inf")
    rf = abs(rho_of(omegaf, omega0))
    return float(1.0 / (2.0 * epsilon * min(omega0, omegaf) * (rf + 1.0)))


def is_adiabatic(
    omega0: float, omegaf: float, epsilon: float, threshold: float = 0.1
) -> bool:
    """Whether the ramp is slow at the given cutoff on the adiabaticity measure."""
    if not threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    return bool(adiabaticity_measure(omega0, omegaf, epsilon) < threshold)


class SweepPoint(NamedTuple):
    """One sweep cell: ramp width, final squeezing, error text if it failed."""

    epsilon: float
    R_final: float
    error: str | None = None


def _sweep_points(cells, cfg: SimulationConfig | None) -> list[SweepPoint]:
    """R_final of tanh ramps (omega0, omegaf, eps) through one window_means,
    the only report of a cell: a failed or unconverged one warns once.  A bad
    width or frequency raises ValueError before any cell steps."""
    cfg = cfg or SimulationConfig()
    profiles = [tanh_profile(omega0, omegaf, epsilon=eps) for omega0, omegaf, eps in cells]
    means = window_means(profiles, cfg)
    points = []
    for (_, omegaf, eps), mean in zip(cells, means):
        error = outcome = None
        if mean.error is not None:
            error = f"{type(mean.error).__name__}: {mean.error}"
            outcome = f"failed: {error}"
        elif mean.converged is False:
            delta = ("no comparison, every level below it was too coarse" if mean.achieved_delta is None
                     else f"last delta {mean.achieved_delta:.3g}")
            outcome = f"did not converge: n_slices {mean.n_slices}, {delta} (tol {cfg.convergence_tol:g})"
        if outcome is not None:
            warnings.warn(
                f"sweep cell (omegaf={omegaf:g}, eps={eps:g}) {outcome}",
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
    is SimulationConfig(), the CLI's defaults.  An invalid width or
    frequency raises ValueError before any cell steps.  A cell whose window
    is shorter than three periods pi/omegaf, or that fails as it climbs,
    keeps its error text and a nan R_final; one that reaches n_max keeps its
    value.  Either warns once.  epsilon = 0 runs the jump profile.
    """
    return _sweep_points([(omega0, omegaf, float(e)) for e in epsilons], cfg)


def reference_sweep_data(
    cfg: SimulationConfig | None = None, source: str = "simulation"
) -> list[tuple[float, float, float, float]]:
    """Sweep of the default lattice as (omega0, omegaf, epsilon, R) rows.

    Covers every ratio of SWEEP_RATIOS in both directions, with omega0 = 1,
    crossed with SWEEP_EPSILONS.  source selects simulated final squeezing,
    one sweep over the whole lattice (cfg None is SimulationConfig())
    without its failed cells, or direct evaluation of the secant formula.
    """
    if source not in ("simulation", "formula"):
        raise ValueError(f"source must be 'simulation' or 'formula', got {source!r}")
    pairs = [omegaf for k in SWEEP_RATIOS for omegaf in (float(k), 1.0 / float(k))]
    cells = [(1.0, omegaf, float(eps)) for omegaf in pairs for eps in SWEEP_EPSILONS]
    if source == "formula":
        return [(*cell, fitted_sp(*cell)) for cell in cells]
    points = _sweep_points(cells, cfg)
    return [(*cell, pt.R_final) for cell, pt in zip(cells, points) if pt.error is None]


class FitResult(NamedTuple):
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
    undamped Gauss-Newton steps for as long as they shrink.  The damped loop
    ends at its first accepted step that, at a damping no larger than the
    starting 1e-3, lowers the cost by at most 1e-12 of itself: there rounding
    decides its steps.  The model is even in c1, so its sign is normalised
    to +.
    """
    pts = [(float(o0), float(of), float(e), float(r)) for o0, of, e, r in sweep_data]
    if len(pts) < 2:
        raise DegenerateDataError(f"need at least 2 data points, got {len(pts)}")
    if all(e == 0.0 for _, _, e, _ in pts):
        raise DegenerateDataError(
            "all data points have epsilon = 0; the decay constants are unconstrained"
        )
    o0s, ofs, eps, robs = np.array(pts).T
    rfs = np.abs(rho_of(ofs, o0s))
    if len(set(np.round(rfs, 12).tolist())) < 2:
        warnings.warn(
            "single frequency ratio in fit data: c1 and c2 are only jointly "
            "constrained and c2 is poorly determined",
            FitConditionWarning,
            stacklevel=caller_stacklevel(),
        )
    wmin = np.minimum(o0s, ofs)

    def residuals(c):
        """Residuals in R and their Jacobian in (c1, c2)."""
        # cosh overflow in a trial step is benign: the model value
        # underflows to 0, the cost rises and the step is rejected
        f, z = _secant(rfs, c[0], c[1], wmin, eps)
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
        cost, trial_cost = res @ res, trial @ trial
        if trial_cost < cost:
            c, res, jac = c + step, trial, trial_jac
            if cost - trial_cost <= 1e-12 * cost and lam <= 1e-3:
                break  # arrived: the cost moves at rounding level
            lam /= 10.0
        elif lam > 1e12:  # no descent even along the scaled gradient
            break
        else:
            lam *= 10.0
    # Near the optimum rounding decides whether a step lowers the cost, so
    # the damped loop stops short of it; undamped Gauss-Newton steps end
    # there, taken while they keep shrinking
    size = np.inf
    for _ in range(50):
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(step)
        if not norm < size:  # a non-finite step stops too
            break
        c, size = c + step, norm
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


class ContourGrid(NamedTuple):
    """Final squeezing over a (ratio, omega0*epsilon) lattice with omega0 = 1."""

    ratios: np.ndarray
    omega0_eps: np.ndarray
    R: np.ndarray


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

    mode fixes which side of unity the ratio axis lives on.  source
    'formula' evaluates the secant approximation, with one ValidityWarning
    per ratio beyond the calibrated range, whose values are still given;
    'simulation' runs a converged propagation per cell, all cells as one
    sweep, and a failed cell warns and reads nan.
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
    if source == "formula":
        big_r = np.array([fitted_sp(1.0, float(k), xs) for k in ratios])
    else:
        cells = [(1.0, k, x) for k in ratios.tolist() for x in xs.tolist()]
        big_r = np.reshape([pt.R_final for pt in _sweep_points(cells, cfg)], (n_ratio, n_eps))
    return ContourGrid(ratios, xs, big_r)
