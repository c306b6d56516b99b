"""Reference values for the benchmark's answer checks, sharing no code with src/.

Three parts:

* ``mode_function_R`` integrates the classical equation u'' + omega(t)^2 u = 0
  for a tanh ramp, written out here, and reads the final squeezing from the
  mode function;
* ``sudden_R`` is the closed form |ln(omegaf/omega0)|/2 of the sudden switch
  (epsilon = 0);
* ``fit_secant`` fits the secant constants (c1, c2) to such values by its
  own damped Gauss-Newton least squares and gives the bound by which a fit
  to data within a per-point tolerance can move them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

T0 = 10.0  # CLI default transition centre
WINDOW_POINTS = 256


def sudden_R(omega0: float, omegaf: float) -> float:
    """Instantaneous-basis squeezing after a sudden switch: |ln(omegaf/omega0)|/2."""
    return abs(0.5 * math.log(omegaf / omega0))


def mode_function_R(omega0: float, omegaf: float, eps: float, t0: float = T0) -> float:
    """Final instantaneous-basis squeezing of a tanh ramp from the mode function.

    Integrates u'' + omega(t)^2 u = 0 from the omega0 vacuum mode
    u = 1/sqrt(2 omega0), u' = -i omega0 u at t = 0 (DOP853, rtol 1e-12).
    Splitting u into the positive- and negative-frequency modes of the
    instantaneous frequency gives tanh R = |omega u - i u'| / |omega u + i u'|.
    R is averaged over the window the CLI summary uses: from the end of the
    transition, t0 + 3 eps, to three periods pi/omegaf later.
    """
    if eps == 0.0:
        return sudden_R(omega0, omegaf)
    mid, amp = 0.5 * (omegaf + omega0), 0.5 * (omegaf - omega0)

    def omega(t):
        return mid + amp * np.tanh((t - t0) / eps)

    def rhs(t, y):
        return [y[1], -omega(t) ** 2 * y[0]]

    u0 = complex(1.0 / math.sqrt(2.0 * omega0))
    t_open = t0 + 3.0 * eps
    t_end = t_open + 3.0 * math.pi / omegaf
    t_window = np.linspace(t_open, t_end, WINDOW_POINTS + 1)[1:]
    sol = solve_ivp(rhs, (0.0, t_end), [u0, -1j * omega0 * u0], method="DOP853",
                    t_eval=t_window, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"mode-function integration failed: {sol.message}")
    u, du = sol.y
    w = omega(sol.t)
    big_r = np.arctanh(np.abs(w * u - 1j * du) / np.abs(w * u + 1j * du))
    return float(np.mean(big_r))


def _secant_model(c, rf, wmin, eps):
    """Secant ansatz and its Jacobian in (c1, c2)."""
    z = c[0] * (rf + c[1]) * wmin * eps
    f = rf / np.cosh(z)
    g = -f * np.tanh(z) * wmin * eps
    jac = np.column_stack([g * (rf + c[1]), g * c[0]])
    return f, jac


def fit_secant(rows, start=(2.0, 1.0)):
    """Least-squares (c1, c2) of R = |rho_f| sech(c1 (|rho_f| + c2) omega_min eps).

    rows are (omega0, omegaf, eps, R).  Damped Gauss-Newton (Levenberg's
    rule) on residuals in R; returns (c1, c2, pinv) where pinv is the
    pseudo-inverse of the Jacobian at the optimum, so a data change dR
    moves the constants by pinv @ dR to first order.
    """
    arr = np.asarray(rows, dtype=float)
    o0, of, eps, r_obs = arr.T
    rf = np.abs(0.5 * np.log(of / o0))
    wmin = np.minimum(o0, of)
    c = np.array(start, dtype=float)
    lam = 1e-3
    f, jac = _secant_model(c, rf, wmin, eps)
    cost = float(np.sum((f - r_obs) ** 2))
    for _ in range(200):
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jac.T @ (f - r_obs))
        f_new, jac_new = _secant_model(c + step, rf, wmin, eps)
        cost_new = float(np.sum((f_new - r_obs) ** 2))
        if cost_new < cost:
            c, f, jac, cost = c + step, f_new, jac_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if np.max(np.abs(step)) < 1e-13 * (1.0 + np.max(np.abs(c))):
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    # the model is even in c1, so its sign is normalised as the CLI does
    return abs(float(c[0])), float(c[1]), np.linalg.pinv(jac)


def fit_bounds(pinv, point_tol: float) -> tuple[float, float]:
    """Largest first-order shift of (c1, c2) when each R moves by <= point_tol."""
    b1, b2 = point_tol * np.sum(np.abs(pinv), axis=1)
    return float(b1), float(b2)
