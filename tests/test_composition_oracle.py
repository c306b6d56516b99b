"""The squeeze composition against an independent route to the same coefficients.

The package composes a squeeze with a basis change as one Moebius map of
chi = -tanh(r) e^{i phi}.  The reference here takes the long way instead:
it conjugates the squeeze generator by the Bogoliubov transformation
(cosh rho, sinh rho), which gives the generator coefficients lambda, and
disentangles the product with sinh and cosh of r and rho.  It shares no
code with the package.
"""

import numpy as np

from squeezesim import (
    SimulationConfig,
    SqueezeParams,
    bogoliubov_coeffs,
    compose_bch,
    propagate_converged,
    tanh_profile,
)


def lambda_route(r, phi, rho):
    """(alpha, beta, gamma) of squeeze (r, phi) seen from basis rho, through the lambdas."""
    w = np.exp(1j * np.asarray(phi, dtype=float))
    sh, ch = np.sinh(r), np.cosh(r)
    g1, g2 = np.cosh(rho), np.sinh(rho)
    d = ch - g1 * g2 * (w - np.conj(w)) * sh
    lam_p = (np.conj(w) * g2**2 - w * g1**2) * sh / d
    lam_m = (np.conj(w) * g1**2 - w * g2**2) * sh / d
    lam_c = 1.0 / (d * d)
    den = g1 - g2 * lam_m
    return lam_p + g2 * lam_c / den, lam_c / (den * den), (g1 * lam_m - g2) / den


def test_compose_bch_matches_lambda_route():
    rng = np.random.default_rng(14)
    r = np.concatenate([rng.uniform(0.0, 3.0, 400), [0.0, 3.0, 3.0, 1.0]])
    phi = np.concatenate([rng.uniform(-np.pi, np.pi, 400), [0.4, np.pi, -2.0, np.pi]])
    rho = np.concatenate([rng.uniform(-2.0, 2.0, 400), [1.3, 2.0, -2.0, -0.7]])
    for ri, phii, rhoi in zip(r, phi, rho):
        c = compose_bch(SqueezeParams(ri, phii), bogoliubov_coeffs(rhoi))
        for x, ref in zip((c.alpha, c.beta, c.gamma), lambda_route(ri, phii, rhoi)):
            assert abs(x - ref) <= 1e-11 * abs(ref), (ri, phii, rhoi)


def test_trajectory_matches_lambda_route():
    traj = propagate_converged(tanh_profile(1.0, 3.0, 10.0, 0.5), SimulationConfig())
    alpha, beta, _ = lambda_route(traj.r, traj.phi, traj.rho)
    assert np.max(np.abs(traj.R - np.arctanh(np.abs(alpha)))) <= 1e-12
    assert np.max(np.abs(traj.beta_mod - np.abs(beta))) <= 1e-12
    turn = np.exp(1j * traj.Phi) / np.exp(1j * (np.angle(alpha) + np.pi))
    assert np.max(np.abs(np.angle(turn))) <= 1e-12
