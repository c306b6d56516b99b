"""Squeeze-parameter algebra for an oscillator with a rescaled frequency.

The state of a harmonic oscillator driven through a frequency change stays
a vacuum squeezed state at all times.  This module holds the scalar algebra
for such states: conversion from the complex propagator variable to squeeze
magnitude and phase, the hyperbolic (Bogoliubov) coefficients connecting the
ladder operators of two frequency bases, the composition rule that re-expresses
a squeezed state in the instantaneous basis, quadrature variances, and Fock
amplitudes.

A basis change of exponent rho moves the squeeze variable chi = -tanh(r) e^{i phi}
by the disc automorphism chi -> (chi + t)/(1 + t chi), t = tanh(rho) (Perelomov,
Generalized Coherent States, 1986, ch. 5).

Conventions
-----------
* Squeeze phases live on the principal branch (-pi, pi].  Conversions from a
  complex variable c use r = artanh|c| and phi = arg(c) + pi wrapped back to
  the principal branch, so the vacuum (c = 0) reports phi = pi.
* Magnitudes that graze 1 from above by at most 1e-12 (rounding) are clamped
  to 1 - 1e-15 with a SaturationWarning, which names the first calling line
  outside the package; anything further out raises SaturationError.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .errors import (
    CompositionError,
    SaturationError,
    SaturationWarning,
    caller_stacklevel,
    require_finite,
)
from .records import Record

_CLAMP_WINDOW = 1e-12
_CLAMP_TO = 1.0 - 1e-15
_UNITARITY_TOL = 1e-10
# the largest |rho| whose cosh and sinh are finite floats lies just below this
_RHO_LIMIT = float(np.arccosh(np.finfo(float).max))

def _wrap_angle(x):
    """Wrap an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def _clamped_magnitude(mag, what: str):
    """Clamp magnitudes grazing 1; raise beyond the clamping window."""
    mag = np.asarray(mag, dtype=float)
    over = mag > 1.0 + _CLAMP_WINDOW
    if over.any():
        raise SaturationError(
            f"{what} magnitude {float(np.max(mag)):.6e} exceeds 1 "
            f"beyond the clamping window"
        )
    near = mag >= 1.0
    n_near = int(np.count_nonzero(near))
    if n_near:
        warnings.warn(
            f"{what} magnitude reached 1; clamped {n_near} value(s)",
            SaturationWarning,
            stacklevel=caller_stacklevel(),
        )
        mag = np.where(near, _CLAMP_TO, mag)
    return mag


class SqueezeParams(Record):
    """Squeeze magnitude and phase relative to the initial basis."""

    __slots__ = ("r", "phi")

    def __init__(self, r: float, phi: float):
        if not np.isfinite(r) or r < 0.0:
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {r}")
        if not np.isfinite(phi):
            raise ValueError(f"squeeze phase must be finite, got {phi}")
        self._store(r, float(_wrap_angle(phi)))


class InstSqueezeParams(Record):
    """Squeeze magnitude and phase relative to the instantaneous basis.

    beta_mod is the modulus of the central coefficient of the disentangled
    composition; it is redundant with R (tanh(R)^2 + beta_mod = 1) and is
    filled in when omitted.  Its phase only multiplies the state by a
    global phase, and fock_coefficients reads beta_mod alone.
    """

    __slots__ = ("R", "Phi", "beta_mod")

    def __init__(self, R: float, Phi: float, beta_mod: float | None = None):
        if not np.isfinite(R) or R < 0.0:
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {R}")
        if not np.isfinite(Phi):
            raise ValueError(f"squeeze phase must be finite, got {Phi}")
        expected = 1.0 - np.tanh(R) ** 2
        if beta_mod is None:
            beta_mod = expected
        elif not 0.0 < beta_mod <= 1.0 or abs(beta_mod - expected) > _UNITARITY_TOL:
            raise ValueError(
                f"beta_mod {beta_mod} inconsistent with R {R} "
                f"(expected {expected})"
            )
        self._store(R, float(_wrap_angle(Phi)), beta_mod)


class BogoliubovCoeffs(Record):
    """Hyperbolic coefficients (gamma1, gamma2) = (cosh rho, sinh rho) mixing
    the ladder operators of two bases, fixed by the exponent rho alone."""

    __slots__ = ("rho",)

    def __init__(self, rho: float):
        if not abs(rho) < _RHO_LIMIT:
            raise ValueError(
                f"rho must be finite with |rho| < {_RHO_LIMIT} "
                f"(cosh overflows beyond), got {rho}"
            )
        self._store(float(rho))

    @property
    def gamma1(self) -> float:
        return float(np.cosh(self.rho))

    @property
    def gamma2(self) -> float:
        return float(np.sinh(self.rho))


class BchCoeffs(Record):
    """Disentangled coefficients of a squeeze followed by a basis change."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: complex, beta: complex, gamma: complex):
        self._store(alpha, beta, gamma)  # the message below shows the record
        if not np.isfinite([self.alpha, self.beta, self.gamma]).all():
            raise ValueError(f"BCH coefficients must be finite, got {self}")
        a = abs(self.alpha)
        if a >= 1.0:
            raise ValueError(f"|alpha| must be < 1, got {a}")
        if abs(a**2 + abs(self.beta) - 1.0) > _UNITARITY_TOL:
            raise ValueError(
                f"|alpha|^2 + |beta| = {a**2 + abs(self.beta)} violates unitarity"
            )


def rho_of(omega, omega0):
    """Basis-change squeeze exponent 0.5*ln(omega/omega0): a float for scalar
    frequencies, else an array; ValueError unless each is positive and finite.
    Where the ratio is not a normal positive float (it under- or overflowed)
    it is 0.5*(ln omega - ln omega0) instead, so no ratio of finite
    frequencies gives an infinite exponent."""
    require_finite("frequencies", omega, omega0)
    with np.errstate(over="ignore"):  # an infinite ratio is taken apart below
        ratio = np.divide(omega, omega0)
    normal = (ratio >= sys.float_info.min) & (ratio < np.inf)  # float_info.min: the smallest normal float
    rho = np.where(normal, 0.5 * np.log(np.where(normal, ratio, 1.0)), 0.5 * (np.log(omega) - np.log(omega0)))
    return float(rho) if np.ndim(rho) == 0 else rho


def _tanh_rho(omega, omega0) -> np.ndarray:
    """t = tanh(rho) = (omega - omega0)/(omega + omega0) of the basis change
    rho_of(omega, omega0), as an array.  Where omega + omega0 overflows both
    terms are halved, which is exact for frequencies that large, so no pair
    of finite frequencies reads t = 0."""
    with np.errstate(over="ignore"):  # an infinite sum is taken apart below
        total = np.add(omega, omega0)
    t, big = np.subtract(omega, omega0) / total, np.isinf(total)
    return np.where(big, (0.5 * omega - 0.5 * omega0) / (0.5 * omega + 0.5 * omega0), t) if big.any() else t


bogoliubov_coeffs = BogoliubovCoeffs


def _squeeze_of(c, what: str):
    """Magnitude and phase arrays (r, phi) of complex squeeze variables c; what labels clamps."""
    c = np.asarray(c, dtype=complex)
    mag = _clamped_magnitude(np.abs(c), what)
    return np.arctanh(mag), _wrap_angle(np.angle(c) + np.pi)


def chi_to_squeeze(chi: complex) -> SqueezeParams:
    """Squeeze parameters of the state encoded by the propagator variable chi.

    Parameters
    ----------
    chi : complex
        Propagator variable with |chi| < 1 (up to the clamping window).

    Returns
    -------
    SqueezeParams
        r = artanh|chi| and phi = arg(chi) + pi on the principal branch.
    """
    if not (np.isfinite(chi.real) and np.isfinite(chi.imag)):
        raise ValueError(f"chi must be finite, got {chi}")
    r, phi = _squeeze_of(chi, "squeeze")
    return SqueezeParams(float(r), float(phi))


def lambda_coeffs(zeta: complex, g: BogoliubovCoeffs) -> tuple[complex, complex, complex]:
    """Generator coefficients of a squeeze written in the transformed basis.

    For a squeeze generator with complex argument zeta, conjugation by the
    basis change g mixes the su(1,1) generators with coefficients
    (lambda_plus, lambda_c, lambda_minus) returned here.  The raising and
    lowering coefficients are related by lambda_minus = -conj(lambda_plus).
    """
    g1, g2 = g.gamma1, g.gamma2
    lp = np.conj(zeta) * g2**2 - zeta * g1**2
    lc = 2.0 * g1 * g2 * (zeta - np.conj(zeta))
    lm = -np.conj(lp)
    return complex(lp), complex(lc), complex(lm)


def _move(chi, t):
    """chi moved by the disc automorphism chi -> (chi + t)/(1 + t chi), and the denominator.

    The moved chi is the alpha of _compose, which readers of alpha alone
    take from here without its beta and gamma.
    """
    den = 1.0 + t * chi
    if (np.abs(den) < 1e-150).any():
        raise CompositionError("singular denominator in squeeze composition")
    return (chi + t) / den, den


def _compose(chi, t):
    """Disentangled composition of the squeeze variable chi with the basis change t = tanh(rho).

    Returns the (alpha, beta, gamma) coefficient arrays of the normal-ordered
    factorization exp(alpha T+) exp(ln(beta) Tc) exp(gamma T-).  alpha is
    chi moved by the disc automorphism (_move).
    """
    chi = np.asarray(chi, dtype=complex)
    alpha, den = _move(chi, t)
    beta = (1.0 - t * t) * (1.0 - np.abs(chi) ** 2) / (den * den)
    gamma = -(np.conj(chi) + t) / den
    return alpha, beta, gamma


def compose_bch(z: SqueezeParams, g: BogoliubovCoeffs) -> BchCoeffs:
    """Re-express a squeezed state in the basis reached by g.

    The state squeezed by (r, phi) in the initial basis, viewed from the
    basis whose ladder operators are mixed by g, is generated by the ordered
    product exp(alpha T+) exp(ln(beta) Tc) exp(gamma T-).  The returned
    coefficients satisfy |alpha|^2 + |beta| = 1 up to rounding.

    Parameters
    ----------
    z : SqueezeParams
        Squeeze of the state in the initial basis.
    g : BogoliubovCoeffs
        Basis change, typically bogoliubov_coeffs(rho_of(omega, omega0)).

    Returns
    -------
    BchCoeffs
    """
    chi = -np.tanh(z.r) * np.exp(1j * z.phi)
    alpha, beta, gamma = _compose(chi, g.gamma2 / g.gamma1)
    return BchCoeffs(complex(alpha), complex(beta), complex(gamma))


def bch_to_inst(c: BchCoeffs) -> InstSqueezeParams:
    """Instantaneous-basis squeeze parameters from composition coefficients."""
    big_r, big_phi = _squeeze_of(c.alpha, "instantaneous squeeze")
    return InstSqueezeParams(float(big_r), float(big_phi), abs(c.beta))


def quadrature_variance(s, lam: float) -> float:
    """Variance of the rotated quadrature at angle lam for a squeezed state.

    Parameters
    ----------
    s : SqueezeParams or InstSqueezeParams
        Squeeze parameters in the basis the quadrature refers to.
    lam : float
        Quadrature rotation angle; lam = 0 is position-like and
        lam = pi/2 momentum-like.

    Returns
    -------
    float
        (e^{2r}/2) sin^2(lam - phi/2) + (e^{-2r}/2) cos^2(lam - phi/2).
    """
    if isinstance(s, SqueezeParams):
        r, phi = s.r, s.phi
    elif isinstance(s, InstSqueezeParams):
        r, phi = s.R, s.Phi
    else:
        raise TypeError(f"expected squeeze parameters, got {type(s).__name__}")
    if not np.isfinite(lam):
        raise ValueError(f"quadrature angle must be finite, got {lam}")
    half = lam - 0.5 * phi
    return float(
        0.5 * np.exp(2.0 * r) * np.sin(half) ** 2
        + 0.5 * np.exp(-2.0 * r) * np.cos(half) ** 2
    )


def variance_cross_basis(var_initial: float, omega: float, omega0: float, which: str) -> float:
    """Map an extremal quadrature variance between frequency bases.

    The position-like (lam = 0) variance picks up a factor omega/omega0 when
    read in the basis of frequency omega; the momentum-like (lam = pi/2)
    variance picks up the inverse factor.  Their product is basis invariant.
    """
    require_finite("variance", var_initial, positive=False)
    require_finite("frequencies", omega, omega0)
    if which == "position":
        return var_initial * omega / omega0
    if which == "momentum":
        return var_initial * omega0 / omega
    raise ValueError(f"which must be 'position' or 'momentum', got {which!r}")


def fock_coefficients(s, n_max: int, min_norm: float | None = None) -> np.ndarray:
    """Even-level Fock amplitudes of a vacuum squeezed state.

    Amplitudes are returned for the levels 0, 2, ..., 2*n_max.  Consecutive
    terms are built by the ratio recurrence
    c_{n+1} = c_n * q * sqrt((2n+1)(2n+2)) / (n+1), which avoids overflowing
    factorials; q encodes the squeeze magnitude and phase.

    Parameters
    ----------
    s : SqueezeParams, InstSqueezeParams or (alpha_mod, vartheta, beta_mod)
        Squeeze parameters, or the composition triple giving the amplitude
        kernel 0.5*alpha_mod*e^{i vartheta} with prefactor beta_mod^{1/4}.
    n_max : int
        Index of the last amplitude (level 2*n_max).
    min_norm : float, optional
        If given, require sum |c_n|^2 >= min_norm and raise otherwise,
        reporting the achieved norm.

    Returns
    -------
    numpy.ndarray of complex, shape (n_max + 1,)
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if isinstance(s, SqueezeParams):
        q = -0.5 * np.tanh(s.r) * np.exp(1j * s.phi)
        c0 = 1.0 / np.sqrt(np.cosh(s.r))
    elif isinstance(s, InstSqueezeParams):
        q = 0.5 * np.tanh(s.R) * np.exp(1j * _wrap_angle(s.Phi - np.pi))
        c0 = s.beta_mod**0.25
    else:
        alpha_mod, vartheta, beta_mod = s
        if not 0.0 <= alpha_mod < 1.0:
            raise ValueError(f"alpha_mod must be in [0, 1), got {alpha_mod}")
        if not 0.0 < beta_mod <= 1.0:
            raise ValueError(f"beta_mod must be in (0, 1], got {beta_mod}")
        q = 0.5 * alpha_mod * np.exp(1j * vartheta)
        c0 = beta_mod**0.25
    n = np.arange(n_max, dtype=float)
    ratios = q * np.sqrt((2.0 * n + 1.0) * (2.0 * n + 2.0)) / (n + 1.0)
    out = np.empty(n_max + 1, dtype=complex)
    out[0] = c0
    if n_max:
        out[1:] = c0 * np.cumprod(ratios)
    if min_norm is not None:
        norm = float(np.sum(np.abs(out) ** 2))
        if norm < min_norm:
            raise ValueError(
                f"achieved norm {norm:.12e} below requested {min_norm:.12e}; "
                f"increase n_max"
            )
    return out
