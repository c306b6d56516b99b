"""Time-dependent frequency profiles.

A profile is the function omega(t) driving the oscillator together with the
asymptotic frequencies it connects.  Three kinds are supported:

* ``tanh``: smooth ramp (omega_f + omega_0)/2 + (omega_f - omega_0)/2 *
  tanh((t - t0)/epsilon), switching over a window of width ~6*epsilon
  centred on t0.
* ``jump``: instantaneous switch at t0 (the epsilon -> 0 limit).
* ``sampled``: tabulated (t, omega) pairs, linearly interpolated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import caller_stacklevel, require_finite

_TAIL_FACTOR = 3.0  # the ramp is within 0.25% of its asymptotes beyond 3 epsilon


@dataclass(frozen=True)
class FrequencyProfile:
    """Evaluable omega(t) plus the transition metadata.

    A tanh ramp has epsilon > 0 and a jump epsilon 0.  Only the sampled kind
    holds samples: at least two (t, omega) pairs with finite, strictly
    increasing times and positive, finite frequencies, the last of which is
    omegaf.  Its t0 and epsilon are unused, and omega0 fixes the reference
    basis (sampled_profile defaults it to the first tabulated frequency).
    """

    kind: str
    omega0: float
    omegaf: float
    t0: float = 10.0
    epsilon: float = 0.0
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("tanh", "jump", "sampled"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if (self.kind == "sampled") != (self.samples is not None):
            raise ValueError(f"samples belong to the sampled kind alone (kind {self.kind!r})")
        if self.samples is not None:
            if len(self.samples) < 2:
                raise ValueError(f"need at least 2 samples, got {len(self.samples)}")
            times, omegas = np.array(self.samples, dtype=float).T
            if not np.all(np.diff(times) > 0.0) or not np.isfinite(times).all():
                raise ValueError("sample times must be finite and strictly increasing")
            require_finite("sampled frequencies", omegas)
            if self.omegaf != omegas[-1]:
                raise ValueError(f"omegaf {self.omegaf} is not the last sample's {omegas[-1]}")
        require_finite("frequencies", self.omega0, self.omegaf)
        require_finite("t0", self.t0, positive=False)
        require_finite("epsilon", self.epsilon, positive=False)
        if self.kind == "tanh" and self.epsilon == 0.0:
            raise ValueError("a tanh ramp needs epsilon > 0; epsilon 0 is a jump")
        if self.kind == "jump" and self.epsilon != 0.0:
            raise ValueError(f"a jump has epsilon 0, got {self.epsilon}")

    def __call__(self, t):
        return eval_omega(self, t)


def tanh_profile(
    omega0: float = 1.0, omegaf: float = 3.0, t0: float = 10.0, epsilon: float = 0.5
) -> FrequencyProfile:
    """Smooth ramp between omega0 and omegaf; epsilon = 0 degenerates to a jump."""
    if epsilon == 0.0:
        return jump_profile(omega0, omegaf, t0)
    p = FrequencyProfile("tanh", omega0, omegaf, t0, epsilon)
    if t0 < _TAIL_FACTOR * epsilon:
        warnings.warn(
            f"transition window starts before t = 0 (t0 = {t0}, epsilon = {epsilon}); "
            f"the state at t = 0 is not the asymptotic vacuum",
            UserWarning,
            stacklevel=caller_stacklevel(),
        )
    return p


def jump_profile(omega0: float = 1.0, omegaf: float = 3.0, t0: float = 10.0) -> FrequencyProfile:
    """Instantaneous frequency switch at t0."""
    return FrequencyProfile("jump", omega0, omegaf, t0, 0.0)


def sampled_profile(
    samples, omega0: float | None = None
) -> FrequencyProfile:
    """Profile interpolating tabulated (t, omega) pairs.

    omega0 overrides the reference basis frequency; it defaults to the first
    tabulated omega.
    """
    pts = tuple((float(t), float(w)) for t, w in samples)
    omegas = [w for _, w in pts] or [float("nan")]  # an empty table fails the profile's own check
    ref = omegas[0] if omega0 is None else float(omega0)
    return FrequencyProfile("sampled", ref, omegas[-1], 0.0, 0.0, pts)


def load_samples(path) -> FrequencyProfile:
    """Read a sampled profile from a two-column text file.

    Columns are (t, omega), separated by whitespace or commas; '#' starts a
    comment.
    """
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].replace(",", " ").strip()
            if not body:
                continue
            fields = body.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two columns, got {len(fields)}"
                )
            try:
                pts.append((float(fields[0]), float(fields[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(pts) < 2:
        raise ValueError(f"{path}: need at least 2 samples, got {len(pts)}")
    return sampled_profile(pts)


def eval_omega(p: FrequencyProfile, t):
    """Frequency at time t (scalar or array)."""
    t_arr = np.asarray(t, dtype=float)
    if p.kind == "tanh":
        mid = 0.5 * (p.omegaf + p.omega0)
        amp = 0.5 * (p.omegaf - p.omega0)
        out = mid + amp * np.tanh((t_arr - p.t0) / p.epsilon)
    elif p.kind == "jump":
        out = np.where(t_arr < p.t0, p.omega0, p.omegaf)
    else:
        times = np.array([s[0] for s in p.samples])
        omegas = np.array([s[1] for s in p.samples])
        if np.any(t_arr < times[0]) or np.any(t_arr > times[-1]):
            raise ValueError(
                f"time outside sampled range [{times[0]}, {times[-1]}]"
            )
        out = np.interp(t_arr, times, omegas)
    if np.ndim(t) == 0:
        return float(out)
    return out


def epsilon_from_slope(omega0: float, omegaf: float, slope: float) -> float:
    """Ramp width that realises a given frequency slope at the midpoint."""
    require_finite("frequencies", omega0, omegaf)
    if slope == 0.0 or not np.isfinite(slope):
        raise ValueError(f"slope must be finite and nonzero, got {slope}")
    eps = (omegaf - omega0) / (2.0 * slope)
    if eps < 0.0:
        raise ValueError(
            f"slope {slope} has the wrong sign for a ramp from {omega0} to {omegaf}"
        )
    return eps


def transition_interval(p: FrequencyProfile) -> tuple[float, float]:
    """Interval (t0 - 3 epsilon, t0 + 3 epsilon) holding the frequency switch."""
    if p.kind == "sampled":
        raise ValueError("transition interval is undefined for sampled profiles")
    return (p.t0 - _TAIL_FACTOR * p.epsilon, p.t0 + _TAIL_FACTOR * p.epsilon)
