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

import numpy as np

from .errors import caller_stacklevel, require_finite
from .records import Record

_TAIL_FACTOR = 3.0  # the ramp is within 0.25% of its asymptotes beyond 3 epsilon


class FrequencyProfile(Record):
    """Evaluable omega(t) plus the transition metadata.

    Its kind is read from its fields: samples make it sampled, else epsilon
    > 0 makes a tanh ramp and epsilon 0 a jump.  Samples are at least two
    (t, omega) pairs with finite, strictly increasing times and positive,
    finite frequencies, the last of which is omegaf.  A sampled profile's
    t0 and epsilon are unused, and omega0 fixes the reference basis
    (sampled_profile defaults it to the first tabulated frequency).
    """

    __slots__ = ("omega0", "omegaf", "t0", "epsilon", "samples")

    def __init__(
        self,
        omega0: float,
        omegaf: float,
        t0: float = 10.0,
        epsilon: float = 0.0,
        samples: tuple[tuple[float, float], ...] | None = None,
    ):
        if samples is not None:
            if len(samples) < 2:
                raise ValueError(f"need at least 2 samples, got {len(samples)}")
            times, omegas = np.array(samples, dtype=float).T
            if not np.all(np.diff(times) > 0.0) or not np.isfinite(times).all():
                raise ValueError("sample times must be finite and strictly increasing")
            require_finite("sampled frequencies", omegas)
            if omegaf != omegas[-1]:
                raise ValueError(f"omegaf {omegaf} is not the last sample's {omegas[-1]}")
        require_finite("frequencies", omega0, omegaf)
        require_finite("t0", t0, positive=False)
        require_finite("epsilon", epsilon, positive=False)
        self._store(omega0, omegaf, t0, epsilon, samples)

    @property
    def kind(self) -> str:
        if self.samples is not None:
            return "sampled"
        return "tanh" if self.epsilon > 0.0 else "jump"

    def __call__(self, t):
        return eval_omega(self, t)


def tanh_profile(
    omega0: float = 1.0, omegaf: float = 3.0, t0: float = 10.0, epsilon: float = 0.5
) -> FrequencyProfile:
    """Smooth ramp between omega0 and omegaf; epsilon = 0 degenerates to a jump."""
    p = FrequencyProfile(omega0, omegaf, t0, 0.0 if epsilon == 0.0 else epsilon)  # 0 and -0.0 store the jump's 0.0
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
    return FrequencyProfile(omega0, omegaf, t0, 0.0)


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
    return FrequencyProfile(ref, omegas[-1], 0.0, 0.0, pts)


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
        out = _ramp_omega(t_arr, p.omega0, p.omegaf, p.t0, p.epsilon)
    elif p.kind == "jump":
        out = _jump_omega(t_arr, p.omega0, p.omegaf, p.t0)
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


def _ramp_omega(t, omega0, omegaf, t0, epsilon, out=None):
    """omega(t) of tanh ramps whose parameters broadcast against t; out,
    which may be t, receives it."""
    mid = 0.5 * (omegaf + omega0)
    amp = 0.5 * (omegaf - omega0)
    # a tiny epsilon overflows (t - t0)/epsilon, and tanh(+-inf) = +-1 is right
    with np.errstate(over="ignore"):
        x = np.divide(np.subtract(t, t0, out=out), epsilon, out=out)
    return np.add(mid, np.multiply(amp, np.tanh(x, out=out), out=out), out=out)


def _jump_omega(t, omega0, omegaf, t0):
    """omega(t) of jumps whose parameters broadcast against t."""
    return np.where(t < t0, omega0, omegaf)


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
