"""Propagation of the vacuum through a frequency ramp.

A run starts at t = 0, or at the first sample time of a tabulated profile,
and ends at t_end.  The span is cut into n slices of equal width tau, each
run as the fourth-order commutator-free Magnus step (CF4; Blanes & Moan,
Appl. Numer. Math. 56 (2006)): two exact constant-frequency half-steps whose
omega^2 combine the samples at the slice's two Gauss nodes, with an error of
O(tau^4).  A jump, whose steps start at t0 at the earliest, is exact at
every n.  The whole product is tracked through a single complex variable
chi obeying a Moebius recurrence; the squeeze parameters of the state
follow from chi at the recorded slices.

Convergence is assessed by doubling n until the quantity the caller reads
moves by less than a tolerance between consecutive refinements: the squeeze
magnitude r(t) at every record, or, for a run that reports the
post-transition window (a sweep cell), the instantaneous-basis R at the
records after the window start together with its window mean.  One ladder
serves a single run and a batch of runs that share a configuration, and one
function steps each level: its runs side by side as numpy rows from
_ROW_CELLS runs up, else each run's own Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .algebra import _clamped_magnitude, _compose, _squeeze_of
from .errors import StepSingularityError, WindowError, require_finite
from .frequency import FrequencyProfile, eval_omega, transition_interval

# slices per chunk: the chunk's lists of Python complex values stay small
# enough to sit in cache, which larger chunks measurably lose
_CHUNK = 1 << 12

# A level of at least this many cells steps them side by side, one numpy row
# per cell; a smaller level runs each cell's Python loop.  A row half-step
# costs about 3.5-9.5 us from 16 to 256 cells, the loop about 0.47 us per
# cell.  With the step coefficients, which both pay, a level of k cells at
# n = 1024 took about 6 + 0.2 k us per half-step as rows and 0.57 k us as
# loops (2 vCPUs, Python 3.11, numpy 2.4): even at 16 cells, 0.6x the loops
# at 80.
_ROW_CELLS = 16
# records a level holds at once (cells x records per cell); a level with
# more runs its cells in several groups
_ROW_RECORDS = 1 << 20
# cell-slices whose step coefficients are computed in one vectorised pass
_ROW_CHUNK = 1 << 16

# CF4: the Gauss nodes c = 1/2 -+ sqrt(3)/6 of a slice, and the weights
# beta1,2 = 1/4 +- sqrt(3)/6 that turn omega^2 at the two nodes, w1^2 and
# w2^2, into the half-step omega^2: first 2 (beta1 w1^2 + beta2 w2^2), then
# 2 (beta2 w1^2 + beta1 w2^2).  In the other order the scheme is of second
# order only.
_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_BETA1, _BETA2 = 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0

# post_transition_summary and window_means need this many window records,
# and the windowed ladder neither compares nor stops on fewer
_MIN_WINDOW_RECORDS = 4


@dataclass(frozen=True)
class SimulationConfig:
    """Stepping and convergence controls for one propagation.

    A run starts at t = 0, or at the first sample time of a sampled profile.
    t_end = None resolves to t0 + 3*epsilon + three post-transition periods
    of the final frequency, or to the last sample time of a sampled profile;
    an explicit t_end must be positive.  n_slices is the seed slice count;
    the convergence ladder doubles it until the quantity it compares (r(t),
    or R over the post-transition window and its mean; see
    propagate_converged) moves by less than convergence_tol or n_max is
    hit; n_max = n_slices runs the single fixed grid of n_slices slices.
    Records are kept every record_stride slices.
    """

    t_end: float | None = None
    n_slices: int = 4096
    record_stride: int = 1
    convergence_tol: float = 1e-4
    n_max: int = 1 << 24

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {self.n_slices}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.n_slices % self.record_stride:
            raise ValueError(
                f"n_slices ({self.n_slices}) must be a multiple of "
                f"record_stride ({self.record_stride})"
            )
        if self.t_end is not None and not (np.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if not (np.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise ValueError(f"convergence_tol must be > 0 and finite, got {self.convergence_tol}")
        if self.n_max < self.n_slices:
            raise ValueError(
                f"n_max ({self.n_max}) must be >= n_slices ({self.n_slices})"
            )


@dataclass
class Trajectory:
    """Recorded evolution of the squeeze parameters along one propagation.

    Arrays are aligned per record: time, driving frequency, basis exponent
    rho, propagator variable chi, initial-basis squeeze (r, phi),
    instantaneous-basis squeeze (R, Phi) and the modulus beta_mod of the
    central composition coefficient, recorded at the last ladder level of
    n_slices steps.  delta_history holds one difference per level
    comparison: the sup-norm change of r(t), or, for a windowed run, the
    larger of the sup-norm change of R over the window and the change of
    its mean.  converged is None when no comparison was made.
    """

    t: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    chi: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    R: np.ndarray
    Phi: np.ndarray
    beta_mod: np.ndarray
    profile: FrequencyProfile
    n_slices: int
    converged: bool | None = None
    achieved_delta: float | None = None
    delta_history: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    def unitarity_defect(self) -> float:
        """Largest |alpha|^2 + |beta| - 1 deviation across the records."""
        return float(np.max(np.abs(np.tanh(self.R) ** 2 + self.beta_mod - 1.0)))


@dataclass(frozen=True)
class PostTransitionSummary:
    """Oscillation statistics of a trajectory after the frequency switch."""

    window: tuple[float, float]
    n_records: int
    r_min: float
    r_max: float
    r_midpoint: float
    amplitude: float
    period: float
    n_maxima: int
    R_final: float
    R_std: float


class _UnresolvedSlice(StepSingularityError):
    """A CF4 half-step omega^2 that is not positive: omega changes by more
    than about 3.7x between the two nodes of a slice.  The ladder doubles n
    past it, and at n_max stores it as a plain StepSingularityError."""


class WindowMean(NamedTuple):
    """Post-transition window mean of one cell of window_means.

    n_slices, converged and achieved_delta describe its last ladder level
    as on a Trajectory; a failed cell holds its exception and R_final nan.
    """

    R_final: float
    n_slices: int
    converged: bool | None
    achieved_delta: float | None
    error: Exception | None


@dataclass(eq=False)
class _Cell:
    """One propagation of a batched ladder: input, ladder state and outcome.

    n is the level it last ran (a window_means cell starts at the seed), q
    that level's ladder quantity (None after a resolution floor) and
    records, if kept, its (t_rec, chi_rec).
    """

    p: FrequencyProfile
    window_start: float | None
    span: tuple[float, float] = (0.0, 0.0)
    n: int = 0
    history: list[float] = field(default_factory=list)
    converged: bool | None = None
    q: np.ndarray | None = None
    records: tuple[np.ndarray, np.ndarray] | None = None
    error: Exception | None = None


def default_t_end(p: FrequencyProfile) -> float:
    """Transition end plus three periods of the final frequency."""
    if p.kind == "sampled":
        return p.samples[-1][0]
    return transition_interval(p)[1] + 3.0 * np.pi / p.omegaf


def _time_span(p: FrequencyProfile, cfg: SimulationConfig) -> tuple[float, float]:
    """(t_start, t_end) of a run: the first sample time of a sampled profile, else 0."""
    t_start = p.samples[0][0] if p.kind == "sampled" else 0.0
    t_end = default_t_end(p) if cfg.t_end is None else cfg.t_end
    if t_end <= t_start:
        raise ValueError(f"t_end {t_end} must exceed t_start {t_start}")
    return float(t_start), float(t_end)


def step_coeffs(omega_j: float, omega0: float, tau: float) -> tuple[complex, complex]:
    """Moebius coefficients (a_j, b_j) of one constant-frequency step.

    The propagator variable advances through
    chi -> a_j + b_j * chi / (1 - a_j * chi), with coefficients satisfying
    |a_j|^2 + |b_j| = 1.
    """
    require_finite("frequencies", omega_j, omega0)
    require_finite("step width", tau)
    a, b = _step_arrays(np.asarray(omega_j, dtype=float), omega0, tau)
    return complex(a), complex(b)


def _step_arrays(omega, omega0: float, tau):
    """Vectorized step coefficients for arrays of sampled frequencies and widths."""
    ph = omega * tau
    s = np.sin(ph)
    c = np.cos(ph)
    w = omega / omega0
    # sinh and cosh of 2*rho_j written through the frequency ratio
    sh2 = 0.5 * (w - 1.0 / w)
    ch2 = 0.5 * (w + 1.0 / w)
    den = c + 1j * (ch2 * s)
    a = -1j * sh2 * s / den
    b = 1.0 / (den * den)
    return a, b


def _slice_steps(p: FrequencyProfile, t_start: float, tau: float, first: int, m: int):
    """Step coefficients (a, b) of slices first+1 .. first+m, one row per slice.

    A row holds the slice's two CF4 half-steps, or for a jump one exact
    step, run only for the part of the slice past t0 (the omega0 vacuum is
    stationary before it).
    """
    k = np.arange(first, first + m, dtype=float)
    if p.kind == "jump":
        ts = t_start + (k + 1.0) * tau
        widths = np.clip(ts - p.t0, 0.0, tau)
        return _step_arrays(eval_omega(p, ts)[:, None], p.omega0, widths[:, None])
    nodes = t_start + (k[:, None] + _NODES) * tau
    w_sq = eval_omega(p, nodes.ravel()).reshape(m, 2) ** 2
    half = 2.0 * (_BETA1 * w_sq + _BETA2 * w_sq[:, ::-1])
    bad = np.flatnonzero(~np.all(half > 0.0, axis=1))
    if bad.size:
        step = first + int(bad[0]) + 1
        raise _UnresolvedSlice(step, f"slice {step} is too coarse for the ramp")
    return _step_arrays(np.sqrt(half), p.omega0, 0.5 * tau)


def _step_loop(a, b, chi, rec, per_record: int) -> None:
    """Advance each cell, a column of a and b with one row per half-step, in a Python loop.

    chi holds each cell's value before the first row and is left at its value
    after the last; rec takes the value after every per_record-th row.
    """
    for i in range(len(chi)):
        x = complex(chi[i])
        out = []
        append = out.append
        for aj, bj in zip(a[:, i].tolist(), b[:, i].tolist()):
            x = aj + bj * x / (1.0 - aj * x)
            append(x)
        rec[:, i] = out[per_record - 1 :: per_record]
        chi[i] = x


def _step_rows(a, b, chi, rec, per_record: int) -> None:
    """The advance of _step_loop for every cell at once, one numpy row per half-step."""
    den, num = np.empty_like(chi), np.empty_like(chi)
    x = chi
    # a non-finite row is reported by the caller, not warned about
    with np.errstate(all="ignore"):
        for h, (ah, bh) in enumerate(zip(a, b), 1):
            np.multiply(ah, x, out=den)
            np.subtract(1.0, den, out=den)
            np.multiply(bh, x, out=num)
            np.divide(num, den, out=num)
            x = chi if h % per_record else rec[h // per_record - 1]
            np.add(ah, num, out=x)
    chi[:] = x


def _propagate(cells: list[_Cell], cfg: SimulationConfig, n: int) -> list:
    """Run the recurrence of a group of cells over n slices.

    Slices run in chunks of whole record strides, and every step of a slice
    runs before its record is taken.  A group of at least _ROW_CELLS cells
    steps as numpy rows (_step_rows), a smaller one through each cell's
    Python loop (_step_loop); a cell's records differ between the two only
    in the rounding of complex division.  In a group that is not all jumps
    a jump's slice is its exact step followed by the identity (a = 0,
    b = 1), as is every slice of a cell that has failed.  Finiteness is
    checked once per chunk at record granularity: StepSingularityError
    names the slice of a cell's first non-finite record (a non-finite chi
    stays non-finite).  Returns, per cell, its (t_rec, chi_rec) or the
    exception that ended its run.
    """
    k = len(cells)
    t_start, t_end = np.array([c.span for c in cells]).T
    tau = (t_end - t_start) / n
    stride = cfg.record_stride
    n_rec = n // stride
    chi_rec = np.zeros((n_rec + 1, k), dtype=complex)
    errors: list[Exception | None] = [None] * k
    chi = np.zeros(k, dtype=complex)
    half_steps = 1 if all(c.p.kind == "jump" for c in cells) else 2
    rows = k >= _ROW_CELLS
    kernel = _step_rows if rows else _step_loop
    chunk = stride * max(1, (_ROW_CHUNK // k if rows else _CHUNK) // stride)
    for j in range(0, n, chunk):
        m = min(chunk, n - j)
        a = np.zeros((m, half_steps, k), dtype=complex)
        b = np.ones((m, half_steps, k), dtype=complex)
        for i, c in enumerate(cells):
            if errors[i] is None:
                try:
                    a_i, b_i = _slice_steps(c.p, t_start[i], tau[i], j, m)
                except Exception as exc:  # this cell fails, its neighbours go on
                    errors[i] = exc
                    continue
                a[:, : a_i.shape[1], i] = a_i
                b[:, : b_i.shape[1], i] = b_i
        if None not in errors:
            break
        rec = chi_rec[1 + j // stride : 1 + (j + m) // stride]
        kernel(a.reshape(-1, k), b.reshape(-1, k), chi, rec, half_steps * stride)
        bad = ~np.isfinite(rec)
        for i in np.flatnonzero(bad.any(axis=0)).tolist():
            if errors[i] is None:
                errors[i] = StepSingularityError(j + (int(np.argmax(bad[:, i])) + 1) * stride)
    steps = np.arange(n_rec + 1, dtype=float) * stride
    # j * tau can pass t_end, and a sampled profile, by an ulp
    t_rec = np.minimum(t_start[:, None] + steps * tau[:, None], t_end[:, None])
    return [e if e is not None else (t_rec[i], chi_rec[:, i]) for i, e in enumerate(errors)]


def _instantaneous(p: FrequencyProfile, t_rec: np.ndarray, chi_rec: np.ndarray):
    """omega and the composition (alpha, beta) of records with their instantaneous basis.

    The basis of omega is reached from the omega0 one by t = tanh(rho) =
    (omega - omega0)/(omega + omega0).
    """
    omega = np.asarray(eval_omega(p, t_rec), dtype=float)
    alpha, beta, _ = _compose(chi_rec, (omega - p.omega0) / (omega + p.omega0))
    return omega, alpha, beta


def _finalize(
    p: FrequencyProfile,
    n: int,
    t_rec: np.ndarray,
    chi_rec: np.ndarray,
    converged: bool | None,
    history: list[float],
) -> Trajectory:
    """Convert recorded chi values into the full squeeze trajectory."""
    r, phi = _squeeze_of(chi_rec, "squeeze")
    omega_rec, alpha, beta = _instantaneous(p, t_rec, chi_rec)
    big_r, big_phi = _squeeze_of(alpha, "instantaneous squeeze")
    return Trajectory(
        t=t_rec,
        omega=omega_rec,
        rho=0.5 * np.log(omega_rec / p.omega0),
        chi=chi_rec,
        r=r,
        phi=phi,
        R=big_r,
        Phi=big_phi,
        beta_mod=np.abs(beta),
        profile=p,
        n_slices=n,
        converged=converged,
        achieved_delta=history[-1] if history else None,
        delta_history=history,
    )


def _ladder_quantity(c: _Cell, t_rec: np.ndarray, chi_rec: np.ndarray) -> np.ndarray:
    """The array the ladder compares for one cell's level.

    r at every record, or, for a windowed cell, R at the records after its
    window start (a suffix of the records that always holds the last one),
    computed as the trajectory's R column is.
    """
    if c.window_start is None:
        return np.arctanh(_clamped_magnitude(np.abs(chi_rec), "squeeze"))
    after = t_rec > c.window_start
    chi = chi_rec[after]
    _clamped_magnitude(np.abs(chi), "squeeze")  # the saturation check of the r column
    alpha = _instantaneous(c.p, t_rec[after], chi)[1]
    return np.arctanh(_clamped_magnitude(np.abs(alpha), "instantaneous squeeze"))


def _level_delta(fine: np.ndarray, coarse: np.ndarray, windowed: bool) -> float:
    """Change of the ladder quantity from the coarser level to the finer one.

    Both arrays end at t_end and the coarse records are every second fine
    record, so they are aligned counting back from the last record, and
    fine[::-2] holds as many as coarse (a window of C coarse records holds
    2 C - 1 or 2 C fine ones).  For a windowed R the change of its mean,
    which is R_final, counts as well.
    """
    delta = float(np.max(np.abs(fine[::-2] - coarse[::-1])))
    if windowed:
        delta = max(delta, abs(float(np.mean(fine)) - float(np.mean(coarse))))
    return delta


def _ladder(cells: list[_Cell], cfg: SimulationConfig) -> None:
    """Run the convergence ladder of every cell (see propagate_converged).

    One loop owns the level n: each pass runs every climbing cell at n, in
    groups of at most _ROW_RECORDS records or one cell, then doubles n up
    to n_max.  A cell leaves a level converged, failed, at the last level
    or climbing to 2 n (past a resolution floor, too), so climbing cells
    share n.  A failure ends only its cell.  A cell without a window keeps
    the (t_rec, chi_rec) of its last level.  A windowed level is compared
    only with a previous one of _MIN_WINDOW_RECORDS window records: coarse
    record times are bitwise among the fine ones (2 j (tau/2) == j tau), so
    a finer level never holds fewer.
    """
    n = cfg.n_slices
    climbing = [c for c in cells if c.error is None]
    while climbing and n <= cfg.n_max:
        size = max(1, _ROW_RECORDS // (n // cfg.record_stride + 1))
        for g in range(0, len(climbing), size):
            group = climbing[g : g + size]
            for c, run in zip(group, _propagate(group, cfg, n)):
                c.n = n
                if isinstance(run, _UnresolvedSlice):
                    if 2 * n <= cfg.n_max:
                        c.q = None  # a resolution floor, not a level
                        continue
                    run = StepSingularityError(run.step, str(run))  # the floor at n_max
                if isinstance(run, Exception):
                    c.error = run
                    continue
                try:
                    q = _ladder_quantity(c, *run)
                except Exception as exc:  # this cell fails, its neighbours go on
                    c.error = exc
                    continue
                windowed = c.window_start is not None
                if c.q is not None and (not windowed or len(c.q) >= _MIN_WINDOW_RECORDS):
                    c.history.append(_level_delta(q, c.q, windowed))
                    c.converged = c.history[-1] < cfg.convergence_tol
                c.q = q
                if not windowed and (c.converged or 2 * n > cfg.n_max):
                    c.records = run
        climbing = [c for c in climbing if c.error is None and not c.converged]
        n *= 2


def propagate_converged(p: FrequencyProfile, cfg: SimulationConfig) -> Trajectory:
    """Propagate with step doubling until r(t) stabilises.

    Levels run n_slices, 2 n_slices, ... slices up to n_max, and consecutive
    levels share every record time of the coarser one, so the ladder
    compares r(t) in sup norm over exactly aligned records.  A level with a
    slice too coarse for the ramp (a CF4 half-step omega^2 that is not
    positive) is abandoned for twice its slices and does not count; at
    n_max it raises StepSingularityError.  Returns the last level, converged
    once a difference drops below convergence_tol.  n_max = n_slices runs
    one fixed grid (converged None).  This is the ladder of window_means
    with one cell and no window.
    """
    cell = _Cell(p, None, _time_span(p, cfg))
    _ladder([cell], cfg)
    if cell.error is not None:
        raise cell.error
    return _finalize(p, cell.n, *cell.records, cell.converged, cell.history)


def window_means(profiles: list[FrequencyProfile], cfg: SimulationConfig) -> list[WindowMean]:
    """Converged post-transition window means R_final of several propagations.

    A cell's window opens where post_transition_summary opens it, at its
    profile's transition end w; a sampled profile has none, and its cell
    fails with transition_interval's ValueError.  Each cell runs the ladder
    of propagate_converged at every slice, whatever cfg.record_stride, read
    through its window (t > w): the ladder compares R in sup norm over the
    shared window records and the change of its window mean, and takes the
    larger.  The window must span three periods pi/omega_f, which is
    checked before the first level, and a level is compared only once its
    window holds the records post_transition_summary needs.  Every level
    runs its cells side by side.  R_final is the mean of R over the window
    records of the last level, post_transition_summary(traj, p).R_final of
    that trajectory.  A cell fails alone: its WindowMean holds the
    exception, and R_final is nan.
    """
    # R_final is a window mean: over sparse records it is a coarser
    # quadrature, whose error in n is erratic
    cfg = replace(cfg, record_stride=1)
    cells = []
    for p in profiles:
        cell = _Cell(p, None, n=cfg.n_slices)
        try:
            cell.window_start = transition_interval(p)[1]
            cell.span = _time_span(p, cfg)
            _check_window(cell.window_start, cell.span[1], p.omegaf)
        except Exception as exc:  # this cell fails, its neighbours go on
            cell.error = exc
        cells.append(cell)
    _ladder(cells, cfg)
    out = []
    for c in cells:
        if c.error is None and len(c.q) < _MIN_WINDOW_RECORDS:
            c.error = WindowError("too few records after the transition")
        achieved = c.history[-1] if c.history else None
        mean = float("nan") if c.error is not None else float(np.mean(c.q))
        out.append(WindowMean(mean, c.n, c.converged, achieved, c.error))
    return out


def _check_window(window_start: float, t_last: float, omegaf: float) -> None:
    """Raise WindowError unless [window_start, t_last] spans three periods pi/omegaf."""
    period_ref = np.pi / omegaf
    span = t_last - window_start
    if span < 3.0 * period_ref * (1.0 - 1e-9):
        raise WindowError(
            f"window [{window_start}, {t_last}] spans {span:.6g}, "
            f"need at least three periods ({3.0 * period_ref:.6g})"
        )


def post_transition_summary(
    traj: Trajectory, p: FrequencyProfile, window_start: float | None = None
) -> PostTransitionSummary:
    """Oscillation statistics over the settled part of a trajectory.

    The window opens at the end of the transition (t0 + 3*epsilon, or
    window_start for sampled profiles) and must span at least three periods
    pi/omega_f of the squeeze oscillation.  Local maxima of r(t) are located
    by quadratic interpolation through the three bracketing records; the
    period is the mean spacing of successive maxima (nan when fewer than two
    are found).
    """
    if window_start is None:
        if p.kind == "sampled":
            raise ValueError("sampled profile: pass window_start explicitly")
        window_start = transition_interval(p)[1]
    t_last = float(traj.t[-1])
    _check_window(window_start, t_last, p.omegaf)
    mask = traj.t > window_start
    if np.count_nonzero(mask) < _MIN_WINDOW_RECORDS:
        raise WindowError("too few records after the transition")
    t_w = traj.t[mask]
    r_w = traj.r[mask]
    big_r_w = traj.R[mask]
    r_min = float(np.min(r_w))
    r_max = float(np.max(r_w))
    inner = (r_w[1:-1] > r_w[:-2]) & (r_w[1:-1] >= r_w[2:])
    peaks = np.flatnonzero(inner) + 1
    dt = float(t_w[1] - t_w[0])
    vertices = []
    for i in peaks:
        lo, mid, hi = r_w[i - 1], r_w[i], r_w[i + 1]
        denom = lo - 2.0 * mid + hi
        shift = 0.0 if abs(denom) < 1e-300 else 0.5 * dt * (lo - hi) / denom
        vertices.append(float(t_w[i]) + shift)
    period = float(np.mean(np.diff(vertices))) if len(vertices) >= 2 else float("nan")
    return PostTransitionSummary(
        window=(float(window_start), t_last),
        n_records=int(np.count_nonzero(mask)),
        r_min=r_min,
        r_max=r_max,
        r_midpoint=0.5 * (r_min + r_max),
        amplitude=r_max - r_min,
        period=period,
        n_maxima=len(vertices),
        R_final=float(np.mean(big_r_w)),
        R_std=float(np.std(big_r_w)),
    )
