"""Propagation of the vacuum through a frequency ramp.

A run starts at t = 0, or at the first sample time of a tabulated profile,
and ends at t_end.  The span is cut into n slices of equal width tau, each
run as the fourth-order commutator-free Magnus step (CF4; Blanes & Moan,
Appl. Numer. Math. 56 (2006)): two exact constant-frequency half-steps whose
omega^2 combine the samples at the slice's two Gauss nodes, with an error of
O(tau^4).  A jump, whose steps start at t0 at the earliest, is exact at
every n.  Each step is a Bogoliubov (SU(1,1)) transformation of the
vacuum, so a slice is their product, one Moebius map of a single complex
variable chi, built in real arithmetic; chi advances once per slice, and
the squeeze parameters of the state follow from it at the recorded slices.

Convergence is assessed by doubling n until the quantity the caller reads
moves by less than a tolerance between consecutive refinements: the squeeze
magnitude r(t) at every record, with the instantaneous-basis R at the last
one (_read_r), or, for a run that reports only the post-transition window
mean (a sweep cell), R at the records after the window start together with
its window mean (_read_windows).  One ladder, which takes its reader from
its caller, serves a single run and a batch of runs that share a
configuration, and one function steps each level, chunk by chunk: a chunk's
slice maps come from one vectorised pass over all the level's runs, into
buffers that every chunk reuses, and its recurrence runs side by side as
numpy rows from _ROW_CELLS runs up, else as each run's own Python loop.
The reader takes the whole level too: the sweep cells' windows are read end
to end, in one pass per block of whole cells.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .algebra import _CLAMP_TO, _clamped_magnitude, _compose, _move, _squeeze_of, _wrap_angle, rho_of
from .errors import CompositionError, SaturationError, StepSingularityError, WindowError, require_finite
from .frequency import (
    FrequencyProfile,
    _jump_omega,
    _ramp_omega,
    eval_omega,
    transition_interval,
)
from .records import FrozenRecord, Record

# A level of at least this many cells steps them side by side, one numpy row
# per cell; a smaller level runs each cell's Python loop.  With the slice
# maps, which both pay once per chunk, a level of k ramps at n = 1024 took
# about 3 + 0.1 k us per slice as rows and 0.4 k us as loops (2 vCPUs,
# Python 3.11, numpy 2.4): rows break even at about 11 cells and take about
# 0.85x the loops' time at 16 and 0.36x at 70.
_ROW_CELLS = 16
# records a level holds at once (cells x records per cell); a level with
# more runs its cells in several groups
_ROW_RECORDS = 1 << 20
# cell-slices in a chunk of a level (at least one slice per cell): the
# chunk's coefficient buffers and its lists of Python complex values stay
# small enough to sit in cache, which larger chunks measurably lose
_BLOCK = 1 << 12
# profile kinds in column order: ramps and sampled profiles, which step in
# two CF4 half-steps, then jumps, so the CF4 pass fills one slice of columns
_KINDS = ("tanh", "sampled", "jump")

# CF4: the Gauss nodes c = 1/2 -+ sqrt(3)/6 of a slice, and the weights
# beta1,2 = 1/4 +- sqrt(3)/6 that turn omega^2 at the two nodes, w1^2 and
# w2^2, into the half-step omega^2: first 2 (beta1 w1^2 + beta2 w2^2), then
# 2 (beta2 w1^2 + beta1 w2^2).  In the other order the scheme is of second
# order only.
_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
_NODES.flags.writeable = False
_BETA1, _BETA2 = 0.25 + np.sqrt(3.0) / 6.0, 0.25 - np.sqrt(3.0) / 6.0

# window_means needs this many window records, and its ladder neither
# compares nor stops on fewer
_MIN_WINDOW_RECORDS = 4


class SimulationConfig(FrozenRecord):
    """Stepping and convergence controls for one propagation.

    A run starts at t = 0, or at the first sample time of a sampled profile.
    t_end = None resolves to t0 + 3*epsilon + three post-transition periods
    of the final frequency, or to the last sample time of a sampled profile;
    an explicit t_end must be positive and finite, and a run whose resolved
    end overflows fails with ValueError.  n_slices is the seed slice count;
    the convergence ladder doubles it until the quantity it compares (r(t)
    and the final R, or R over the post-transition window and its mean; see
    propagate_converged) moves by less than convergence_tol or n_max is
    hit; n_max = n_slices runs the single fixed grid of n_slices slices.
    Records are kept every record_stride slices.  The defaults are those of
    SimulationConfig(), which the CLI's flags read too.
    """

    __slots__ = ("t_end", "n_slices", "record_stride", "convergence_tol", "n_max")

    def __init__(
        self,
        t_end: float | None = None,
        n_slices: int = 256,
        record_stride: int = 1,
        convergence_tol: float = 1e-4,
        n_max: int = 1 << 24,
    ):
        if n_slices < 1:
            raise ValueError(f"n_slices must be >= 1, got {n_slices}")
        if record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {record_stride}")
        if n_slices % record_stride:
            raise ValueError(
                f"n_slices ({n_slices}) must be a multiple of "
                f"record_stride ({record_stride})"
            )
        if t_end is not None and not (np.isfinite(t_end) and t_end > 0.0):
            raise ValueError(f"t_end must be finite and > 0, got {t_end}")
        if not (np.isfinite(convergence_tol) and convergence_tol > 0.0):
            raise ValueError(f"convergence_tol must be > 0 and finite, got {convergence_tol}")
        if n_max < n_slices:
            raise ValueError(
                f"n_max ({n_max}) must be >= n_slices ({n_slices})"
            )
        self._store(t_end, n_slices, record_stride, convergence_tol, n_max)


class Trajectory(Record):
    """Recorded evolution of the squeeze parameters along one propagation.

    Arrays are aligned per record: time, driving frequency, basis exponent
    rho, propagator variable chi, initial-basis squeeze (r, phi),
    instantaneous-basis squeeze (R, Phi) and the modulus beta_mod of the
    central composition coefficient, recorded at the last ladder level of
    n_slices steps.  delta_history holds one difference per level
    comparison of propagate_converged: the larger of the sup-norm change of
    r(t) and the change of R at the last record.  converged is None when no
    comparison was made.  A Trajectory is mutable, and len() counts its
    records.
    """

    __slots__ = ("t", "omega", "rho", "chi", "r", "phi", "R", "Phi", "beta_mod", "profile",
                 "n_slices", "converged", "achieved_delta", "delta_history")

    def __init__(
        self,
        t: np.ndarray,
        omega: np.ndarray,
        rho: np.ndarray,
        chi: np.ndarray,
        r: np.ndarray,
        phi: np.ndarray,
        R: np.ndarray,
        Phi: np.ndarray,
        beta_mod: np.ndarray,
        profile: FrequencyProfile,
        n_slices: int,
        converged: bool | None = None,
        achieved_delta: float | None = None,
        delta_history: list[float] | None = None,
    ):
        self._store(t, omega, rho, chi, r, phi, R, Phi, beta_mod, profile, n_slices,
                    converged, achieved_delta, [] if delta_history is None else delta_history)

    def __len__(self) -> int:
        return len(self.t)

    def unitarity_defect(self) -> float:
        """Largest |alpha|^2 + |beta| - 1 deviation across the records."""
        return float(np.max(np.abs(np.tanh(self.R) ** 2 + self.beta_mod - 1.0)))


class PostTransitionSummary(NamedTuple):
    """Oscillation statistics after the switch; summary_text prints every field."""

    window_start: float
    window_end: float
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


class _Cell:
    """One propagation of a batched ladder: input, ladder state and outcome.

    start is the transition end after which _read_windows reads (None for
    _read_r, which reads every record).  n is the level it last ran (a
    window_means cell starts at the seed), q and scalar what its reader
    gave that level (scalar None after a resolution floor; see _ladder)
    and records the (t_rec, chi_rec) _read_r last read.
    """

    __slots__ = ("p", "start", "span", "n", "history", "converged", "q", "records", "error", "scalar")

    def __init__(self, p: FrequencyProfile, start: float | None,
                 span: tuple[float, float] = (0.0, 0.0), n: int = 0):
        self.p, self.start, self.span, self.n = p, start, span, n
        self.history: list[float] = []
        self.converged: bool | None = None
        self.q: np.ndarray | None = None
        self.records: tuple[np.ndarray, np.ndarray] | None = None
        self.error: Exception | None = None
        self.scalar: float | None = None


def default_t_end(p: FrequencyProfile) -> float:
    """Transition end plus three periods of the final frequency."""
    if p.kind == "sampled":
        return p.samples[-1][0]
    return transition_interval(p)[1] + 3.0 * np.pi / p.omegaf


def _time_span(p: FrequencyProfile, cfg: SimulationConfig) -> tuple[float, float]:
    """(t_start, t_end) of a run: the first sample time of a sampled profile,
    else 0.  A default end that overflows raises the ValueError of an
    explicit infinite one, and a sampled run that ends past its last sample
    raises eval_omega's ValueError here, so no slice of it reads omega
    outside the table."""
    t_start = p.samples[0][0] if p.kind == "sampled" else 0.0
    t_end = default_t_end(p) if cfg.t_end is None else cfg.t_end
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite and > 0, got {t_end} (transition end plus three periods)")
    if t_end <= t_start:
        raise ValueError(f"t_end {t_end} must exceed t_start {t_start}")
    if p.kind == "sampled":
        eval_omega(p, t_end)
    return float(t_start), float(t_end)


def step_coeffs(omega_j: float, omega0: float, tau: float) -> tuple[complex, complex]:
    """Moebius coefficients (a_j, b_j) of one constant-frequency step.

    The propagator variable advances through
    chi -> a_j + b_j * chi / (1 - a_j * chi), with coefficients satisfying
    |a_j|^2 + |b_j| = 1: the _maps of the step followed by one of zero width.
    """
    require_finite("frequencies", omega_j, omega0)
    require_finite("step width", tau)
    a, b, _ = _maps(np.array([[omega_j], [omega0]]), omega0, np.array([[tau], [0.0]]))
    return complex(a[0]), complex(b[0])


def _map_buffers(shape):
    """The out of _maps for slices of a shape: (A, B, C) and float work."""
    return np.empty((3, *shape), dtype=complex), np.empty((5, 2, *shape))


def _maps(omega, omega0, width, out=None):
    """Moebius maps chi -> A + B chi / (1 - C chi) of slices of two steps.

    omega and width, of shape (2, ...), hold each slice's steps in the order
    they run; omega0 broadcasts against them.  Divided by cos(omega width), a
    step's SU(1,1) matrix M of chi -> (u chi + v)/(v* chi + u*) has u = 1 - iP
    and v = -iQ, with t = tan(omega width), (P, Q) = (cosh, sinh)(2 rho) t and
    e^(2 rho) = omega/omega0.  The slice's M2 M1 has determinant D = (1 +
    t1^2)(1 + t2^2) = |u|^2 - |v|^2, A = v/u*, C = -v*/u* and B = D/u*^2;
    each term is written so that none cancels, and u and v are scaled by
    1/(|Re u| + |Im u|) so that no square overflows.  A zero-width step is
    the identity, and a one-step slice has A == C.  out, if given, is the
    _map_buffers of the slices' shape, which receives the maps.
    """
    (a, b, c), (t, p, q, x, (e12, e21)) = _map_buffers(np.shape(omega)[1:]) if out is None else out
    np.tan(np.multiply(omega, width, out=t), out=t)
    w, inv = np.divide(omega, omega0, out=p), np.divide(1.0, p, out=x)
    np.multiply(w[0], inv[1], out=e12), np.multiply(w[1], inv[0], out=e21)
    q1, q2 = np.multiply(np.multiply(0.5, np.subtract(w, inv, out=q), out=q), t, out=q)
    p1, p2 = np.multiply(np.multiply(0.5, np.add(w, inv, out=p), out=p), t, out=p)
    # u = ur - i pu and v = vr - i qv, and d = D - 1
    tt = np.multiply(0.5, np.multiply(*t, out=x[0]), out=x[0])
    ur = np.subtract(1.0, np.multiply(np.add(e12, e21, out=x[1]), tt, out=x[1]), out=x[1])
    vr = np.multiply(np.subtract(e21, e12, out=e21), tt, out=e21)
    t1, t2 = np.square(t, out=t)
    d = np.add(np.add(np.multiply(t1, t2, out=e12), t1, out=e12), t2, out=e12)
    pu, qv = np.add(p1, p2, out=p1), np.add(q1, q2, out=q1)
    r = np.divide(1.0, np.add(np.abs(ur, out=t1), np.abs(pu, out=t2), out=t1), out=t1)
    ur, pu, vr, qv = (np.multiply(y, r, out=y) for y in (ur, pu, vr, qv))
    # m = D r^2, qh = 1/(r^2 |u|^2) and then m = D/|u|^2
    m = np.add(np.multiply(d, np.square(r, out=r), out=d), r, out=d)
    n = np.add(np.add(np.square(vr, out=t1), np.square(qv, out=t2), out=t1), m, out=t1)
    qh, m = np.divide(1.0, n, out=x[0]), np.divide(m, n, out=m)
    vu, qp = np.multiply(vr, ur, out=t1), np.multiply(qv, pu, out=p2)
    np.multiply(np.subtract(vu, qp, out=q2), qh, out=a.real)
    np.negative(np.multiply(np.add(vu, qp, out=q2), qh, out=q2), out=c.real)
    vp, qu = np.multiply(vr, pu, out=vr), np.multiply(qv, ur, out=qv)
    np.negative(np.multiply(np.add(vp, qu, out=q2), qh, out=q2), out=a.imag)
    np.multiply(np.subtract(vp, qu, out=q2), qh, out=c.imag)
    # u^2/|u|^2 = 1 - 2 pu^2/|u|^2 - 2i ur pu/|u|^2
    s = np.multiply(np.multiply(np.square(pu, out=t1), qh, out=t1), 2.0, out=t1)
    np.multiply(np.subtract(1.0, s, out=s), m, out=b.real)
    np.multiply(np.multiply(np.multiply(np.multiply(ur, pu, out=s), qh, out=s), m, out=s), -2.0, out=b.imag)
    return a, b, c


class _Group:
    """The cells of one _propagate call as the columns of its step buffers.

    cells come in _KINDS order (_ladder sorts them), so the ramps and
    sampled profiles fill the columns cf4 and the jumps those after.  Their
    spans, tau and profile parameters are column arrays, and every chunk
    reuses the (2, chunk, k) omega and width of each slice's two steps (a
    jump's second has zero width), the out of _maps and nodes, the (2,
    chunk, cf4) CF4 node times.
    """

    def __init__(self, cells: list[_Cell], n: int, chunk: int):
        self.cells = cells
        k = len(cells)
        cf4 = k - sum(c.p.kind == "jump" for c in cells)
        self.ramps = slice(0, sum(c.p.kind == "tanh" for c in cells))
        self.cf4, self.jumps = slice(0, cf4), slice(cf4, k)
        self.t_start, self.t_end = np.array([c.span for c in self.cells]).T
        self.tau = (self.t_end - self.t_start) / n
        self.omega0, self.omegaf, self.t0, self.epsilon = np.array(
            [(c.p.omega0, c.p.omegaf, c.p.t0, c.p.epsilon) for c in self.cells]
        ).T
        self.omega, self.width = np.empty((2, 2, chunk, k))
        self.width[:, :, self.cf4] = 0.5 * self.tau[self.cf4]
        self.omega[1, :, self.jumps], self.width[1, :, self.jumps] = self.omega0[self.jumps], 0.0
        self.nodes, (self.maps, self.work) = np.empty((2, chunk, cf4)), _map_buffers((chunk, k))


def _slice_steps(g: _Group, first: int, m: int, errors: list) -> tuple[np.ndarray, ...]:
    """Moebius maps (A, B, C) of slices first+1 .. first+m of a group's cells.

    Views of the group's buffers, one row per slice and one column per cell.
    A ramp's or sampled profile's map is the product of the slice's two CF4
    half-steps, a jump's that of one exact step, run only for the part of
    the slice past t0 (the omega0 vacuum is stationary before it), and a
    step of zero width.  A cell whose half-step omega^2 is not positive gets
    _UnresolvedSlice in errors, and the column of every cell in errors
    becomes the identity (A = C = 0, B = 1) once, after its maps.  No value
    warns: a healthy column's map that is not finite is the caller's to report.
    """
    k = np.arange(first, first + m, dtype=float)
    omega, width = g.omega[:, :m], g.width[:, :m]
    cf4, ramps, jumps = g.cf4, g.ramps, g.jumps
    with np.errstate(all="ignore"):
        if cf4.stop:
            nodes, half = g.nodes[:, :m], omega[:, :, cf4]
            np.multiply((k + _NODES[:, None])[:, :, None], g.tau[cf4], out=nodes)
            np.add(g.t_start[cf4], nodes, out=nodes)
            ramp = g.omega0[ramps], g.omegaf[ramps], g.t0[ramps], g.epsilon[ramps]
            _ramp_omega(nodes[:, :, ramps], *ramp, out=nodes[:, :, ramps])
            for i in range(ramps.stop, cf4.stop):  # sampled profiles, one column each
                nodes[:, :, i] = eval_omega(g.cells[i].p, nodes[:, :, i])
            # an omega^2 that overflows makes a half-step inf - inf or -inf
            # (beta2 is negative), which the test below marks unresolved
            w_sq = np.square(nodes, out=nodes)
            np.multiply(_BETA2, w_sq[::-1], out=half)
            np.add(np.multiply(_BETA1, w_sq, out=w_sq), half, out=half)
            np.multiply(2.0, half, out=half)
            resolved = half > 0.0
            for i in np.flatnonzero(~resolved.all(axis=(0, 1))).tolist():
                if errors[i] is None:
                    step = first + int(np.argmax(~resolved[:, :, i].all(axis=0))) + 1
                    errors[i] = _UnresolvedSlice(step, f"slice {step} is too coarse for the ramp")
            np.sqrt(half, out=half)
        if jumps.stop > jumps.start:
            t0, tau = g.t0[jumps], g.tau[jumps]
            ts = g.t_start[jumps] + (k + 1.0)[:, None] * tau
            omega[0, :, jumps] = _jump_omega(ts, g.omega0[jumps], g.omegaf[jumps], t0)
            np.clip(ts - t0, 0.0, tau, out=width[0, :, jumps])
        a, b, c = _maps(omega, g.omega0, width, (g.maps[:, :m], g.work[:, :, :m]))
    failed = [i for i, e in enumerate(errors) if e is not None]
    if failed:
        a[:, failed], b[:, failed], c[:, failed] = 0.0, 1.0, 0.0
    return a, b, c


def _step_loop(a, b, c, chi, rec, per_record: int) -> None:
    """Advance each cell, a column of the maps a, b and c with one row per slice, in a Python loop.

    chi holds each cell's value before the first row and is left at its value
    after the last; rec takes the value after every per_record-th row.
    """
    for i in range(len(chi)):
        x = complex(chi[i])
        out = []
        append = out.append
        for aj, bj, cj in zip(a[:, i].tolist(), b[:, i].tolist(), c[:, i].tolist()):
            x = aj + bj * x / (1.0 - cj * x)
            append(x)
        rec[:, i] = out[per_record - 1 :: per_record]
        chi[i] = x


def _step_rows(a, b, c, chi, rec, per_record: int) -> None:
    """The advance of _step_loop for every cell at once, one numpy row per slice."""
    den, num = np.empty_like(chi), np.empty_like(chi)
    x = chi
    # a non-finite row is reported by the caller, not warned about
    with np.errstate(all="ignore"):
        for h, (ah, bh, ch) in enumerate(zip(a, b, c), 1):
            np.multiply(ch, x, out=den)
            np.subtract(1.0, den, out=den)
            np.multiply(bh, x, out=num)
            np.divide(num, den, out=num)
            x = chi if h % per_record else rec[h // per_record - 1]
            np.add(ah, num, out=x)
    chi[:] = x


def _propagate(cells: list[_Cell], cfg: SimulationConfig, n: int) -> list:
    """Run the recurrence of a group of cells, in _KINDS order, over n slices.

    Slices run in chunks of whole record strides, about _BLOCK cell-slices
    each, and each slice is one step through its map.  A group of at least
    _ROW_CELLS cells steps as numpy rows (_step_rows), a smaller one through
    each cell's Python loop (_step_loop); a cell's records differ between
    the two only in the rounding of complex division.  A cell's slice maps
    (_slice_steps) do not depend on its neighbours or the chunking, and a
    failed cell steps through the identity; the records are allocated once
    a chunk leaves a cell running.  Finiteness is checked once per chunk at
    record granularity: StepSingularityError names the slice of a cell's
    first non-finite record (a non-finite chi stays non-finite).  Returns,
    per cell as given, its (t_rec, chi_rec) or the exception that ended it.
    """
    k = len(cells)
    stride = cfg.record_stride
    chunk = stride * max(1, _BLOCK // k // stride)
    g = _Group(cells, n, min(chunk, n))
    chi_rec = None
    errors: list[Exception | None] = [None] * k
    chi = np.zeros(k, dtype=complex)
    kernel = _step_rows if k >= _ROW_CELLS else _step_loop
    for j in range(0, n, chunk):
        m = min(chunk, n - j)
        maps = _slice_steps(g, j, m, errors)
        if None not in errors:
            break
        if chi_rec is None:
            chi_rec = np.empty((n // stride + 1, k), dtype=complex)
            chi_rec[0] = 0.0  # every later row is written by its chunk
        rec = chi_rec[1 + j // stride : 1 + (j + m) // stride]
        kernel(*maps, chi, rec, stride)
        bad = ~np.isfinite(rec)
        for i in np.flatnonzero(bad.any(axis=0)).tolist():
            if errors[i] is None:
                errors[i] = StepSingularityError(j + (int(np.argmax(bad[:, i])) + 1) * stride)
    runs = list(errors)
    ran = [col for col in range(k) if errors[col] is None]
    if ran:  # record times only for the cells that ran: the others end in their error
        steps = np.arange(n // stride + 1, dtype=float) * stride
        # t_start + j * tau, built in one buffer; it can pass t_end, and a
        # sampled profile, by an ulp
        t_rec = np.multiply(steps, g.tau[ran, None])
        np.add(g.t_start[ran, None], t_rec, out=t_rec)
        np.minimum(t_rec, g.t_end[ran, None], out=t_rec)
        for col, t in zip(ran, t_rec):
            runs[col] = (t, chi_rec[:, col])
    return runs


def _instantaneous(p: FrequencyProfile, t_rec: np.ndarray):
    """omega at the records and the t = tanh(rho) = (omega - omega0)/(omega + omega0)
    by which their instantaneous basis is reached from the omega0 one."""
    omega = np.asarray(eval_omega(p, t_rec), dtype=float)
    return omega, (omega - p.omega0) / (omega + p.omega0)


def _finalize(c: _Cell) -> Trajectory:
    """Convert a finished cell's records into the full squeeze trajectory; r is its last reading's."""
    p, (t_rec, chi_rec) = c.p, c.records
    omega_rec, t_basis = _instantaneous(p, t_rec)
    alpha, beta, _ = _compose(chi_rec, t_basis)
    big_r, big_phi = _squeeze_of(alpha, "instantaneous squeeze")
    return Trajectory(
        t=t_rec,
        omega=omega_rec,
        rho=rho_of(omega_rec, p.omega0),
        chi=chi_rec,
        r=c.q,
        phi=_wrap_angle(np.angle(chi_rec) + np.pi),
        R=big_r,
        Phi=big_phi,
        beta_mod=np.abs(beta),
        profile=p,
        n_slices=c.n,
        converged=c.converged,
        achieved_delta=c.history[-1] if c.history else None,
        delta_history=c.history,
    )


def _big_r(p: FrequencyProfile, t_rec: np.ndarray, chi_rec: np.ndarray, where: str) -> np.ndarray:
    """R at records (t_rec, chi_rec), computed as the trajectory's R column
    is; SaturationError if it reached artanh(_CLAMP_TO), where |alpha| was
    clamped at 1 and R is beyond double precision (where says at which
    records)."""
    alpha = _move(chi_rec, _instantaneous(p, t_rec)[1])[0]
    big_r = np.arctanh(_clamped_magnitude(np.abs(alpha), "instantaneous squeeze"))
    if (big_r >= np.arctanh(_CLAMP_TO)).any():
        raise SaturationError(f"instantaneous squeeze R = {big_r.max():.6g} {where} is beyond double precision")
    return big_r


def _read_r(cells: list[_Cell], runs: list) -> list:
    """A level of propagate_converged: for each cell, r at every record and
    R at the last, or the exception that ends the cell; it keeps the records."""
    out = []
    for c, run in zip(cells, runs):
        t_rec, chi_rec = c.records = run
        try:
            r = np.arctanh(_clamped_magnitude(np.abs(chi_rec), "squeeze"))
            out.append((r, float(_big_r(c.p, t_rec[-1:], chi_rec[-1:], "at t_end")[0])))
        except Exception as exc:  # this cell fails, its neighbours go on
            out.append(exc)
    return out


def _window_block(cells: list[_Cell], windows: list) -> list | None:
    """R over the windows (t, chi) of some cells in _KINDS order, laid end
    to end and read in one pass through _move: one slice of R per cell, or
    None if a guard of the per-cell reading (_big_r) would act on any cell
    of the block, a magnitude |chi| at 1, a singular composition (_move's
    CompositionError) or an |alpha| at _CLAMP_TO."""
    bounds = list(accumulate((len(t) for t, _ in windows), initial=0))
    t = np.concatenate([t for t, _ in windows])
    chi = np.concatenate([x for _, x in windows])
    params = np.array([(c.p.omega0, c.p.omegaf, c.p.t0, c.p.epsilon) for c in cells]).T
    omega0, omegaf, t0, epsilon = np.repeat(params, np.diff(bounds), axis=1)
    ramps = bounds[sum(c.p.kind == "tanh" for c in cells)]
    omega = np.empty_like(t)
    _ramp_omega(t[:ramps], omega0[:ramps], omegaf[:ramps], t0[:ramps], epsilon[:ramps], out=omega[:ramps])
    omega[ramps:] = _jump_omega(t[ramps:], omega0[ramps:], omegaf[ramps:], t0[ramps:])
    try:
        mag = np.abs(_move(chi, (omega - omega0) / (omega + omega0))[0])
    except CompositionError:
        return None
    if (np.abs(chi) >= 1.0).any() or (mag >= _CLAMP_TO).any():
        return None
    big_r = np.arctanh(mag)
    return [big_r[a:b] for a, b in zip(bounds, bounds[1:])]


def _read_windows(cells: list[_Cell], runs: list) -> list:
    """A level of window_means: for each cell, R at the records after its
    start and their mean (R_final), None while they are fewer than
    _MIN_WINDOW_RECORDS, or the exception that ends the cell.

    A cell's window is cut by searchsorted (t_rec never decreases, so it is
    exactly t_rec > start), and the level's windows, in the order given
    (_KINDS order, as _ladder sorts the cells), are read in blocks of whole
    cells of at most _BLOCK records, or one cell, through _window_block; an
    empty window reads as no records.  Every cell of a block in which a
    guard would act is read alone through the guards, in that order, so it
    warns and fails as it would alone: |chi| clamped as the r column is,
    then _big_r.  A mean is np.add.reduce over the cell's R over its count,
    np.mean bitwise.
    """
    windows = []
    for c, (t_rec, chi_rec) in zip(cells, runs):
        cut = int(t_rec.searchsorted(c.start, side="right"))
        windows.append((t_rec[cut:], chi_rec[cut:]))
    starts, size = [], 0  # the first cell of each block
    for i, (t, _) in enumerate(windows):
        if not starts or size + len(t) > _BLOCK:
            starts.append(i)
            size = 0
        size += len(t)
    read: list = []
    for a, b in zip(starts, starts[1:] + [len(cells)]):
        read += _window_block(cells[a:b], windows[a:b]) or [None] * (b - a)
    out = []
    for c, (t, chi), big_r in zip(cells, windows, read):
        try:
            if big_r is None:
                _clamped_magnitude(np.abs(chi), "squeeze")  # the saturation check of the r column
                big_r = _big_r(c.p, t, chi, "after the transition")
        except Exception as exc:  # this cell fails, its neighbours go on
            out.append(exc)
            continue
        enough = len(big_r) >= _MIN_WINDOW_RECORDS
        out.append((big_r, float(np.add.reduce(big_r) / len(big_r)) if enough else None))  # np.mean, bitwise
    return out


def _ladder(cells: list[_Cell], cfg: SimulationConfig, read) -> None:
    """Run the convergence ladder of every cell (see propagate_converged).

    The climbing cells are sorted into _KINDS order once, the column order
    of _propagate and the reading order of read, which every level keeps.
    One loop owns the level n: each pass runs every climbing cell at n, in
    groups of at most _ROW_RECORDS records or one cell, then doubles n up
    to n_max.  A cell leaves a level converged, failed, at the last level
    or climbing to 2 n (past a resolution floor, too), so climbing cells
    share n.  A failure ends only its cell.  read(cells, runs) reads a
    group's cells that ran, with their (t_rec, chi_rec), in one call, and
    gives for each cell its (q, scalar) or the exception that ends it: q
    is compared in sup norm at the shared records and covers a suffix of
    them that holds the last one, and scalar is what the cell reports, a
    Python float, None while the level's records cannot hold it.  A level's
    delta, the larger of the sup change of q and the change of scalar, is
    taken only against a previous one that ran and held its scalar; coarse
    record times are bitwise among the fine ones (2 j (tau/2) == j tau) and
    the record step halves, so every finer level holds them too.  A group's
    records are dropped once read, before the next group steps.
    """
    n = cfg.n_slices
    climbing = sorted((c for c in cells if c.error is None), key=lambda c: _KINDS.index(c.p.kind))
    while climbing and n <= cfg.n_max:
        size = max(1, _ROW_RECORDS // (n // cfg.record_stride + 1))
        for g in range(0, len(climbing), size):
            group, ran, runs = climbing[g : g + size], [], []
            for c, run in zip(group, _propagate(group, cfg, n)):
                c.n = n
                if isinstance(run, _UnresolvedSlice):
                    if 2 * n <= cfg.n_max:
                        c.scalar = None  # a resolution floor, not a level
                        continue
                    run = StepSingularityError(run.step, str(run))  # the floor at n_max
                if isinstance(run, Exception):
                    c.error = run
                else:
                    ran.append(c)
                    runs.append(run)
            del run  # runs alone holds the group's records, until the next group
            for c, got in zip(ran, read(ran, runs)):
                if isinstance(got, Exception):
                    c.error = got
                    continue
                q, scalar = got
                if c.scalar is not None:
                    # both q end at t_end and the coarse records are every
                    # second fine record, so they align counting back from
                    # the last (a window of C coarse records holds 2 C - 1
                    # or 2 C fine ones)
                    sup = float(np.max(np.abs(q[::-2] - c.q[::-1])))
                    c.history.append(max(sup, abs(scalar - c.scalar)))
                    c.converged = c.history[-1] < cfg.convergence_tol
                c.q, c.scalar = q, scalar
        climbing = [c for c in climbing if c.error is None and not c.converged]
        n *= 2


def propagate_converged(p: FrequencyProfile, cfg: SimulationConfig) -> Trajectory:
    """Propagate with step doubling until r(t) and the final R stabilise.

    Levels run n_slices, 2 n_slices, ... slices up to n_max, and consecutive
    levels share every record time of the coarser one, so the ladder
    compares r(t) in sup norm over exactly aligned records, and R at the
    last record, from which post_transition_summary reads the oscillation,
    as well; an R whose magnitude tanh R reached 1 there is beyond double
    precision and raises SaturationError.  A level with a slice too coarse
    for the ramp (a CF4 half-step omega^2 that is not positive) is abandoned
    for twice its slices and does not count; at n_max it raises
    StepSingularityError.  Returns the last level, converged
    once a difference drops below convergence_tol.  n_max = n_slices runs
    one fixed grid (converged None).  window_means runs the same ladder,
    reading R after the transition instead.
    """
    cell = _Cell(p, None, _time_span(p, cfg))
    _ladder([cell], cfg, _read_r)
    if cell.error is not None:
        raise cell.error
    return _finalize(cell)


def window_means(profiles: list[FrequencyProfile], cfg: SimulationConfig) -> list[WindowMean]:
    """Converged post-transition window means R_final of several propagations.

    A cell's window opens where post_transition_summary opens it, at its
    profile's transition end w; a sampled profile has none, and its cell
    fails with a ValueError (_time_span's past its last sample, else
    transition_interval's).  Each cell runs the ladder
    of propagate_converged at every slice, whatever cfg.record_stride, read
    through its window (t > w): the ladder compares R in sup norm over the
    shared window records and the change of its window mean, and takes the
    larger.  The window must span three periods pi/omega_f, which is
    checked before the first level, and a level is compared only once its
    window holds _MIN_WINDOW_RECORDS records.  Every level runs its cells
    side by side and reads their windows in one pass (_read_windows), and
    no cell keeps its records.  A cell whose R reached artanh(_CLAMP_TO)
    in its window fails with SaturationError.  R_final is
    the mean of R over the window records of the last level,
    post_transition_summary(traj).R_final of that trajectory.  A cell
    fails alone: its WindowMean holds the exception, and R_final is nan.
    """
    # R_final is a window mean: over sparse records it is a coarser
    # quadrature, whose error in n is erratic
    cfg = cfg._replace(record_stride=1)
    cells = []
    for p in profiles:
        cell = _Cell(p, None, n=cfg.n_slices)
        try:
            cell.span = _time_span(p, cfg)
            cell.start = _window_start(p, cell.span[1])
        except Exception as exc:  # this cell fails, its neighbours go on
            cell.error = exc
        cells.append(cell)
    _ladder(cells, cfg, _read_windows)
    out = []
    for c in cells:
        if c.error is None and c.scalar is None:
            c.error = WindowError("too few records after the transition")
        achieved = c.history[-1] if c.history else None
        mean = float("nan") if c.error is not None else c.scalar
        out.append(WindowMean(mean, c.n, c.converged, achieved, c.error))
    return out


def _window_start(p: FrequencyProfile, t_last: float) -> float:
    """The transition end w, where the post-transition window of a run ending
    at t_last opens: transition_interval's ValueError for a sampled profile,
    and WindowError unless [w, t_last] spans three periods pi/omega_f."""
    w = transition_interval(p)[1]
    period_ref = np.pi / p.omegaf
    span = t_last - w
    if span < 3.0 * period_ref * (1.0 - 1e-9):
        raise WindowError(
            f"window [{w}, {t_last}] spans {span:.6g}, "
            f"need at least three periods ({3.0 * period_ref:.6g})"
        )
    return w


def post_transition_summary(traj: Trajectory) -> PostTransitionSummary:
    """Oscillation statistics over the settled part of a trajectory.

    The window opens at the end of the transition of traj.profile,
    t0 + 3*epsilon (_window_start; a sampled profile has none and raises
    ValueError), and must span at least three periods pi/omega_f of the
    squeeze oscillation; else WindowError.  Once omega is omega_f, the state
    is a squeeze R in the omega_f basis whose phase Phi turns at -2 omega_f,
    seen from the omega0 basis through the basis change rho_f: r swings
    between |R - |rho_f|| and R + |rho_f| with period pi/omega_f, and peaks
    where Phi is 0 (omega_f > omega0) or pi (omega_f < omega0).  So r_min,
    r_max, r_midpoint, amplitude, period and n_maxima, the number of peaks in
    the window, come from R and Phi at the last record (propagate_converged
    fails a run whose R there is beyond double precision).  R_final and
    R_std are the mean and spread of R over the window records.
    """
    p, t, big_r = traj.profile, float(traj.t[-1]), float(traj.R[-1])
    window_start = _window_start(p, t)
    rho, period = abs(rho_of(p.omegaf, p.omega0)), np.pi / p.omegaf
    # the last peak lies `back` before t_end, and the others a period apart
    back = np.mod((0.0 if p.omegaf > p.omega0 else np.pi) - traj.Phi[-1], 2.0 * np.pi) / (2.0 * p.omegaf)
    big_r_w = traj.R[traj.t > window_start]
    return PostTransitionSummary(
        window_start=float(window_start),
        window_end=t,
        r_min=abs(big_r - rho),
        r_max=big_r + rho,
        r_midpoint=max(big_r, rho),
        amplitude=2.0 * min(big_r, rho),
        period=period,
        n_maxima=int(np.ceil((t - back - window_start) / period)) if rho > 0.0 else 0,
        R_final=float(np.mean(big_r_w)),
        R_std=float(np.std(big_r_w)),
    )
