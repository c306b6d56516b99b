"""Plain-text serialisation of trajectories, summaries, sweeps and fits.

Everything here is byte-deterministic: a given input always produces the
same text, with floats printed as lowercase scientific notation at 12
significant digits (FLOAT_FORMAT).  CSV tables are formatted in bulk with
numpy, byte for byte as FLOAT_FORMAT % v; a value whose rounding float64
arithmetic cannot decide goes through % itself.  No timestamps, hostnames
or versions are embedded.
"""

from __future__ import annotations

import numpy as np

from .analytic import ContourGrid, FitResult, SweepPoint, fitted_sp
from .evolution import PostTransitionSummary, Trajectory


FLOAT_FORMAT = "%.11e"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


_BLOCK_ROWS = 1024  # rows per `_csv_rows` call, few enough that its buffers stay in cache
_SLOT = 24  # bytes per field: three words, at most 19 characters and a separator
# y = fl(|x|·fl(10^k)) is within 2u(1 + u)·y < 2.3e-4 of |x|·10^k for
# y < 1e12, u = 2^-53; a y whose fraction lies nearer 0.5 may round either way
_TIE_BAND = 4.5e-4
_POW_LO, _POW_HI = -300, 305  # k = 11 - e over every exponent e of |x| >= 1e-290, and a margin
_EXP_LO = 11 - _POW_HI


def _format_tables():
    """Read-only lookup tables of `_csv_rows`, each entry little-endian ASCII.

    A field is a 12-digit integer m and an exponent e.  heads[m // 10^8] is
    three NULs and "d.ddd" (the first NUL takes the sign), quads[n] the 4
    digits of n < 10^4, exps[e - _EXP_LO] "e±dd" or "e±ddd" in 8 bytes (the
    top byte takes the separator) and pow10[k - _POW_LO] the correctly
    rounded 10^k.
    """
    digit = 48 + np.arange(10, dtype="<u8")
    pairs = (digit[:, None] | digit[None, :] << 8).ravel()
    quads = (pairs[:, None] | pairs[None, :] << 16).ravel()
    heads = (quads & 0xFF) << 24 | ord(".") << 32 | (quads >> 8) << 40
    e = np.arange(_EXP_LO, 11 - _POW_LO + 1)
    mag = np.abs(e).astype("<u8")
    exps = ord("e") | np.where(e < 0, ord("-"), ord("+")).astype("<u8") << 8 | np.where(
        mag < 100, pairs[mag % 100] << 16, digit[mag // 100] << 16 | pairs[mag % 100] << 24)
    pow10 = np.array([float("1e%d" % k) for k in range(_POW_LO, _POW_HI + 1)])
    tables = heads, quads.astype("<u4"), exps, pow10
    for t in tables:
        t.flags.writeable = False
    return tables


_HEADS, _QUADS, _EXPS, _POW10 = _format_tables()


def _csv_rows(x: np.ndarray) -> str:
    """CSV lines of the float64 rows x, each field FLOAT_FORMAT % v and each
    line ending in a newline.

    Each field is written into a _SLOT-byte slot through the lookup tables,
    and the NUL padding is dropped at the end.  A value whose rounding the
    float64 arithmetic cannot decide, and every nan, inf, subnormal or
    |v| < 1e-290, is formatted by % itself.
    """
    v = x.ravel()
    a = np.abs(v)
    normal = (a >= 1e-290) & (a < np.inf)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[11 - _POW_LO - e]
    e += y >= 1e12
    e -= y < 1e11
    y = a * _POW10[11 - _POW_LO - e]
    m = np.floor(y)
    frac = y - m
    decided = normal & (y >= 1e11) & (y < 1e12) & (np.abs(frac - 0.5) >= _TIE_BAND)
    m += frac > 0.5
    carry = m >= 1e12
    e += carry
    m = (np.where(carry, 1e11, m) * normal).astype(np.int64)  # zero prints m = 0, e = 0

    head, tail = np.divmod(m, 10**8)
    mid, low = np.divmod(tail, 10**4)
    words = np.empty((v.size, 3), dtype="<u8")
    words[:, 0] = _HEADS[head] | np.signbit(v).astype("<u8") * ord("-")
    quads = words.view("<u4")
    quads[:, 2] = _QUADS[mid]
    quads[:, 3] = _QUADS[low]
    seps = np.full(x.shape[1], ord(",") << 56, dtype="<u8")
    seps[-1] = ord("\n") << 56
    words.reshape(*x.shape, 3)[..., 2] = _EXPS[e - _EXP_LO].reshape(x.shape) | seps
    slow = np.flatnonzero(~decided & (v != 0.0))
    if slow.size:
        text = "".join([(FLOAT_FORMAT % f).ljust(_SLOT - 1, "\0") for f in v[slow].tolist()])
        fallback = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _SLOT - 1)
        words.view(np.uint8).reshape(-1, _SLOT)[slow, : _SLOT - 1] = fallback
    return bytearray(words).translate(None, b"\0").decode("ascii")


def _table(header: str, *columns) -> str:
    """CSV text of equal-length columns under header, every field
    FLOAT_FORMAT % float(v); formatted by `_csv_rows` in blocks of
    _BLOCK_ROWS rows."""
    table = np.column_stack(columns).astype(np.float64, copy=False)
    blocks = [header, "\n"]
    for i in range(0, len(table), _BLOCK_ROWS):
        blocks.append(_csv_rows(table[i : i + _BLOCK_ROWS]))
    return "".join(blocks)


def _value_text(val) -> str:
    """A report value: a bool as true/false, None as none, an integer or a
    str as itself, anything else in FLOAT_FORMAT."""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if val is None:
        return "none"
    if isinstance(val, (int, np.integer, str)):
        return str(val)
    return format_float(val)


def report(items) -> str:
    """`key = value` lines, one per (key, value) pair."""
    return "".join(f"{key} = {_value_text(val)}\n" for key, val in items)


TRAJECTORY_HEADER = "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"


def trajectory_csv(traj: Trajectory) -> str:
    return _table(TRAJECTORY_HEADER, traj.t, traj.omega, traj.rho, traj.chi.real,
                  traj.chi.imag, traj.r, traj.phi, traj.R, traj.Phi)


def summary_text(traj: Trajectory, summary: PostTransitionSummary | None = None) -> str:
    """The run's `key = value` lines, then one per summary field, in field order."""
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
        items += zip(summary._fields, summary)
    return report(items)


SWEEP_HEADER = "epsilon,R_sim,R_formula,rel_err"


def sweep_csv(points: list[SweepPoint], omega0: float, omegaf: float) -> str:
    """Sweep results next to the secant formula, one row per ramp width.

    rel_err is |sim - formula| / formula; failed cells carry nan.
    """
    eps = np.array([pt.epsilon for pt in points], dtype=float)
    sim = np.array([pt.R_final for pt in points], dtype=float)
    ref = fitted_sp(omega0, omegaf, eps)
    ok = np.array([pt.error is None for pt in points], dtype=bool) & (ref > 0.0)
    rel = np.abs(sim - ref) / np.where(ok, ref, np.nan)
    return _table(SWEEP_HEADER, eps, sim, ref, rel)


CONTOUR_HEADER = "ratio,omega0_eps,R"


def contour_csv(grid: ContourGrid) -> str:
    ratios, xs = np.meshgrid(grid.ratios, grid.omega0_eps, indexing="ij")
    return _table(CONTOUR_HEADER, ratios.ravel(), xs.ravel(), grid.R.ravel())


def fit_text(fit: FitResult) -> str:
    """One `key = value` line per FitResult field, in field order."""
    return report(zip(fit._fields, fit))


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
