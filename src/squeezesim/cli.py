"""Command-line front end.

Subcommands: evolve (one trajectory), sweep (ramp widths at a fixed
frequency pair), contour (ratio by ramp-width grid), fit (decay-constant
recovery), verify (built-in check suite).  Flags override config-file
values, which override built-in defaults.  Each error family maps to its
own exit status; see the README table.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analytic, evolution, output
from .errors import (
    CompositionError,
    DegenerateDataError,
    SaturationError,
    StepSingularityError,
    WindowError,
)
from .evolution import SimulationConfig, post_transition_summary, propagate_converged
from .frequency import load_samples, tanh_profile

class _CliUsageError(ValueError):
    """Missing or inconsistent flags, as opposed to domain errors."""


EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_SATURATION = 4
EXIT_STEP_SINGULARITY = 5
EXIT_WINDOW = 6
EXIT_COMPOSITION = 7
EXIT_DEGENERATE_DATA = 8
EXIT_NAN = 9

_DEFAULTS = {
    "omega0": 1.0,
    "omegaf": None,
    "t0": 10.0,
    "eps": 0.5,
    "t_end": None,
    "n": 4096,
    "tol": 1e-4,
    "stride": 1,
    "threshold": 0.1,
    "midpoint": False,
    "mode": "above-unity",
    "source": "formula",
    "ratio_min": None,
    "ratio_max": None,
    "eps_min": 0.0,
    "eps_max": 2.0,
    "n_ratio": 25,
    "n_eps": 21,
}

_FLOAT_KEYS = {
    "omega0", "omegaf", "t0", "t_end", "tol", "threshold",
    "ratio_min", "ratio_max", "eps_min", "eps_max",
}
_INT_KEYS = {"n", "stride", "n_ratio", "n_eps"}
_BOOL_KEYS = {"midpoint"}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            text = text.strip()
            if key in _FLOAT_KEYS:
                values[key] = float(text)
            elif key in _INT_KEYS:
                values[key] = int(text)
            elif key in _BOOL_KEYS:
                if text.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} must be true or false")
                values[key] = text.lower() == "true"
            elif key in ("eps", "mode", "source", "out", "profile_file"):
                values[key] = text
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def _resolve(args: argparse.Namespace) -> dict:
    # precedence: command line > config file > built-in defaults
    cfg_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
        elif key in cfg_values:
            merged[key] = cfg_values[key]
        else:
            merged[key] = default
    for key in ("out", "profile_file"):
        val = getattr(args, key, None)
        merged[key] = val if val is not None else cfg_values.get(key)
    return merged


def _add_common(sub: argparse.ArgumentParser, need_omegaf: bool) -> None:
    sub.add_argument("--omega0", type=float, default=None, help="initial frequency")
    sub.add_argument("--omegaf", type=float, default=None, required=False,
                     help="final frequency" + ("" if need_omegaf else " (ratio axis ignores it)"))
    sub.add_argument("--t0", type=float, default=None, help="transition centre time")
    sub.add_argument("--t-end", type=float, default=None, dest="t_end",
                     help="simulation end time (default: transition end plus three periods)")
    sub.add_argument("--n", type=int, default=None,
                     help="starting slice count for the convergence ladder")
    sub.add_argument("--tol", type=float, default=None,
                     help="convergence tolerance on the squeeze magnitude")
    sub.add_argument("--stride", type=int, default=None, help="record every this many slices")
    sub.add_argument("--out", type=str, default=None, help="output file path")
    sub.add_argument("--config", type=str, default=None,
                     help="config file, key = value per line, '#' comments")
    sub.add_argument("--threshold", type=float, default=None,
                     help="adiabaticity classification cutoff")
    sub.add_argument("--midpoint", action="store_const", const=True, default=None,
                     help="sample the frequency at slice midpoints instead of right endpoints")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Squeezing of an oscillator under a time-dependent frequency.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("evolve", help="run one trajectory, write CSV and summary")
    _add_common(ev, need_omegaf=True)
    ev.add_argument("--eps", type=float, default=None, help="ramp width (0 = sudden jump)")
    ev.add_argument("--profile-file", type=str, default=None, dest="profile_file",
                    help="two-column (t, omega) sample file; overrides the ramp flags")

    sw = subs.add_parser("sweep", help="final squeezing across ramp widths")
    _add_common(sw, need_omegaf=True)
    sw.add_argument("--eps", type=str, default=None,
                    help="comma-separated ramp widths, e.g. 0,0.1,0.4")

    co = subs.add_parser("contour", help="final squeezing over a ratio/ramp-width grid")
    _add_common(co, need_omegaf=False)
    co.add_argument("--mode", choices=("above-unity", "below-unity"), default=None)
    co.add_argument("--source", choices=("formula", "simulation"), default=None)
    co.add_argument("--ratio-min", type=float, default=None, dest="ratio_min")
    co.add_argument("--ratio-max", type=float, default=None, dest="ratio_max")
    co.add_argument("--eps-min", type=float, default=None, dest="eps_min")
    co.add_argument("--eps-max", type=float, default=None, dest="eps_max")
    co.add_argument("--n-ratio", type=int, default=None, dest="n_ratio")
    co.add_argument("--n-eps", type=int, default=None, dest="n_eps")

    ft = subs.add_parser("fit", help="recover the secant decay constants from a sweep")
    _add_common(ft, need_omegaf=False)
    ft.add_argument("--source", choices=("formula", "simulation"), default=None)

    ve = subs.add_parser("verify", help="run the built-in check suite")
    _add_common(ve, need_omegaf=False)
    ve.add_argument("--flip-b-sign", action="store_true", help=argparse.SUPPRESS)
    return parser


def _require(merged: dict, key: str, command: str):
    if merged[key] is None:
        raise _CliUsageError(f"--{key.replace('_', '-')} is required for {command}")
    return merged[key]


def _sim_config(merged: dict) -> SimulationConfig:
    return SimulationConfig(
        t_end=merged["t_end"],
        n_slices=merged["n"],
        record_stride=merged["stride"],
        convergence_tol=merged["tol"],
        midpoint=merged["midpoint"],
    )


def _check_finite(traj) -> None:
    for name in ("r", "phi", "R", "Phi", "beta_mod"):
        arr = getattr(traj, name)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            i = int(bad[0])
            raise FloatingPointError(
                f"non-finite {name} at record {i} (t = {traj.t[i]:.6g})"
            )


def _emit(text: str, out_path, label: str) -> None:
    if out_path:
        output.write_text(out_path, text)
        print(f"wrote {label} to {out_path}")
    else:
        sys.stdout.write(text)


def run_evolve(merged: dict) -> int:
    if merged["profile_file"]:
        profile = load_samples(merged["profile_file"])
    else:
        omegaf = _require(merged, "omegaf", "evolve")
        eps = float(merged["eps"])
        profile = tanh_profile(merged["omega0"], omegaf, merged["t0"], eps)
    traj = propagate_converged(profile, _sim_config(merged))
    _check_finite(traj)
    summary = None
    try:
        summary = post_transition_summary(traj, profile)
    except (WindowError, ValueError):
        pass  # window may not fit in a short or sampled run; summary is optional
    text = output.summary_text(traj, summary)
    if profile.kind != "sampled" and profile.omegaf != profile.omega0:
        measure = analytic.adiabaticity_measure(
            profile.omega0, profile.omegaf, profile.epsilon
        )
        text += f"adiabaticity_measure = {output.format_float(measure)}\n"
        adiabatic = measure < merged["threshold"]
        text += f"adiabatic = {'true' if adiabatic else 'false'}\n"
    if merged["out"]:
        output.write_text(merged["out"], output.trajectory_csv(traj))
        output.write_text(merged["out"] + ".summary", text)
        print(f"wrote trajectory to {merged['out']}")
        print(f"wrote summary to {merged['out']}.summary")
    sys.stdout.write(text)
    return EXIT_OK


def run_sweep(merged: dict) -> int:
    omegaf = _require(merged, "omegaf", "sweep")
    eps_text = merged["eps"]
    if isinstance(eps_text, str):
        epsilons = [float(tok) for tok in eps_text.split(",") if tok.strip()]
    else:
        epsilons = [float(eps_text)]
    if not epsilons:
        raise ValueError("--eps must list at least one ramp width")
    points = analytic.sweep_final_sp(merged["omega0"], omegaf, epsilons, _sim_config(merged))
    for pt in points:
        if pt.error is not None:
            print(f"warning: eps = {pt.epsilon:g} failed: {pt.error}", file=sys.stderr)
    _emit(output.sweep_csv(points, merged["omega0"], omegaf), merged["out"], "sweep")
    return EXIT_OK


def run_contour(merged: dict) -> int:
    mode = merged["mode"]
    ratio_min = merged["ratio_min"]
    ratio_max = merged["ratio_max"]
    if ratio_min is None:
        ratio_min = 1.5 if mode == "above-unity" else 0.1
    if ratio_max is None:
        ratio_max = 10.0 if mode == "above-unity" else 0.9
    grid = analytic.contour_grid(
        (ratio_min, ratio_max),
        (merged["eps_min"], merged["eps_max"]),
        merged["n_ratio"],
        merged["n_eps"],
        mode=mode,
        source=merged["source"],
        cfg=_sim_config(merged),
    )
    _emit(output.contour_csv(grid), merged["out"], "contour")
    return EXIT_OK


def run_fit(merged: dict) -> int:
    data = analytic.reference_sweep_data(cfg=_sim_config(merged), source=merged["source"])
    fit = analytic.fit_ansatz(data)
    _emit(output.fit_text(fit), merged["out"], "fit")
    return EXIT_OK


def _verify_checks(tol_unit: float, flip_b_sign: bool):
    """Yield (name, passed, detail) for each built-in check."""
    from .frequency import jump_profile

    omega0, omegaf, t0 = 1.0, 3.0, 10.0

    # sudden switch against the closed form, fixed fine grid (no ladder:
    # inter-resolution deltas understate the boundary-offset error here)
    p_jump = jump_profile(omega0, omegaf, t0)
    cfg_jump = SimulationConfig(n_slices=1 << 16, record_stride=16, convergence_tol=1e-4)
    traj_j = evolution.propagate(p_jump, cfg_jump, flip_b_sign=flip_b_sign)
    mask = traj_j.t >= t0
    ref = analytic.jump_sp_closed_form(omega0, omegaf, traj_j.t[mask] - t0)
    supdev = float(np.max(np.abs(traj_j.r[mask] - ref)))
    yield "jump-oracle", supdev <= 1e-3, f"sup deviation {supdev:.3e} (tol 1.0e-03)"

    summary_j = post_transition_summary(traj_j, p_jump)
    rmax_err = abs(summary_j.r_max - math.log(3.0))
    period_err = abs(summary_j.period - math.pi / 3.0) / (math.pi / 3.0)
    ok = rmax_err <= 1e-3 and summary_j.r_min <= 1e-3 and period_err <= 0.01
    yield (
        "jump-extrema",
        ok,
        f"r_max err {rmax_err:.3e}, r_min {summary_j.r_min:.3e}, "
        f"period rel err {period_err:.3e}",
    )

    p_smooth = tanh_profile(omega0, omegaf, t0, 0.5)
    cfg_smooth = SimulationConfig(n_slices=4096, record_stride=4, convergence_tol=1e-4)
    traj_s = propagate_converged(p_smooth, cfg_smooth, flip_b_sign=flip_b_sign)
    summary_s = post_transition_summary(traj_s, p_smooth)
    mid_err = abs(summary_s.r_midpoint - 0.5 * math.log(3.0))
    yield "midpoint", mid_err <= 1e-2, f"|r_mid - ln(3)/2| = {mid_err:.3e} (tol 1.0e-02)"

    yield (
        "instantaneous-constancy",
        summary_s.R_std < 1e-3,
        f"post-transition R std {summary_s.R_std:.3e} (tol 1.0e-03)",
    )

    defect = max(traj_j.unitarity_defect(), traj_s.unitarity_defect())
    yield "unitarity", defect <= tol_unit, f"max defect {defect:.3e} (tol {tol_unit:.1e})"

    data = analytic.reference_sweep_data(source="formula")
    fit = analytic.fit_ansatz(data)
    fit_ok = abs(fit.c1 - 2.0) <= 1e-6 and abs(fit.c2 - 1.0) <= 1e-6
    yield "fit-recovery", fit_ok, f"c1 = {fit.c1:.8f}, c2 = {fit.c2:.8f}"

    anchor_a = analytic.fitted_sp(1.0, 5.0, 0.4)
    anchor_b = analytic.fitted_sp(1.0, 0.2, 0.4)
    a_ok = 0.3 < anchor_a < 0.4
    b_ok = 0.7 < anchor_b < 0.8
    yield (
        "contour-anchors",
        a_ok and b_ok,
        f"R(ratio 5, 0.4) = {anchor_a:.6f} in (0.3, 0.4): {a_ok}; "
        f"R(ratio 0.2, 0.4) = {anchor_b:.6f} in (0.7, 0.8): {b_ok}",
    )


def run_verify(merged: dict, flip_b_sign: bool, explicit_tol: float | None) -> int:
    # --tol here tightens the unitarity gate, not the ladder tolerance
    tol_unit = explicit_tol if explicit_tol is not None else 1e-10
    failures = 0
    for name, passed, detail in _verify_checks(tol_unit, flip_b_sign):
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _resolve(args)
        if args.command == "evolve":
            return run_evolve(merged)
        if args.command == "sweep":
            return run_sweep(merged)
        if args.command == "contour":
            return run_contour(merged)
        if args.command == "fit":
            return run_fit(merged)
        if args.command == "verify":
            return run_verify(merged, args.flip_b_sign, args.tol)
        raise ValueError(f"unknown command {args.command!r}")
    except _CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SaturationError as exc:
        print(f"error: saturation: {exc}", file=sys.stderr)
        return EXIT_SATURATION
    except StepSingularityError as exc:
        print(f"error: step singularity: {exc}", file=sys.stderr)
        return EXIT_STEP_SINGULARITY
    except WindowError as exc:
        print(f"error: analysis window: {exc}", file=sys.stderr)
        return EXIT_WINDOW
    except CompositionError as exc:
        print(f"error: composition: {exc}", file=sys.stderr)
        return EXIT_COMPOSITION
    except DegenerateDataError as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE_DATA
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NAN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
