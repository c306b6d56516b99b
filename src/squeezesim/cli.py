"""Command-line front end.

Subcommands: evolve (one trajectory), sweep (ramp widths at a fixed
frequency pair), contour (ratio by ramp-width grid), fit (decay-constant
recovery), verify (built-in check suite).  Each subcommand takes only the
flags it reads, and its parser holds their defaults.  Flags override
config-file values, which override those defaults.  Each error family maps
to its own exit status; see the README table.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analytic, output
from .checks import physics_checks, reference_runs
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

# parser destinations that a config file may not set
_NOT_CONFIG_KEYS = {"help", "config"}


def _apply_config(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make the values of a `key = value` file the defaults of one subcommand.

    Each value is converted by the type of its flag.  Keys that only another
    subcommand takes are skipped, so one file can serve several subcommands.
    """
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {a.dest: a for a in sub._actions if a.dest not in _NOT_CONFIG_KEYS}
        for name, sub in subs.choices.items()
    }
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
            action = flags[command].get(key)
            if action is None:
                if not any(key in other for other in flags.values()):
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            else:
                try:
                    values[key] = (action.type or str)(text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if action.choices is not None and values[key] not in action.choices:
                    raise ValueError(f"{path}:{lineno}: {key} must be one of "
                                     f"{', '.join(map(str, action.choices))}, got {text!r}")
    subs.choices[command].set_defaults(**values)


def _add_run_flags(sub: argparse.ArgumentParser, n_slices: int) -> None:
    """Ladder, record, output and config flags of the subcommands that propagate."""
    sub.add_argument("--t-end", type=float, default=None, dest="t_end",
                     help="simulation end time (default: transition end plus three periods)")
    sub.add_argument("--n", type=int, default=n_slices,
                     help="starting slice count for the convergence ladder "
                          "(default %(default)d)")
    sub.add_argument("--tol", type=float, default=SimulationConfig.convergence_tol,
                     help="convergence tolerance on the squeeze magnitude "
                          "(default %(default)g)")
    sub.add_argument("--stride", type=int, default=SimulationConfig.record_stride,
                     help="record every this many slices (a sweep cell records "
                          "every slice, so it does not change a sweep result)")
    sub.add_argument("--out", type=str, default=None, help="output file path")
    sub.add_argument("--config", type=str, default=None,
                     help="config file, key = value per line, '#' comments")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Squeezing of an oscillator under a time-dependent frequency.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("evolve", help="run one trajectory, write CSV and summary")
    ev.set_defaults(run=run_evolve)
    ev.add_argument("--omega0", type=float, default=1.0, help="initial frequency")
    ev.add_argument("--omegaf", type=float, default=None, help="final frequency")
    ev.add_argument("--t0", type=float, default=10.0, help="transition centre time")
    ev.add_argument("--eps", type=float, default=0.5, help="ramp width (0 = sudden jump)")
    ev.add_argument("--threshold", type=float, default=0.1,
                    help="adiabaticity classification cutoff")
    ev.add_argument("--profile-file", type=str, default=None, dest="profile_file",
                    help="two-column (t, omega) sample file; overrides the ramp flags")
    _add_run_flags(ev, SimulationConfig.n_slices)

    sw = subs.add_parser("sweep", help="final squeezing across ramp widths")
    sw.set_defaults(run=run_sweep)
    sw.add_argument("--omega0", type=float, default=1.0, help="initial frequency")
    sw.add_argument("--omegaf", type=float, default=None, help="final frequency")
    sw.add_argument("--eps", type=str, default="0.5",
                    help="comma-separated ramp widths, e.g. 0,0.1,0.4")
    _add_run_flags(sw, analytic.SWEEP_SLICES)

    co = subs.add_parser("contour", help="final squeezing over a ratio/ramp-width grid")
    co.set_defaults(run=run_contour)
    co.add_argument("--mode", choices=("above-unity", "below-unity"), default="above-unity")
    co.add_argument("--source", choices=("formula", "simulation"), default="formula")
    co.add_argument("--ratio-min", type=float, default=None, dest="ratio_min")
    co.add_argument("--ratio-max", type=float, default=None, dest="ratio_max")
    co.add_argument("--eps-min", type=float, default=0.0, dest="eps_min")
    co.add_argument("--eps-max", type=float, default=2.0, dest="eps_max")
    co.add_argument("--n-ratio", type=int, default=25, dest="n_ratio")
    co.add_argument("--n-eps", type=int, default=21, dest="n_eps")
    _add_run_flags(co, analytic.SWEEP_SLICES)

    ft = subs.add_parser("fit", help="recover the secant decay constants from a sweep")
    ft.set_defaults(run=run_fit)
    ft.add_argument("--source", choices=("formula", "simulation"), default="formula")
    _add_run_flags(ft, analytic.SWEEP_SLICES)

    ve = subs.add_parser("verify", help="run the built-in check suite")
    ve.set_defaults(run=run_verify)
    ve.add_argument("--tol", type=float, default=1e-10,
                    help="unitarity gate: largest allowed defect |alpha|^2 + |beta| - 1 "
                         "(default 1e-10)")
    return parser


def _require(args: argparse.Namespace, key: str, command: str):
    value = getattr(args, key)
    if value is None:
        raise _CliUsageError(f"--{key.replace('_', '-')} is required for {command}")
    return value


def _sim_config(args: argparse.Namespace) -> SimulationConfig:
    if args.stride < 1:
        raise ValueError(f"record_stride must be >= 1, got {args.stride}")
    return SimulationConfig(
        t_end=args.t_end,
        n_slices=args.n,
        # a sweep cell records every slice (evolution.window_means), so a
        # sweep's --stride need not divide --n
        record_stride=args.stride if args.command == "evolve" else 1,
        convergence_tol=args.tol,
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


def run_evolve(args: argparse.Namespace) -> int:
    if not args.threshold > 0.0:
        raise ValueError(f"threshold must be > 0, got {args.threshold}")
    if args.profile_file:
        profile = load_samples(args.profile_file)
    else:
        omegaf = _require(args, "omegaf", "evolve")
        profile = tanh_profile(args.omega0, omegaf, args.t0, args.eps)
    traj = propagate_converged(profile, _sim_config(args))
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
        adiabatic = analytic.is_adiabatic(
            profile.omega0, profile.omegaf, profile.epsilon, args.threshold
        )
        text += f"adiabatic = {'true' if adiabatic else 'false'}\n"
    if args.out:
        output.write_text(args.out, output.trajectory_csv(traj))
        output.write_text(args.out + ".summary", text)
        print(f"wrote trajectory to {args.out}")
        print(f"wrote summary to {args.out}.summary")
    sys.stdout.write(text)
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    omegaf = _require(args, "omegaf", "sweep")
    epsilons = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    if not epsilons:
        raise ValueError("--eps must list at least one ramp width")
    points = analytic.sweep_final_sp(args.omega0, omegaf, epsilons, _sim_config(args))
    for pt in points:
        if pt.error is not None:
            print(f"warning: eps = {pt.epsilon:g} failed: {pt.error}", file=sys.stderr)
    _emit(output.sweep_csv(points, args.omega0, omegaf), args.out, "sweep")
    return EXIT_OK


def run_contour(args: argparse.Namespace) -> int:
    mode = args.mode
    ratio_min = args.ratio_min
    ratio_max = args.ratio_max
    if ratio_min is None:
        ratio_min = 1.5 if mode == "above-unity" else 0.1
    if ratio_max is None:
        ratio_max = 10.0 if mode == "above-unity" else 0.9
    grid = analytic.contour_grid(
        (ratio_min, ratio_max),
        (args.eps_min, args.eps_max),
        args.n_ratio,
        args.n_eps,
        mode=mode,
        source=args.source,
        cfg=_sim_config(args),
    )
    _emit(output.contour_csv(grid), args.out, "contour")
    return EXIT_OK


def run_fit(args: argparse.Namespace) -> int:
    data = analytic.reference_sweep_data(cfg=_sim_config(args), source=args.source)
    fit = analytic.fit_ansatz(data)
    _emit(output.fit_text(fit), args.out, "fit")
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    # --tol here is the unitarity gate, not the ladder tolerance
    failures = 0
    for name, passed, detail in physics_checks(reference_runs(), args.tol):
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
        if getattr(args, "config", None):
            _apply_config(parser, args.command, args.config)
            args = parser.parse_args(argv)  # command line > config file > defaults
        return args.run(args)
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
