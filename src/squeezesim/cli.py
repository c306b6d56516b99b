"""Command-line front end.

Subcommands: evolve (one trajectory), sweep (ramp widths at a fixed
frequency pair), contour (ratio by ramp-width grid), fit (decay-constant
recovery), verify (built-in check suite).  Each subcommand has one
definition, its entry in _COMMANDS: it takes only the flags it reads, and
its parser holds their defaults.  main builds only the parser of the
subcommand it runs; the full tree of build_parser reads only an argv that
parser cannot (help, a missing or unknown subcommand, arguments left over)
and reports it as argparse's top-level errors.  Flags override config-file
values, which override those defaults.  Each error family maps to its exit
status through one table, _FAILURES; see the README.
"""

from __future__ import annotations

import argparse
import sys
from types import MappingProxyType

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

# (error family, exit status, stderr label) of every failure main reports,
# searched in order: the first family an exception belongs to decides
_FAILURES = (
    (_CliUsageError, EXIT_USAGE, "usage error"),
    (SaturationError, EXIT_SATURATION, "error: saturation"),
    (StepSingularityError, EXIT_STEP_SINGULARITY, "error: step singularity"),
    (WindowError, EXIT_WINDOW, "error: analysis window"),
    (CompositionError, EXIT_COMPOSITION, "error: composition"),
    (DegenerateDataError, EXIT_DEGENERATE_DATA, "error: degenerate data"),
    (FloatingPointError, EXIT_NAN, "error"),
    (ValueError, EXIT_DOMAIN, "error"),
    (OSError, EXIT_DOMAIN, "error"),
)

def _config_values(command: str, path: str) -> dict:
    """The values of a `key = value` file, which replace the flag defaults of
    one subcommand.

    Each value is converted by the type of its flag.  Keys that only another
    subcommand takes are skipped, so one file can serve several subcommands.
    """
    flags = {}
    for name, (_, add_flags) in _COMMANDS.items():
        parser = argparse.ArgumentParser(add_help=False)
        add_flags(parser)
        flags[name] = {a.dest: a for a in parser._actions if a.dest != "config"}
    values = {}
    with open(path, encoding="utf-8") as fh:
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
    return values


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """Ladder, record, output and config flags of the subcommands that propagate."""
    sub.add_argument("--t-end", type=float, default=None, dest="t_end",
                     help="simulation end time (default: transition end plus three periods)")
    sub.add_argument("--n", type=int, default=SimulationConfig.n_slices,
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


def _evolve_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega0", type=float, default=1.0, help="initial frequency")
    sub.add_argument("--omegaf", type=float, default=None, help="final frequency")
    sub.add_argument("--t0", type=float, default=10.0, help="transition centre time")
    sub.add_argument("--eps", type=float, default=0.5, help="ramp width (0 = sudden jump)")
    sub.add_argument("--threshold", type=float, default=0.1,
                     help="adiabaticity classification cutoff")
    sub.add_argument("--profile-file", type=str, default=None, dest="profile_file",
                     help="two-column (t, omega) sample file; overrides the ramp flags")
    _add_run_flags(sub)


def _sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega0", type=float, default=1.0, help="initial frequency")
    sub.add_argument("--omegaf", type=float, default=None, help="final frequency")
    sub.add_argument("--eps", type=str, default="0.5",
                     help="comma-separated ramp widths, e.g. 0,0.1,0.4")
    _add_run_flags(sub)


def _contour_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=("above-unity", "below-unity"), default="above-unity")
    sub.add_argument("--source", choices=("formula", "simulation"), default="formula")
    sub.add_argument("--ratio-min", type=float, default=None, dest="ratio_min")
    sub.add_argument("--ratio-max", type=float, default=None, dest="ratio_max")
    sub.add_argument("--eps-min", type=float, default=0.0, dest="eps_min")
    sub.add_argument("--eps-max", type=float, default=2.0, dest="eps_max")
    sub.add_argument("--n-ratio", type=int, default=25, dest="n_ratio")
    sub.add_argument("--n-eps", type=int, default=21, dest="n_eps")
    _add_run_flags(sub)


def _fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", choices=("formula", "simulation"), default="formula")
    _add_run_flags(sub)


def _verify_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="unitarity gate: largest allowed defect |alpha|^2 + |beta| - 1 "
                          "(default 1e-10)")


# the one definition of each subcommand, in the order of the top-level help:
# its help line and the function that adds its flags
_COMMANDS = MappingProxyType({
    "evolve": ("run one trajectory, write CSV and summary", _evolve_flags),
    "sweep": ("final squeezing across ramp widths", _sweep_flags),
    "contour": ("final squeezing over a ratio/ramp-width grid", _contour_flags),
    "fit": ("recover the secant decay constants from a sweep", _fit_flags),
    "verify": ("run the built-in check suite", _verify_flags),
})


def _fill(parser: argparse.ArgumentParser, name: str, values: dict) -> None:
    """Give a parser the flags of subcommand `name`, with `values` (from a
    config file) replacing their own defaults."""
    _COMMANDS[name][1](parser)
    # the runner is found by name when the parser is built, so that a
    # replaced module attribute run_<name> is the one that runs
    parser.set_defaults(command=name, run=globals()["run_" + name], **values)


def build_parser() -> argparse.ArgumentParser:
    """The full tree: every subcommand's parser under the top-level one."""
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Squeezing of an oscillator under a time-dependent frequency.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _fill(subs.add_parser(name, help=help_line), name, {})
    return parser


def _parse(argv: list[str], values: dict) -> argparse.Namespace:
    """argv read by the parser of the subcommand it names, alone, with
    `values` as for _fill.

    The full tree reads what that parser cannot: an argv that names no
    subcommand (top-level help, a missing or unknown command, a leading
    `--`) or one whose subcommand leaves arguments over.  The tree rejects
    every such argv with argparse's top-level errors, so it never needs the
    config values.
    """
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"squeezesim {name}")
        _fill(parser, name, values)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


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
    summary, ramp_items = None, []
    if profile.kind != "sampled":  # a sampled profile has no transition end
        try:
            summary = post_transition_summary(traj)
        except WindowError as exc:  # a short run: the trajectory stands alone
            print(f"warning: no summary: WindowError: {exc}", file=sys.stderr)
        if profile.omegaf != profile.omega0:
            ramp = (profile.omega0, profile.omegaf, profile.epsilon)
            ramp_items = [
                ("adiabaticity_measure", analytic.adiabaticity_measure(*ramp)),
                ("adiabatic", analytic.is_adiabatic(*ramp, args.threshold)),
            ]
    text = output.summary_text(traj, summary) + output.report(ramp_items)
    if args.out:
        _emit(output.trajectory_csv(traj), args.out, "trajectory")
        _emit(text, args.out + ".summary", "summary")
    sys.stdout.write(text)
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    omegaf = _require(args, "omegaf", "sweep")
    epsilons = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    if not epsilons:
        raise ValueError("--eps must list at least one ramp width")
    points = analytic.sweep_final_sp(args.omega0, omegaf, epsilons, _sim_config(args))
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
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"unitarity gate must be finite and >= 0, got {args.tol}")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv, {})
    try:
        if getattr(args, "config", None):
            # command line > config file > defaults
            args = _parse(argv, _config_values(args.command, args.config))
        return args.run(args)
    except tuple(family for family, _, _ in _FAILURES) as exc:
        _, status, label = next(row for row in _FAILURES if isinstance(exc, row[0]))
        print(f"{label}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
