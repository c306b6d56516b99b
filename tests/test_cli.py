"""Command-line interface tests, driven through main() for speed."""

import argparse
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from squeezesim import (
    CompositionError,
    DegenerateDataError,
    SaturationError,
    SaturationWarning,
    SimulationConfig,
    StepSingularityError,
    ValidityWarning,
    WindowError,
    analytic,
    checks,
    cli,
    evolution,
    output,
    sweep_final_sp,
)
from squeezesim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_COMPOSITION,
    EXIT_DEGENERATE_DATA,
    EXIT_DOMAIN,
    EXIT_NAN,
    EXIT_OK,
    EXIT_STEP_SINGULARITY,
    EXIT_USAGE,
    main,
)

FAST_EVOLVE = ["--n", "1024", "--stride", "8", "--tol", "1e-3"]


class TestEvolve:
    def test_writes_trajectory_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["evolve", "--omegaf", "3", "--eps", "0.5", "--out", str(out)]
            + FAST_EVOLVE
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"
        summary = (tmp_path / "run.csv.summary").read_text()
        assert "R_final = " in summary
        assert "adiabaticity_measure = " in summary
        captured = capsys.readouterr()
        assert "wrote trajectory" in captured.out

    def test_stdout_summary_without_out(self, capsys):
        code = main(["evolve", "--omegaf", "3", "--eps", "0.5"] + FAST_EVOLVE)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "converged = " in out
        assert "r_end = " in out

    def test_step_singularity_exit(self, nan_steps_from, capsys):
        nan_steps_from(700)
        code = main(["evolve", "--omegaf", "3", "--eps", "0.5"] + FAST_EVOLVE)
        assert code == EXIT_STEP_SINGULARITY == 5
        err = capsys.readouterr().err
        assert err.startswith("error: step singularity")
        assert "at step 704" in err

    def test_overflowing_frequency_fails_without_warnings(self, capsys):
        # omega^2 overflows at the CF4 nodes of every level: each level is
        # unresolved, and the failure line is all that reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--omegaf", "1e155"]) == EXIT_STEP_SINGULARITY
        err = capsys.readouterr().err
        assert err.startswith("error: step singularity") and err.count("\n") == 1, err

    def test_unresolvable_ramp_fails_without_warnings(self, capsys):
        # omega0^2 = 1e-400 underflows to 0, so no level resolves the lead-in;
        # each failed column becomes the identity, and none of its values warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--omega0", "1e-200", "--omegaf", "1"]) == EXIT_STEP_SINGULARITY
        err = capsys.readouterr().err
        assert err == "error: step singularity: slice 1 is too coarse for the ramp\n"

    @pytest.mark.parametrize("flags", [["--omegaf", "3", "--eps", "1e308"], ["--omegaf", "1e-308"]],
                             ids=["wide-ramp", "slow-final-frequency"])
    def test_overflowing_default_end_is_domain_error(self, flags, capsys):
        # the default end t0 + 3 eps + 3 pi/omegaf overflows to inf: it is
        # rejected as an explicit --t-end inf is, before any slice steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "transition window starts before t = 0", UserWarning)
            assert main(["evolve"] + flags) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err == "error: t_end must be finite and > 0, got inf (transition end plus three periods)\n"

    def test_failed_levels_build_no_record_times(self, capsys):
        # the same run climbs to n_max = 2^24 slices, every level failing in
        # its first chunk; the 2^24 + 1 records (256 MB), their time axis and
        # its temporaries (about 400 MB) are allocated only once a cell runs
        tracemalloc.start()
        try:
            assert main(["evolve", "--omega0", "1e-200", "--omegaf", "1"]) == EXIT_STEP_SINGULARITY
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_missing_omegaf_is_usage_error(self, capsys):
        code = main(["evolve", "--eps", "0.5"])
        assert code == EXIT_USAGE
        assert "--omegaf" in capsys.readouterr().err

    def test_domain_error_exit(self, tmp_path, capsys):
        code = main(["evolve", "--omegaf", "-3", "--eps", "0.5"])
        assert code == EXIT_DOMAIN
        assert "positive" in capsys.readouterr().err
        # non-finite ramp parameters are rejected before any stepping
        prof = tmp_path / "omega.txt"
        prof.write_text("0 1\n1 nan\n2 2\n")
        for flags in (
            ["--omegaf", "nan"],
            ["--omegaf", "inf"],
            ["--omegaf", "3", "--omega0", "nan"],
            ["--omegaf", "3", "--eps", "nan"],
            ["--omegaf", "3", "--t0", "nan"],
            ["--profile-file", str(prof)],
        ):
            assert main(["evolve"] + FAST_EVOLVE + flags) == EXIT_DOMAIN, flags
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "0"],
            ["--threshold", "nan"],
            ["--tol", "nan"],
            ["--profile-file", "{profile}", "--threshold", "-5"],
            ["--omegaf", "1", "--threshold", "nan"],
            ["--tol", "inf"],
        ],
    )
    def test_threshold_and_tol_must_be_positive(self, flags, tmp_path, capsys):
        # checked before propagating, also where no adiabaticity is reported
        prof = tmp_path / "omega.txt"
        prof.write_text("0 1\n20 2\n")
        flags = [f.format(profile=prof) for f in flags]
        code = main(["evolve", "--omegaf", "3"] + FAST_EVOLVE + flags)
        assert code == EXIT_DOMAIN
        assert "must be > 0" in capsys.readouterr().err

    def test_profile_file(self, tmp_path, capsys):
        prof = tmp_path / "omega.txt"
        rows = ["# t omega"]
        rows += [f"{t * 0.01:.4f} 1.0" for t in range(0, 50)]
        rows += [f"{0.5 + t * 0.01:.4f} {1.0 + t * 0.04:.4f}" for t in range(1, 51)]
        prof.write_text("\n".join(rows) + "\n")
        code = main(
            ["evolve", "--profile-file", str(prof), "--n", "512", "--stride", "8",
             "--tol", "1e-2"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "profile_kind = sampled" in out
        # the run starts at the first sample time; a table has no ramp
        # centre or width to report
        prof.write_text("5 1\n25 2\n")
        code = main(["evolve", "--profile-file", str(prof)] + FAST_EVOLVE)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "t_start = 5.00000000000e+00" in out
        assert "\nepsilon = none\n" in out
        assert "\nt0 = none\n" in out

    def test_profile_file_past_its_last_sample_exits_3(self, tmp_path, capsys):
        # a span that leaves the table at either end fails before any slice
        prof = tmp_path / "omega.txt"
        for table, t_end, err in [
            ("0 1\n3 1\n4 2\n7 2\n", "20", "error: time outside sampled range [0.0, 7.0]\n"),
            ("1 1\n3 1\n4 2\n7 2\n", "1", "error: t_end 1.0 must exceed t_start 1.0\n"),
            ("1 1\n3 1\n4 2\n7 2\n", "0.5", "error: t_end 0.5 must exceed t_start 1.0\n"),
        ]:
            prof.write_text(table)
            assert main(["evolve", "--profile-file", str(prof), "--t-end", t_end]) == EXIT_DOMAIN == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == err

    def test_dropped_summary_is_reported(self, capsys):
        # the window after the transition, [11.5, 12], is shorter than three
        # periods: the trajectory report stands, with exit 0, and one stderr
        # line names why the summary is missing
        assert main(["evolve", "--omegaf", "3", "--t-end", "12"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "\nconverged = true\n" in captured.out
        assert "R_final" not in captured.out
        assert captured.err == (
            "warning: no summary: WindowError: window [11.5, 12.0] spans 0.5, "
            "need at least three periods (3.14159)\n"
        )

    def test_sparse_stride_stops_at_the_second_level(self, capsys):
        # the summary reads the swing from the last record, so records
        # fewer than one per period need no further level
        assert main(["evolve", "--omegaf", "3", "--stride", "64"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "\nn_slices = 512\n" in captured.out
        assert "\nn_records = 9\n" in captured.out
        assert "\nR_final = " in captured.out
        assert captured.err == ""

    def test_final_R_beyond_double_precision_exits_4(self, capsys):
        # the jump from omega0 = 1e-100 clamps R at the last record to 17.6,
        # where the sudden switch gives 115.1: a swing read from it would put
        # r_max at 132.7 for about 230
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            assert main(["evolve", "--omega0", "1e-100", "--omegaf", "1", "--eps", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: saturation: instantaneous squeeze R = 17.6164 at t_end is beyond double precision\n"
        )

    def test_saturated_run_without_a_summary_exits_4(self, capsys):
        # the same jump ended at 12 has no summary window, and its ladder,
        # not the summary, fails it: at its seed R at t_end is clamped to
        # 17.6 where the sudden switch gives 115.1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            argv = ["evolve", "--omega0", "1e-100", "--omegaf", "1", "--eps", "0", "--t-end", "12"]
            assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: saturation: instantaneous squeeze R = 17.6164 at t_end is beyond double precision\n"
        )

    def test_slices_wider_than_the_ramp_give_no_answer(self, capsys):
        # at t_end 1e9 the ladder's slices are far wider than the ramp, so
        # every level would step it as a jump and report the sudden R =
        # 0.549306 as converged, where the ramp gives 0.2199377: no level
        # counts, and at n_max the run fails as a singular step
        assert main(["evolve", "--omegaf", "3", "--eps", "0.5", "--t-end", "1e9"]) == EXIT_STEP_SINGULARITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step singularity: slice 1 is too coarse for the ramp\n"

    def test_non_finite_record_exits_9(self, monkeypatch, capsys):
        # no known input reaches it (README), so the ladder's trajectory is
        # given a nan R: evolve reports it as one line and prints no report
        propagate = cli.propagate_converged

        def with_nan(p, cfg):
            traj = propagate(p, cfg)
            big_r = traj.R.copy()
            big_r[5] = math.nan
            return traj._replace(R=big_r)

        monkeypatch.setattr(cli, "propagate_converged", with_nan)
        assert main(["evolve", "--omegaf", "3"]) == EXIT_NAN == 9
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite R at record 5 (t = 0.142984)\n"

    def test_saturated_sweep_cell_fails(self, capsys):
        # a sweep cell's R is read over its window, where it saturates too:
        # its row is nan and its failure is warned once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--omega0", "1e-100", "--omegaf", "1", "--eps", "0"]) == EXIT_OK
        failed = [str(w.message) for w in caught if w.category is UserWarning]
        assert failed == [
            "sweep cell (omegaf=1, eps=0) failed: SaturationError: instantaneous squeeze "
            "R = 18.715 after the transition is beyond double precision"
        ]
        assert capsys.readouterr().out.split()[1].startswith("0.00000000000e+00,nan,")

    def test_readme_quotes_the_stop_levels(self, capsys):
        # "`evolve ...` stops at N slices": each quoted run, made as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quoted = re.findall(r"`(evolve [-\w. ]+)` stops\s+at\s+([\d,]+)\s+slices", readme)
        assert {argv for argv, _ in quoted} == {
            "evolve --omegaf 3", "evolve --omegaf 100 --eps 0", "evolve --omegaf 3 --stride 64"
        }
        for argv, n in quoted:
            assert main(argv.split()) == EXIT_OK
            assert f"\nn_slices = {n.replace(',', '')}\n" in capsys.readouterr().out, argv

    def test_sampled_profile_has_no_summary_and_no_warning(self, tmp_path, capsys):
        # a tabulated profile has no transition end to open a window at
        prof = tmp_path / "omega.txt"
        prof.write_text("0 1\n5 1\n6 2\n30 2\n")
        assert main(["evolve", "--profile-file", str(prof)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "profile_kind = sampled" in captured.out
        assert "R_final" not in captured.out
        assert captured.err == ""

    def test_determinism(self, tmp_path):
        args = ["evolve", "--omegaf", "3", "--eps", "0.5"] + FAST_EVOLVE
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omegaf = 3.0\neps = 0.5  # file value\nstride = 8\nn = 1024\ntol = 1e-3\n")
        code = main(["evolve", "--config", str(cfg), "--eps", "0.25"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "epsilon = 2.50000000000e-01" in out

    def test_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omegaf = 2.0\nn = 1024\nstride = 8\ntol = 1e-3\n")
        code = main(["evolve", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "omegaf = 2.00000000000e+00" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_final = 3.0\n")
        code = main(["evolve", "--config", str(cfg), "--omegaf", "3", "--eps", "0.5"])
        assert code == EXIT_DOMAIN
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_names_location(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        for text in ("omegaf 3.0\n", "n = x\n"):
            cfg.write_text(text)
            code = main(["evolve", "--config", str(cfg)])
            assert code == EXIT_DOMAIN
            assert f"{cfg}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, allowed",
        [("contour", "mode", "above-unity, below-unity"), ("fit", "source", "formula, simulation")],
    )
    def test_value_outside_choices_names_location(self, tmp_path, capsys, command, key, allowed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {command}\n{key} = sideways\n")
        assert main([command, "--config", str(cfg)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"{cfg}:2: {key} must be one of {allowed}, got 'sideways'" in err

    def test_file_is_read_as_utf8_under_any_locale(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omegaf = 3.0  # \u03c9_f\nn = 1024\nstride = 8\ntol = 1e-3\n",
                       encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "squeezesim.cli", "evolve", "--config", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "omegaf = 3.00000000000e+00" in proc.stdout

    def test_keys_of_other_subcommands_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "omegaf = 3.0\nn = 1024\nstride = 8\ntol = 1e-3\n"
            "mode = below-unity\nn_eps = 3\n"
        )
        assert main(["evolve", "--config", str(cfg)]) == EXIT_OK
        from_file = capsys.readouterr().out
        base = ["evolve", "--omegaf", "3"] + FAST_EVOLVE
        assert main(base) == EXIT_OK
        assert capsys.readouterr().out == from_file
        assert main(["evolve", "--omegaf", "3"] + FAST_EVOLVE[2:]) == EXIT_OK
        assert capsys.readouterr().out != from_file  # the file's n was applied

        # no subcommand takes midpoint any more
        cfg.write_text("omegaf = 3.0\nmode = below-unity\nmidpoint = true\n")
        assert main(["evolve", "--config", str(cfg)]) == EXIT_DOMAIN
        assert "unknown key 'midpoint'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--omegaf", "3", "--t0", "5"],
        ["contour", "--omega0", "2"],
        ["fit", "--threshold", "1"],
        ["verify", "--out", "x"],
        ["verify", "--config", "f"],
        ["sweep", "--omegaf", "3", "--midpoint"],
        ["contour", "--midpoint"],
        ["fit", "--midpoint"],
        ["verify", "--flip-b-sign"],
        ["evolve", "--midpoint"],
    ],
)
def test_flag_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--omegaf", "3", "--eps=-1,0.5"],
        ["sweep", "--omegaf", "3", "--eps", "nan"],
        ["sweep", "--omegaf", "3", "--eps", "inf,0.5"],
        ["sweep", "--omegaf=-3", "--eps", "0.5"],
        ["contour", "--source", "formula", "--eps-max", "inf", "--n-ratio", "2", "--n-eps", "3"],
        ["contour", "--source", "formula", "--ratio-max", "inf", "--n-ratio", "3", "--n-eps", "2"],
        ["contour", "--source", "simulation", "--eps-max", "inf", "--n-ratio", "2", "--n-eps", "3"],
        ["contour", "--source", "simulation", "--ratio-max", "inf", "--n-ratio", "3", "--n-eps", "2"],
    ],
)
def test_bad_sweep_input_fails_before_any_cell_steps(argv, monkeypatch, capsys):
    # every profile and range is checked before the first cell steps, so the
    # whole command fails with one error line and prints no partial table
    def no_stepping(*args):
        raise AssertionError("stepped a cell of an invalid sweep")

    monkeypatch.setattr(evolution, "_propagate", no_stepping)
    assert main(argv) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, status, failed",
    [
        (["sweep", "--omegaf", "3", "--eps", "0.5,2", "--t-end", "11"], EXIT_OK,
         ["omegaf=3, eps=0.5", "omegaf=3, eps=2"]),
        (["contour", "--source", "simulation", "--n-ratio", "2", "--n-eps", "2",
          "--t-end", "11"], EXIT_OK,
         ["omegaf=1.5, eps=0", "omegaf=1.5, eps=2", "omegaf=10, eps=2"]),
        (["fit", "--source", "simulation", "--t-end", "5"], EXIT_DEGENERATE_DATA,
         [f"omegaf={omegaf:g}, eps={eps:g}" for k in analytic.SWEEP_RATIOS
          for omegaf in (k, 1.0 / k) for eps in analytic.SWEEP_EPSILONS]),
    ],
    ids=["sweep", "contour", "fit"],
)
def test_each_failed_cell_warns_once(argv, status, failed, capsys):
    # a window shorter than three periods fails its cell; the library warns
    # once per cell, and the front end adds no report of its own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == status
    prefixes = [str(w.message).split(") failed: WindowError: window [")[0] for w in caught]
    assert prefixes == [f"sweep cell ({cell}" for cell in failed]
    assert all(w.category is UserWarning for w in caught)
    out, err = capsys.readouterr()
    if status == EXIT_OK:  # a failed cell keeps its nan row
        assert err == ""
        assert sum(",nan" in row for row in out.split()[1:]) == len(failed)
    else:
        assert out == ""
        assert err == "error: degenerate data: need at least 2 data points, got 0\n"


# the report of a ramp whose width, 1e-320, is far below every |t - t0| at
# which omega is read: (t - t0)/eps overflows and tanh of it is +-1, a jump.
# Its slices are far wider than 4 eps, and it is within tol of its jump at
# every time, so each record is the jump's map and the report the jump's
_TINY_WIDTH_REPORT = """\
profile_kind = tanh
omega0 = 1.00000000000e+00
omegaf = 3.00000000000e+00
epsilon = 9.99988867183e-321
t0 = 1.00000000000e+01
t_start = 0.00000000000e+00
t_end = 1.31415926536e+01
n_slices = 512
n_records = 513
converged = true
achieved_delta = 0.00000000000e+00
unitarity_defect = 8.88178419700e-16
r_end = 4.89858719659e-16
phi_end = -1.57079632679e+00
R_end = 5.49306144334e-01
Phi_end = -3.14159265359e+00
window_start = 1.00000000000e+01
window_end = 1.31415926536e+01
r_min = 0.00000000000e+00
r_max = 1.09861228867e+00
r_midpoint = 5.49306144334e-01
amplitude = 1.09861228867e+00
period = 1.04719755120e+00
n_maxima = 3
R_final = 5.49306144334e-01
R_std = 2.25848164458e-16
adiabaticity_measure = inf
adiabatic = false
"""


@pytest.mark.parametrize(
    "argv, status, out, formula_warnings",
    [
        (["evolve", "--omegaf", "3", "--eps", "1e-320"], EXIT_OK, _TINY_WIDTH_REPORT, []),
        (["sweep", "--omegaf", "3", "--eps", "1e-320"], EXIT_OK,
         "epsilon,R_sim,R_formula,rel_err\n"
         "9.99988867183e-321,5.49306144334e-01,5.49306144334e-01,2.02113709464e-16\n", []),
        (["contour", "--source", "simulation", "--n-ratio", "2", "--n-eps", "2",
          "--eps-max", "1e-310"], EXIT_OK,
         "ratio,omega0_eps,R\n"
         "1.50000000000e+00,0.00000000000e+00,2.02732554054e-01\n"
         "1.50000000000e+00,1.00000000000e-310,2.02732554054e-01\n"
         "1.00000000000e+01,0.00000000000e+00,1.15129254650e+00\n"
         "1.00000000000e+01,1.00000000000e-310,1.15129254650e+00\n", []),
        (["evolve", "--omega0", "1e200", "--omegaf", "1e-200", "--eps", "0"],
         EXIT_STEP_SINGULARITY, "", []),
        (["sweep", "--omega0", "1e200", "--omegaf", "1e-200", "--eps", "0"], EXIT_OK,
         "epsilon,R_sim,R_formula,rel_err\n0.00000000000e+00,nan,4.60517018599e+02,nan\n", []),
        (["evolve", "--omega0", "1e308", "--omegaf", "1.5e308", "--eps", "0", "--t-end", "11"], EXIT_OK,
         ["R_end = 2.02732554054e-01", "R_final = 2.02732554054e-01"], []),
        (["sweep", "--omega0", "1e308", "--omegaf", "1.5e308", "--eps", "0", "--t-end", "11"], EXIT_OK,
         "epsilon,R_sim,R_formula,rel_err\n"
         "0.00000000000e+00,2.02732554054e-01,2.02732554054e-01,1.36907344482e-16\n", []),
    ],
    ids=["evolve-tiny-width", "sweep-tiny-width", "contour-tiny-width",
         "evolve-extreme-ratio", "sweep-extreme-ratio", "evolve-huge-frequencies", "sweep-huge-frequencies"],
)
def test_extreme_inputs_step_without_numpy_warnings(argv, status, out, formula_warnings, capsys):
    # a tiny width overflows (t - t0)/eps, and omega/omega0 = 1e-400
    # underflows to 0 in the slice maps; neither warns.  A ramp of tiny
    # width answers as its jump.  The sweep's formula column takes rho_f of
    # that ratio from two logs, -460.5, with no warning.  omega + omega0
    # overflows past 1.8e308, yet the basis change and the formula read the
    # R of omega0 1, omegaf 1.5, 1/2 ln 1.5 (out as a list: lines the
    # report holds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == status
    leaked = [str(w.message) for w in caught
              if issubclass(w.category, RuntimeWarning) and w.category is not SaturationWarning]
    assert leaked == formula_warnings
    printed = capsys.readouterr().out
    if isinstance(out, list):
        assert set(out) <= set(printed.splitlines()), printed
    else:
        assert printed == out


class TestExitStatus:
    @pytest.mark.filterwarnings("ignore:sweep cell:UserWarning")
    @pytest.mark.parametrize(
        "argv, status, err",
        [
            (["evolve", "--eps", "0.5"], 2, "usage error: --omegaf is required for evolve"),
            (["evolve", "--omegaf", "3", "--stride", "3"], 3,
             "error: n_slices (256) must be a multiple of record_stride (3)"),
            (["evolve", "--omegaf", "1e-9", "--eps", "0", "--n", "64"], 4,
             "error: saturation: instantaneous squeeze magnitude "),
            (["fit", "--source", "simulation", "--t-end", "5"], 8,
             "error: degenerate data: need at least 2 data points, got 0"),
        ],
        ids=["usage", "domain", "saturation", "degenerate-data"],
    )
    def test_reachable_statuses_from_real_input(self, argv, status, err, capsys):
        assert main(argv) == status
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and captured.err.count("\n") == 1, captured.err

    def test_composition_status_from_real_input(self, capsys):
        # the jump from a vanishing omega0 saturates chi at -1, and the basis
        # change t = (omega - omega0)/(omega + omega0) rounds to 1 (README).
        # Its step, of omega/omega0 = 1e200, builds its slice map without
        # numpy's overflow warning, and without collapsing it to chi -> 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("always", SaturationWarning)
            argv = ["evolve", "--omega0", "1e-200", "--omegaf", "1", "--eps", "0"]
            assert main(argv) == EXIT_COMPOSITION == 7
        assert caught and {w.category for w in caught} == {SaturationWarning}
        err = capsys.readouterr().err
        assert err == "error: composition: singular denominator in squeeze composition\n"

    # 6 and 9 have no known CLI input (README), so each family is raised
    # from inside a subcommand
    @pytest.mark.parametrize(
        "exc, status, label",
        [
            (cli._CliUsageError("--omegaf is required"), 2, "usage error"),
            (ValueError("bad width"), 3, "error"),
            (OSError("no such file"), 3, "error"),
            (SaturationError("magnitude 1.1"), 4, "error: saturation"),
            (StepSingularityError(7), 5, "error: step singularity"),
            (WindowError("too short"), 6, "error: analysis window"),
            (CompositionError("|t chi| = 1"), 7, "error: composition"),
            (DegenerateDataError("no points"), 8, "error: degenerate data"),
            (FloatingPointError("non-finite r at record 3"), 9, "error"),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
    )
    def test_each_failure_family_has_its_status_and_label(self, exc, status, label,
                                                          monkeypatch, capsys):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "run_evolve", fail)
        assert main(["evolve"]) == status
        assert capsys.readouterr().err == f"{label}: {exc}\n"

    def test_table_covers_every_failure_status_once_and_reraises_the_rest(self, monkeypatch):
        assert {status for _, status, _ in cli._FAILURES} == set(range(2, 10))
        assert cli._FAILURES[0][0] is cli._CliUsageError  # before its base ValueError

        def fail(args):
            raise RuntimeError("not a documented failure")

        monkeypatch.setattr(cli, "run_evolve", fail)
        with pytest.raises(RuntimeError, match="not a documented failure"):
            main(["evolve"])

    def test_readme_lists_the_table_statuses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sentence = re.search(r"Exit codes:(.*?)\.", readme, re.DOTALL).group(1)
        listed = [int(n) for n in re.findall(r"(?:^|;)\s*(\d+)\s", sentence)]
        assert listed == [EXIT_OK, EXIT_CHECK_FAILED] + sorted({s for _, s, _ in cli._FAILURES})


class TestSweep:
    def test_csv_on_stdout(self, capsys):
        code = main(
            ["sweep", "--omegaf", "3", "--eps", "0,0.5", "--n", "1024",
             "--stride", "8", "--tol", "1e-3"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epsilon,R_sim,R_formula,rel_err"
        assert len(lines) == 3

    def test_empty_eps_rejected(self, capsys):
        code = main(["sweep", "--omegaf", "3", "--eps", ","])
        assert code == EXIT_DOMAIN

    def test_overflowing_default_end_fails_its_cell(self, capsys):
        # eps 1e308 puts the default end at inf: that cell fails with the
        # domain error of evolve, keeps its nan row and warns once
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--omegaf", "3", "--eps", "0.5,1e308"]) == EXIT_OK
        failed = [str(w.message) for w in caught if "sweep cell" in str(w.message)]
        assert failed == ["sweep cell (omegaf=3, eps=1e+308) failed: ValueError: t_end must be "
                          "finite and > 0, got inf (transition end plus three periods)"]
        rows = capsys.readouterr().out.split()[1:]
        assert [row.split(",")[1] for row in rows] == [rows[0].split(",")[1], "nan"]
        assert rows[0].split(",")[1] != "nan"

    def test_steep_ramps_resolved_from_default_seed(self, capsys, mode_function_oracle):
        # at 256 slices omega changes about 5x between the nodes of the
        # slice across t0, too much for a real CF4 half-step frequency; the
        # ladder doubles n before its first level
        assert main(["sweep", "--omegaf", "5", "--eps", "0.001,0.003"]) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
        assert [float(eps) for eps, *_ in rows] == [0.001, 0.003]
        for eps, r_sim, *_ in rows:
            assert abs(float(r_sim) - mode_function_oracle(1.0, 5.0, float(eps))) <= 1e-4

    def test_short_window_waits_for_enough_records(self, capsys):
        # t_end = 10 + 3 pi / 200: from the default seed the window after
        # the jump holds 2, then 3 records; the ladder compares only once it
        # holds the 4 that post_transition_summary needs
        with pytest.warns(ValidityWarning):
            assert main(["sweep", "--omegaf", "200", "--eps", "0"]) == EXIT_OK
        (row,) = capsys.readouterr().out.split()[1:]
        assert float(row.split(",")[1]) == pytest.approx(0.5 * math.log(200.0), abs=1e-9)

    def test_stride_does_not_change_a_sweep(self, capsys):
        # 4096 does not divide the default seed, and stays a valid stride
        outs = []
        for stride in ("1", "64", "4096"):
            assert main(["sweep", "--omegaf", "5", "--eps", "0.1", "--stride", stride]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert main(["sweep", "--omegaf", "5", "--stride", "0"]) == EXIT_DOMAIN
        # the library's sweep has the CLI's defaults
        r_sim = outs[0].split("\n")[1].split(",")[1]
        assert r_sim == output.format_float(sweep_final_sp(1.0, 5.0, [0.1])[0].R_final)


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every `squeezesim ...` line of the README's command-line block, run as
    # written from a directory holding the omega.txt it reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", readme, re.S)
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["squeezesim"]]
    assert len(commands) == 6
    (tmp_path / "omega.txt").write_text("0 1\n5 1\n15 3\n20 3\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


@pytest.mark.parametrize("command", ["evolve", "sweep", "contour", "fit"])
def test_ladder_seed_default_is_the_config_default(command):
    # one seed: every subcommand that propagates starts where the library does
    assert cli.build_parser().parse_args([command]).n == SimulationConfig().n_slices


class TestContour:
    def test_formula_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["contour", "--source", "formula", "--ratio-min", "2", "--ratio-max", "5",
             "--n-ratio", "4", "--n-eps", "3", "--eps-max", "1.0", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ratio,omega0_eps,R"
        assert len(lines) == 1 + 4 * 3

    def test_mode_mismatch_is_domain_error(self, capsys):
        code = main(
            ["contour", "--mode", "below-unity", "--ratio-min", "2", "--ratio-max", "5"]
        )
        assert code == EXIT_DOMAIN


class TestFit:
    def test_formula_fit_recovers_constants(self, capsys):
        code = main(["fit", "--source", "formula"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "c1 = 2.00000000000e+00" in out
        assert "c2 = 1.00000000000e+00" in out
        # the damped loop runs on to an exact fit: a stop one step early
        # prints c2 = 1.0000000000000002 and a residual of about 1e-17
        assert "residual_rms = 0.00000000000e+00" in out


class TestVerify:
    def test_reports_each_check(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        for name in (
            "jump-oracle",
            "near-sudden-oracle",
            "jump-extrema",
            "midpoint",
            "instantaneous-constancy",
            "unitarity",
            "fit-recovery",
            "contour-anchors",
        ):
            assert f"[PASS] {name}" in out
        assert code == EXIT_OK

    def test_readme_quotes_the_printed_figures(self, physics_checks):
        # "measured X, which `verify` prints as `name`": X is the first
        # figure of that check's detail, compared at the README's precision
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quoted = re.findall(r"measured ([-+.\de]+), which\s+`verify`\s+prints\s+as\s+`([\w-]+)`", readme)
        assert {name for _, name in quoted} >= {"near-sudden-oracle", "unitarity"}
        for figure, name in quoted:
            printed = re.search(r"\d\.\d+e[-+]\d+", physics_checks[name].detail).group()
            digits = len(figure.split("e")[0].replace(".", "").lstrip("0"))
            assert float(figure) == float(f"{float(printed):.{digits - 1}e}"), (name, printed)

    @pytest.mark.parametrize("gate", ["nan", "inf", "-1"])
    def test_gate_must_be_finite_and_non_negative(self, gate, capsys):
        assert main(["verify", "--tol", gate]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert "[FAIL]" not in captured.out
        assert "unitarity gate must be finite and >= 0" in captured.err

    def test_tightened_unitarity_tolerance_still_passes(self, capsys):
        main(["verify", "--tol", "1e-12"])
        assert "[PASS] unitarity" in capsys.readouterr().out

    @pytest.mark.parametrize("shape", ["monotone", "one peak"])
    def test_jump_period_from_too_few_maxima_fails_without_warning(self, reference_runs, shape):
        # records with fewer than two interior maxima have no period: it
        # reads nan, quietly, and the check fails
        run = reference_runs["jump"]
        t = run.traj.t
        r = t if shape == "monotone" else -((t - t[-1] + 0.5) ** 2)
        runs = dict(reference_runs, jump=checks.Run(run.traj._replace(r=r), run.summary))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = next(c for c in checks.physics_checks(runs) if c.name == "jump-extrema")
        assert not check.passed
        assert check.detail.endswith("period rel err nan")

    def test_corrupted_step_sign_fails_near_sudden_oracle(self, monkeypatch, capsys):
        # a flipped B spoils every stepped slice; the jump, one map from
        # chi = 0 that reads only A, is untouched, and the near-sudden ramp
        # ends 1.099 from the closed form
        maps = evolution._maps

        def flipped(*args):
            a, b, c = maps(*args)
            return a, -b, c

        monkeypatch.setattr(evolution, "_maps", flipped)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert "[FAIL] near-sudden-oracle: sup deviation 1.099e+00" in out
        assert code == EXIT_CHECK_FAILED
        # the corrupted step must not leak into later runs
        monkeypatch.undo()
        assert main(["verify"]) == EXIT_OK

    def test_wrong_jump_width_fails_jump_oracle(self, monkeypatch, capsys):
        # the jump's exact map run 1% too long: only jump-oracle can see it
        sudden = evolution._sudden_chi
        monkeypatch.setattr(evolution, "_sudden_chi", lambda wf, w0, width: sudden(wf, w0, 1.01 * width))
        code = main(["verify"])
        out = capsys.readouterr().out
        assert "[FAIL] jump-oracle: sup deviation 1.252e-01" in out
        assert code == EXIT_CHECK_FAILED


def _answer(run, argv, capsys):
    """(exit status, stdout, stderr) of run(argv), whether it returns or exits."""
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    return (status, *capsys.readouterr())


def _tree_main(argv):
    """main through the full parser tree alone: the reference of its one-parser path."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # the config values become the defaults of the tree's own subparser
        (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        subs.choices[args.command].set_defaults(**cli._config_values(args.command, args.config))
        args = parser.parse_args(argv)
    return args.run(args)


class TestOneParserPerAnswer:
    def test_a_subcommand_builds_one_parser(self, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["fit", "--source", "formula"]) == EXIT_OK
        assert progs == ["squeezesim fit"]

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        # the squeezesim console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["squeezesim", "fit", "--source", "formula"])
        assert main() == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["fit", "--source", "formula"]) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert expected.startswith("c1 = ")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["-h", "evolve"],
            ["bogus"],
            ["evolve", "--help"],
            ["sweep", "-h"],
            ["contour", "--help"],
            ["fit", "--help"],
            ["verify", "--help"],
            ["evolve", "--omegaf", "3", "--bogus"],
            ["evolve", "--omegaf", "abc"],
            ["evolve", "--omegaf", "3", "extra"],
            ["sweep", "--omegaf", "3", "--t0", "5"],
            ["verify", "--out", "x"],
            ["contour", "--mode", "sideways"],
            ["--", "evolve", "--omegaf", "3"],
            ["evolve", "--", "--omegaf", "3"],
            ["evolve", "--omegaf", "3", "--"],
            ["evolve", "--omeg", "3"],
            ["evolve", "--config", "CONFIG"],
        ],
        ids=lambda argv: " ".join(argv) or "(none)",
    )
    def test_answers_as_the_full_tree(self, argv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # n_eps and mode are contour's keys, which evolve skips
        cfg.write_text("omegaf = 3\nn = 1024\nstride = 8\ntol = 1e-3\nn_eps = 3\nmode = below-unity\n")
        answers = "CONFIG" in argv or bool({"-h", "--help"} & set(argv))
        argv = [str(cfg) if word == "CONFIG" else word for word in argv]
        expected = _answer(_tree_main, argv, capsys)
        assert _answer(main, argv, capsys) == expected
        assert expected[0] == (EXIT_OK if answers else EXIT_USAGE)


class TestEntryPoint:
    def test_console_script_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezesim.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the runtime needs numpy alone: with scipy unimportable, the fit,
        # a small evolve and verify still run and nothing loads scipy.optimize
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from squeezesim.cli import main\n"
            "assert main(['fit', '--source', 'formula']) == 0\n"
            "assert main(['evolve', '--omegaf', '3', '--n', '1024', '--stride', '8',"
            " '--tol', '1e-3']) == 0\n"
            "assert main(['verify']) == 0\n"
            "sys.exit('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_written_files_name_their_encoding(self, tmp_path):
        # with the default-encoding warning an error, evolve still writes its
        # CSV and summary, byte for byte those of an in-process run
        out = tmp_path / "run.csv"
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "squeezesim.cli", "evolve", "--omegaf", "3", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["evolve", "--omegaf", "3", "--out", str(tmp_path / "ref.csv")]) == EXIT_OK
        for suffix in ("", ".summary"):
            assert Path(f"{out}{suffix}").read_bytes() == (tmp_path / f"ref.csv{suffix}").read_bytes()

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezesim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for cmd in ("evolve", "sweep", "contour", "fit", "verify"):
            assert cmd in proc.stdout
