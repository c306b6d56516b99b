"""Command-line interface tests, driven through main() for speed."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from squeezesim import (
    CompositionError,
    DegenerateDataError,
    SaturationError,
    StepSingularityError,
    ValidityWarning,
    WindowError,
    cli,
    evolution,
    output,
    sweep_final_sp,
)
from squeezesim.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
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


class TestExitStatus:
    @pytest.mark.filterwarnings("ignore:sweep cell:UserWarning")
    @pytest.mark.parametrize(
        "argv, status, err",
        [
            (["evolve", "--eps", "0.5"], 2, "usage error: --omegaf is required for evolve"),
            (["evolve", "--omegaf", "3", "--stride", "3"], 3,
             "error: n_slices (4096) must be a multiple of record_stride (3)"),
            (["evolve", "--omegaf", "1e-9", "--eps", "0", "--n", "64"], 4,
             "error: saturation: squeeze magnitude "),
            (["fit", "--source", "simulation", "--t-end", "5"], 8,
             "error: degenerate data: need at least 2 data points, got 0"),
        ],
        ids=["usage", "domain", "saturation", "degenerate-data"],
    )
    def test_reachable_statuses_from_real_input(self, argv, status, err, capsys):
        assert main(argv) == status
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and captured.err.count("\n") == 1, captured.err

    # 6, 7 and 9 have no known CLI input (README), so each family is raised
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
        # the library's sweep has the CLI's seed
        r_sim = outs[0].split("\n")[1].split(",")[1]
        assert r_sim == output.format_float(sweep_final_sp(1.0, 5.0, [0.1])[0].R_final)


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

    def test_corrupted_step_sign_fails_jump_oracle(self, monkeypatch, capsys):
        step = evolution._step_arrays

        def flipped(*args):
            a, b = step(*args)
            return a, -b

        monkeypatch.setattr(evolution, "_step_arrays", flipped)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert "[FAIL] jump-oracle" in out
        assert code == EXIT_CHECK_FAILED
        # the corrupted step must not leak into later runs
        monkeypatch.undo()
        assert main(["verify"]) == EXIT_OK


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

    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezesim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for cmd in ("evolve", "sweep", "contour", "fit", "verify"):
            assert cmd in proc.stdout
