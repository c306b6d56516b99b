"""Unit tests for the text serialisation layer."""

import math

import numpy as np
import pytest

from squeezesim import (
    SimulationConfig,
    Trajectory,
    post_transition_summary,
    propagate_converged,
    tanh_profile,
)
from squeezesim.analytic import (
    ContourGrid,
    FitResult,
    SweepPoint,
    contour_grid,
    fitted_sp,
)
from squeezesim.output import (
    CONTOUR_HEADER,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    contour_csv,
    fit_text,
    format_float,
    report,
    summary_text,
    sweep_csv,
    trajectory_csv,
    write_text,
)


@pytest.fixture(scope="module")
def small_run():
    p = tanh_profile(1.0, 3.0, 10.0, 0.5)
    cfg = SimulationConfig(n_slices=2048, record_stride=32, n_max=2048)
    traj = propagate_converged(p, cfg)
    return p, traj, post_transition_summary(traj, p)


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert format_float(math.pi) == "3.14159265359e+00"
        assert format_float(1.0) == "1.00000000000e+00"
        assert format_float(-2.5e-13) == "-2.50000000000e-13"
        assert format_float(0.0) == "0.00000000000e+00"

    def test_lowercase_exponent(self):
        assert "e" in format_float(1e100)
        assert "E" not in format_float(1e100)

    def test_non_finite(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"


class TestTrajectoryCsv:
    def test_header_and_shape(self, small_run):
        _, traj, _ = small_run
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == TRAJECTORY_HEADER == "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"
        assert len(lines) == len(traj) + 1
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_round_trip_precision(self, small_run):
        _, traj, _ = small_run
        text = trajectory_csv(traj)
        parsed = np.loadtxt(text.splitlines()[1:], delimiter=",")
        np.testing.assert_allclose(parsed[:, 5], traj.r, rtol=1e-11, atol=1e-14)

    def test_matches_per_field_reference(self):
        # every column repeats the edge values, shuffled, over more rows
        # than one formatting block
        edge = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 - 1e-16, 1e300, -2.5e-13]
        rng = np.random.default_rng(7)
        n = 4099
        cols = [
            rng.permutation(np.resize(edge + list(rng.normal(size=5)), n))
            for _ in range(9)
        ]
        chi = np.empty(n, dtype=complex)
        chi.real, chi.imag = cols[3], cols[4]
        traj = Trajectory(
            t=cols[0],
            omega=cols[1],
            rho=cols[2],
            chi=chi,
            r=cols[5],
            phi=cols[6],
            R=cols[7],
            Phi=cols[8],
            beta_mod=np.zeros(n),
            profile=tanh_profile(1.0, 3.0, 10.0, 0.5),
            n_slices=n - 1,
        )
        lines = trajectory_csv(traj).split("\n")
        assert lines[0] == TRAJECTORY_HEADER
        assert lines[-1] == ""
        assert lines[1:-1] == [",".join(format_float(v) for v in row) for row in zip(*cols)]

    def test_byte_determinism(self, small_run):
        _, traj, _ = small_run
        assert trajectory_csv(traj) == trajectory_csv(traj)


class TestSummaryText:
    def test_key_value_layout(self, small_run):
        _, traj, summary = small_run
        text = summary_text(traj, summary)
        lines = text.strip().split("\n")
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ")[0] for line in lines]
        for expected in ("omega0", "n_slices", "converged", "R_final", "period"):
            assert expected in keys

    def test_summary_optional(self, small_run):
        _, traj, _ = small_run
        text = summary_text(traj)
        assert "R_final" not in text
        assert "r_end = " in text

    def test_unconverged_single_run_reports_none(self, small_run):
        _, traj, _ = small_run
        assert "achieved_delta = none" in summary_text(traj)


class TestReport:
    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "true"),
            (False, "false"),
            (np.bool_(True), "true"),
            (np.bool_(False), "false"),
            (None, "none"),
            (80, "80"),
            (np.int64(-3), "-3"),
            ("80 points", "80 points"),
            (2.5, "2.50000000000e+00"),
            (np.float64(-0.0), "-0.00000000000e+00"),
            (math.nan, "nan"),
        ],
        ids=["true", "false", "np-true", "np-false", "none", "int", "np-int",
             "str", "float", "np-negative-zero", "nan"],
    )
    def test_renders_each_value_kind(self, value, text):
        assert report([("key", value)]) == f"key = {text}\n"

    def test_one_line_per_item_in_order(self):
        assert report([("a", 1), ("b", None)]) == "a = 1\nb = none\n"
        assert report([]) == ""


class TestSweepCsv:
    def test_layout_and_reference_column(self):
        pts = [SweepPoint(0.0, 0.5493), SweepPoint(0.5, 0.2199)]
        text = sweep_csv(pts, 1.0, 3.0)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_HEADER == "epsilon,R_sim,R_formula,rel_err"
        ref = float(lines[2].split(",")[2])
        assert ref == pytest.approx(fitted_sp(1.0, 3.0, 0.5), rel=1e-11)

    def test_failed_cell_has_nan_error(self):
        pts = [SweepPoint(0.5, float("nan"), "boom")]
        line = sweep_csv(pts, 1.0, 3.0).strip().split("\n")[1]
        assert line.split(",")[1] == "nan"
        assert line.split(",")[3] == "nan"

    @pytest.mark.filterwarnings("error")
    def test_rows_match_per_field_reference(self):
        # edge values of R, a failed cell whose R is finite, and a width
        # whose formula value underflows to 0 (rel_err nan)
        pts = [
            SweepPoint(0.0, 0.5493),
            SweepPoint(-0.0, -0.0),
            SweepPoint(0.1, math.nan),
            SweepPoint(0.2, math.inf),
            SweepPoint(0.4, 0.3, "WindowError: too short"),
            SweepPoint(5e3, 1e-300),
        ]
        lines = sweep_csv(pts, 1.0, 3.0).split("\n")
        expected = []
        for pt in pts:
            ref = fitted_sp(1.0, 3.0, pt.epsilon)
            ok = pt.error is None and ref > 0.0
            rel = abs(pt.R_final - ref) / ref if ok else math.nan
            expected.append(",".join(format_float(v) for v in (pt.epsilon, pt.R_final, ref, rel)))
        assert lines == [SWEEP_HEADER] + expected + [""]
        assert lines[5].split(",")[3] == "nan"  # the failed cell
        assert lines[6].split(",")[2:] == ["0.00000000000e+00", "nan"]


class TestContourCsv:
    def test_row_major_cells(self):
        g = contour_grid((2.0, 4.0), (0.0, 1.0), 3, 2, source="formula")
        lines = contour_csv(g).strip().split("\n")
        assert lines[0] == CONTOUR_HEADER == "ratio,omega0_eps,R"
        assert len(lines) == 1 + 3 * 2
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert float(first[1]) == 0.0

    def test_rows_match_per_field_reference(self):
        ratios = np.array([1.5, 2.0, 4.0])
        xs = np.array([-0.0, 0.5])
        big_r = np.array([[0.2, math.nan], [math.inf, -0.0], [1e-300, -2.5e-13]])
        grid = ContourGrid(ratios, xs, big_r, "above-unity", "simulation")
        lines = contour_csv(grid).split("\n")
        expected = [
            ",".join(format_float(v) for v in (k, x, big_r[i, j]))
            for i, k in enumerate(ratios)
            for j, x in enumerate(xs)
        ]
        assert lines == [CONTOUR_HEADER] + expected + [""]


class TestFitText:
    def test_fields_present(self):
        fit = FitResult(2.0, 1.0, 3.2e-17, 80, "80 points")
        text = fit_text(fit)
        assert "c1 = 2.00000000000e+00" in text
        assert "c2 = 1.00000000000e+00" in text
        assert "residual_rms = " in text
        assert "n_points = 80" in text
        assert "grid = 80 points" in text

    def test_full_text(self):
        fit = FitResult(2.0, 1.0, 3.2e-17, 80, "80 points")
        assert fit_text(fit) == (
            "c1 = 2.00000000000e+00\n"
            "c2 = 1.00000000000e+00\n"
            "residual_rms = 3.20000000000e-17\n"
            "n_points = 80\n"
            "grid = 80 points\n"
        )


class TestWriteText:
    def test_writes_exact_bytes(self, tmp_path):
        path = tmp_path / "x.csv"
        write_text(path, "a,b\n1,2\n")
        assert path.read_bytes() == b"a,b\n1,2\n"
