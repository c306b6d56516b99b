"""Unit tests for the text serialisation layer."""

import dataclasses
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
    FLOAT_FORMAT,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    _BLOCK_ROWS,
    _table,
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
    return p, traj, post_transition_summary(traj)


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

    @pytest.mark.filterwarnings("error")
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


def _reference_table(header, *columns):
    """The per-value reference of `_table`: one % per field."""
    rows = zip(*[np.asarray(col).tolist() for col in columns])
    return header + "\n" + "".join(
        ",".join(FLOAT_FORMAT % float(v) for v in row) + "\n" for row in rows
    )


class TestTable:
    """`_table` formats in bulk; every field must equal FLOAT_FORMAT % float(v)."""

    @staticmethod
    def _value_classes(rng):
        n = 20_000
        digits12 = rng.integers(10**11, 10**12, size=n)
        exps = rng.integers(-300, 290, size=n)
        # q·2^-j = q·5^j·10^-j with q odd and q·5^j of 13 digits (so ending
        # in 5): an exact decimal tie at the 12th significant digit
        halvings = rng.integers(1, 19, size=n)
        five = 5 ** halvings
        odd = 2 * rng.integers(-(-(10**12 - five) // (2 * five)),
                               (10**13 - five - 1) // (2 * five) + 1) + 1
        powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
        return {
            # every class of float64: normals, subnormals, zeros, inf and nan payloads
            "bits": rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),
            "13 digits": [float("%de%d" % (m, k)) for m, k
                          in zip(rng.integers(10**12, 10**13, size=n).tolist(), exps.tolist())],
            "12.5 digits": [float("%d5e%d" % (m, k))
                            for m, k in zip(digits12.tolist(), exps.tolist())],
            "exact ties": np.concatenate([
                digits12 + 0.5,
                (10 * digits12 + 5) * 10.0 ** rng.integers(0, 4, size=n),
                np.ldexp(odd.astype(np.float64), -halvings),
                [100000000000.5, 2.0**-18, 0.5 * 2.0**-17],
            ]),
            "powers of ten": np.concatenate([
                powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
                9.999999999995 * powers[:-1], np.nextafter(9.999999999995 * powers[:-1], 0.0),
            ]),
            "edges": [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                      2.2250738585072014e-308, 2.225073858507201e-308, 1e-290,
                      9.99999999999e-291, 1.7976931348623157e308, -1e-300, 1e-310],
            "normal": rng.normal(size=n) * 10.0 ** rng.normal(scale=3.0, size=n),
        }

    @pytest.mark.filterwarnings("error")
    def test_matches_percent_on_every_value_class(self):
        for name, values in self._value_classes(np.random.default_rng(2020)).items():
            values = np.asarray(values, dtype=np.float64)
            cols = values[: len(values) - len(values) % 8].reshape(-1, 8).T
            assert _table("h", *cols).split("\n") == _reference_table("h", *cols).split("\n"), name

    @pytest.mark.filterwarnings("error")
    def test_columns_are_cast_to_float64(self):
        cols = (
            np.array([0, 7, -3, 2**53 + 1, 10**15]),
            np.array([0.1, -2.5e-13, 3e38, 1e-45, 1.0], dtype=np.float32),
            np.array([True, False, True, True, False]),
        )
        assert _table("i,f,b", *cols) == _reference_table("i,f,b", *cols)

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 4095, 4096, 4097, 8193],
    )
    def test_block_boundaries(self, n_rows):
        rng = np.random.default_rng(n_rows)
        cols = rng.normal(size=(3, n_rows)) * 10.0 ** rng.integers(-20, 20, size=(3, n_rows))
        text = _table("a,b,c", *cols)
        assert text == _reference_table("a,b,c", *cols)
        if n_rows == 0:
            assert text == "a,b,c\n"


class TestSummaryText:
    def test_key_value_layout(self, small_run):
        _, traj, summary = small_run
        text = summary_text(traj, summary)
        lines = text.strip().split("\n")
        assert all(" = " in line for line in lines)
        keys = [line.split(" = ")[0] for line in lines]
        for expected in ("omega0", "n_slices", "converged", "R_final", "period"):
            assert expected in keys

    def test_prints_every_summary_field_once_in_field_order(self, small_run):
        # the post-transition lines are PostTransitionSummary's own fields,
        # after the trajectory's keys, as fit_text prints FitResult's
        _, traj, summary = small_run
        head, text = summary_text(traj), summary_text(traj, summary)
        assert text.startswith(head)
        names = [f.name for f in dataclasses.fields(summary)]
        tail = text[len(head):].splitlines()
        assert [line.split(" = ")[0] for line in tail] == names
        assert tail == report((name, getattr(summary, name)) for name in names).splitlines()
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert len(keys) == len(set(keys))

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
        grid = ContourGrid(ratios, xs, big_r)
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
