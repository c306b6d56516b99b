"""Unit tests for closed forms, sweeps, the ansatz fit and contour grids."""

import math
import warnings
import weakref

import numpy as np
import pytest

from squeezesim import (
    DegenerateDataError,
    FitConditionWarning,
    SaturationWarning,
    SimulationConfig,
    ValidityWarning,
    adiabaticity_measure,
    contour_grid,
    epsilon_from_slope,
    fit_ansatz,
    fitted_sp,
    is_adiabatic,
    jump_profile,
    jump_sp_closed_form,
    post_transition_summary,
    propagate_converged,
    reference_sweep_data,
    rho_of,
    step_coeffs,
    sweep_final_sp,
    tanh_profile,
    variance_cross_basis,
)
from squeezesim import cli, evolution
from squeezesim.analytic import SWEEP_EPSILONS, SWEEP_RATIOS

LN3 = math.log(3.0)


class TestJumpClosedForm:
    def test_frozen_value(self):
        assert jump_sp_closed_form(1.0, 3.0, 0.2) == pytest.approx(
            0.695430918890615646, abs=1e-15
        )

    def test_zeros_and_maxima(self):
        # vanishes at multiples of the half period, peaks at 2|rho_f|
        assert jump_sp_closed_form(1.0, 3.0, 0.0) == 0.0
        assert jump_sp_closed_form(1.0, 3.0, math.pi / 3.0) == pytest.approx(0.0, abs=1e-15)
        assert jump_sp_closed_form(1.0, 3.0, math.pi / 6.0) == pytest.approx(LN3, abs=1e-15)

    def test_direction_symmetry(self):
        # ratio k and 1/k give the same magnitude once time is rescaled
        t = 0.37
        up = jump_sp_closed_form(1.0, 3.0, t)
        down = jump_sp_closed_form(3.0, 9.0, t)  # same ratio, scaled frequencies
        assert up == pytest.approx(jump_sp_closed_form(1.0, 3.0, t))
        assert down == pytest.approx(jump_sp_closed_form(1.0, 3.0, 3 * t), abs=1e-12)

    def test_array_input(self):
        ts = np.linspace(0.0, 1.0, 7)
        out = jump_sp_closed_form(1.0, 3.0, ts)
        assert out.shape == ts.shape
        assert np.all(out >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            jump_sp_closed_form(0.0, 3.0, 0.1)


class TestFittedSp:
    def test_frozen_value(self):
        assert fitted_sp(1.0, 3.0, 0.5) == pytest.approx(
            0.223268064872684356, abs=1e-15
        )

    def test_sudden_limit_reaches_rho_f(self):
        assert fitted_sp(1.0, 3.0, 0.0) == pytest.approx(0.5 * LN3, abs=1e-15)
        assert fitted_sp(1.0, 0.2, 0.0) == pytest.approx(0.5 * math.log(5.0), abs=1e-15)

    def test_monotone_decay_in_width(self):
        eps = np.linspace(0.0, 3.0, 40)
        vals = fitted_sp(1.0, 3.0, eps)
        assert np.all(np.diff(vals) < 0.0)

    def test_direction_uses_minimum_frequency(self):
        # decreasing ramps decay on the slower final-frequency scale
        up = fitted_sp(1.0, 5.0, 1.0)
        down = fitted_sp(1.0, 0.2, 1.0)
        assert down > up
        assert down == pytest.approx(fitted_sp(1.0, 5.0, 0.2), abs=1e-15)

    def test_validity_warning_beyond_ratio_ten(self):
        with pytest.warns(ValidityWarning):
            fitted_sp(1.0, 12.0, 0.5)
        with pytest.warns(ValidityWarning):
            fitted_sp(1.0, 0.05, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted_sp(1.0, 10.0, 0.5)  # boundary included

    def test_wide_ramp_is_warning_free(self):
        # the secant's cosh overflows past an argument of about 710: R is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fitted_sp(1.0, 3.0, 5e3) == 0.0
            assert fitted_sp(1.0, 3.0, np.array([0.5, 5e3]))[1] == 0.0

    def test_sudden_limit_of_huge_frequencies_is_rho_f(self):
        # c1 (|rho_f| + c2) omega_min overflows to inf, which times eps = 0
        # was nan with a RuntimeWarning; z is 0 there, and sech 0 = 1
        rho_f = 0.5 * math.log(1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fitted_sp(1e308, 1.5e308, 0.0) == rho_f
            assert fitted_sp(1e308, 1.5e308, np.array([0.0, 0.1])).tolist() == [rho_f, 0.0]

    def test_validity_warning_names_frequencies_whose_ratio_is_not_normal(self):
        # 1e-200/1e200 underflows to 0 and 1e200/1e-200 overflows to inf;
        # a normal ratio keeps its one number
        for omega0, omegaf, named in [(1e200, 1e-200, "1e-200/1e+200"), (1e-200, 1e200, "1e+200/1e-200"),
                                      (1.0, 200.0, "200"), (1e300, 1e-10, "1e-10/1e+300")]:
            with pytest.warns(ValidityWarning) as record:
                fitted_sp(omega0, omegaf, 0.0)
            assert [str(w.message) for w in record] == [
                f"frequency ratio {named} outside the calibrated range [0.1, 10.0]"]

    def test_validation(self):
        with pytest.raises(ValueError):
            fitted_sp(1.0, 3.0, -0.1)
        with pytest.raises(ValueError):
            fitted_sp(-1.0, 3.0, 0.1)


class TestAdiabaticityMeasure:
    def test_reference_values(self):
        assert adiabaticity_measure(1.0, 3.0, 1.5) == pytest.approx(
            0.215150075117407789, abs=1e-15
        )
        assert adiabaticity_measure(1.0, 3.0, 15.0) == pytest.approx(
            0.0215150075117407789, abs=1e-15
        )

    def test_sudden_limit_is_infinite(self):
        assert adiabaticity_measure(1.0, 3.0, 0.0) == math.inf

    def test_inverse_in_width(self):
        m1 = adiabaticity_measure(1.0, 3.0, 0.5)
        m2 = adiabaticity_measure(1.0, 3.0, 1.0)
        assert m1 == pytest.approx(2.0 * m2, abs=1e-14)

    def test_decreasing_ramp_uses_min_frequency(self):
        up = adiabaticity_measure(1.0, 3.0, 1.0)
        down = adiabaticity_measure(3.0, 1.0, 1.0)
        assert down == pytest.approx(up, abs=1e-14)

    def test_degenerate_transition_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            adiabaticity_measure(2.0, 2.0, 1.0)

    def test_classification_threshold(self):
        assert is_adiabatic(1.0, 3.0, 15.0)
        assert not is_adiabatic(1.0, 3.0, 0.5)
        assert is_adiabatic(1.0, 3.0, 0.5, threshold=1.0)
        with pytest.raises(ValueError):
            is_adiabatic(1.0, 3.0, 0.5, threshold=0.0)
        with pytest.raises(ValueError):
            is_adiabatic(1.0, 3.0, 0.5, threshold=float("nan"))

    def test_returns_python_scalars(self):
        # the report renders a numpy bool or float by another rule than a
        # Python one, so the annotated types are the returned ones
        assert type(is_adiabatic(1.0, 3.0, 0.5)) is bool
        assert type(adiabaticity_measure(1.0, 3.0, 0.5)) is float


# Each public function that takes a frequency or a width, called with a
# non-finite one: a check of "<= 0" or "< 0" alone lets nan through, and inf
# gave 0.0 or inf answers
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: fitted_sp(1.0, 3.0, x),
        lambda x: fitted_sp(1.0, 3.0, np.array([0.0, x])),
        lambda x: fitted_sp(1.0, x, 0.5),
        lambda x: adiabaticity_measure(1.0, 3.0, x),
        lambda x: adiabaticity_measure(1.0, x, 0.5),
        lambda x: is_adiabatic(1.0, 3.0, x),
        lambda x: jump_sp_closed_form(1.0, x, 1.0),
        lambda x: rho_of(x, 1.0),
        lambda x: variance_cross_basis(0.5, x, 1.0, "position"),
        lambda x: epsilon_from_slope(1.0, x, 1.0),
        lambda x: step_coeffs(x, 1.0, 0.1),
        lambda x: step_coeffs(1.0, 1.0, x),
        lambda x: tanh_profile(1.0, x, 10.0, 0.5),
        lambda x: tanh_profile(1.0, 3.0, 10.0, x),
    ],
    ids=["fitted_sp-eps", "fitted_sp-eps-array", "fitted_sp-omegaf",
         "adiabaticity-eps", "adiabaticity-omegaf", "is_adiabatic-eps",
         "jump_closed_form-omegaf", "rho_of-omega", "variance_cross_basis-omega",
         "epsilon_from_slope-omegaf", "step_coeffs-omega", "step_coeffs-tau",
         "profile-omegaf", "profile-eps"],
)
def test_non_finite_input_rejected(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match="finite"):
            call(bad)


FAST = SimulationConfig(n_slices=2048, record_stride=8, convergence_tol=1e-3)


class TestSweep:
    def test_zero_width_cell_matches_jump(self):
        pts = sweep_final_sp(1.0, 3.0, [0.0], FAST)
        assert pts[0].error is None
        assert pts[0].R_final == pytest.approx(0.5 * LN3, abs=1e-6)

    def test_monotone_in_width(self):
        pts = sweep_final_sp(1.0, 3.0, [0.0, 0.5, 1.0], FAST)
        vals = [p.R_final for p in pts]
        assert vals[0] > vals[1] > vals[2]

    def test_cell_failure_is_reported_not_raised(self, monkeypatch):
        # at eps 0.5 the transition ends at t = 11.5 and at eps 1.0 at 13, so
        # t_end = 12 leaves a window shorter than three periods (negative at
        # eps 1.0); the window is checked before the first ladder level
        def no_stepping(*args):
            raise AssertionError("propagated a cell whose window is too short")

        monkeypatch.setattr(evolution, "_propagate", no_stepping)
        bad = FAST._replace(t_end=12.0)
        # two cells run their own loops, twenty would run as numpy rows
        for widths in ([0.5, 1.0], [0.5, 1.0] * 10):
            with pytest.warns(UserWarning, match="failed: WindowError: window") as record:
                pts = sweep_final_sp(1.0, 3.0, widths, bad)
            assert len(pts) == len(record) == len(widths)
            for pt in pts:
                assert math.isnan(pt.R_final)
                assert pt.error.startswith("WindowError: window ["), pt.error

    def test_unconverged_cell_warns_and_keeps_value(self):
        cfg = SimulationConfig(n_slices=256, n_max=512, convergence_tol=1e-12)
        with pytest.warns(UserWarning, match="did not converge") as record:
            pts = sweep_final_sp(1.0, 3.0, [0.5], cfg)
        message = str(record[0].message)
        for part in ("omegaf=3", "eps=0.5", "n_slices 512", "last delta"):
            assert part in message
        assert record[0].filename == __file__  # names the caller's line
        assert pts[0].error is None
        assert pts[0].R_final == pytest.approx(0.2199, abs=1e-3)

    def test_floor_at_n_max_fails_as_step_singularity(self):
        # eps 1e-4 is still too steep for its slices at n_max = 512: they
        # are about 60 eps wide, so from the first one on they are coarser
        # than the 4 eps a level needs to count
        cfg = SimulationConfig(n_slices=256, n_max=512)
        with pytest.warns(UserWarning, match=r"\(omegaf=5, eps=0.0001\) failed: StepSing"):
            floor, ramp = sweep_final_sp(1.0, 5.0, [1e-4, 0.5], cfg)
        assert floor.error == "StepSingularityError: slice 1 is too coarse for the ramp"
        assert ramp == sweep_final_sp(1.0, 5.0, [0.5], cfg)[0]
        assert ramp.error is None

    def test_ramp_warning_names_the_caller(self):
        # t0 = 10 < 3 eps: the ramp starts before t = 0
        with pytest.warns(UserWarning, match="starts before t = 0") as record:
            (pt,) = sweep_final_sp(1.0, 3.0, [4.0], SimulationConfig(n_slices=256))
        assert record[0].filename == __file__
        assert pt.error is None

    def test_ladder_tests_window_mean(self, mode_function_oracle):
        # ratio 5, eps 0.1, asked for stride 64: the cell records every
        # slice, so its window mean is the same quadrature at any stride
        cfg = SimulationConfig(record_stride=64, convergence_tol=1e-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an unconverged cell warns
            (pt,) = sweep_final_sp(1.0, 5.0, [0.1], cfg)
        assert abs(pt.R_final - mode_function_oracle(1.0, 5.0, 0.1)) <= 1e-5
        for seed in (256, 4096):
            sparse = cfg._replace(n_slices=seed)
            dense = sparse._replace(record_stride=1)
            assert (
                sweep_final_sp(1.0, 5.0, [0.1], sparse)[0].R_final
                == sweep_final_sp(1.0, 5.0, [0.1], dense)[0].R_final
            )
        # a jump is propagated exactly at every resolution (each step runs
        # only past t0), so the second level already agrees with the first;
        # the unwindowed ladder of propagate_converged stops there too, and
        # its trajectory's window mean is the sweep's value
        (jump,) = sweep_final_sp(1.0, 5.0, [0.0], cfg)
        assert jump.R_final == pytest.approx(0.5 * math.log(5.0), abs=1e-12)
        p = jump_profile(1.0, 5.0)
        traj = propagate_converged(p, cfg._replace(record_stride=1))
        assert traj.converged is True
        assert len(traj.delta_history) == 1
        assert post_transition_summary(traj).R_final == jump.R_final
        # a ramp on one fixed grid: the sweep cell's window and the summary's
        # open at the same time, so their means agree bit for bit
        for omegaf, eps in ((5.0, 0.1), (3.0, 0.5), (0.2, 2.0)):
            p = tanh_profile(1.0, omegaf, 10.0, eps)
            for n in (512, 4096):
                fixed = SimulationConfig(n_slices=n, n_max=n)
                (cell,) = evolution.window_means([p], fixed)
                traj = propagate_converged(p, fixed)
                assert cell.R_final == post_transition_summary(traj).R_final, (omegaf, eps, n)

    def test_stepping_stays_batched_on_the_default_lattice(self, monkeypatch, kernel_calls):
        # every level of at least _ROW_CELLS stepped cells steps once, as
        # numpy rows; a smaller level steps through each cell's loop, and
        # the ten jumps, which do not step, count towards neither
        calls = []
        propagate = evolution._propagate

        def propagate_spy(cells, cfg, n):
            kernel_calls.clear()
            runs = propagate(cells, cfg, n)
            calls.append((n, sum(c.p.kind != "jump" for c in cells), set(kernel_calls)))
            return runs

        monkeypatch.setattr(evolution, "_propagate", propagate_spy)
        small = 0
        for cfg in (SimulationConfig(n_slices=256), SimulationConfig(n_slices=4096)):
            calls.clear()
            assert len(reference_sweep_data(cfg=cfg, source="simulation")) == 80
            levels = sorted({n for n, _, _ in calls})
            assert levels[0] == cfg.n_slices
            for n in levels:
                at_n = [(k, kinds) for m, k, kinds in calls if m == n]
                total = sum(k for k, _ in at_n)
                if total >= evolution._ROW_CELLS:
                    assert at_n == [(total, {("rows", total)})], (n, at_n)
                else:
                    assert at_n == [(k, {("loop", k)} if k else set()) for k, _ in at_n], (n, at_n)
                    small += 1
            assert calls[0] == (cfg.n_slices, 70, {("rows", 70)})
        assert small  # from seed 256 the last level holds one cell

    def test_each_level_is_read_once(self, monkeypatch):
        # a level's cells are read in one call of the ladder's reader, as
        # they are stepped in one _propagate: 3 reads on the default
        # lattice, not one per cell and level (161)
        calls = []
        for name in ("_read_windows", "_read_r"):
            def spy(cells, runs, read=getattr(evolution, name)):
                calls.append((read.__name__, len(cells)))
                return read(cells, runs)

            monkeypatch.setattr(evolution, name, spy)
        assert len(reference_sweep_data()) == 80
        assert calls == [("_read_windows", 80), ("_read_windows", 80), ("_read_windows", 1)]
        calls.clear()
        traj = propagate_converged(tanh_profile(1.0, 40.0, 10.0, 0.05), SimulationConfig())
        assert (traj.n_slices, len(traj.delta_history)) == (2048, 3)
        assert calls == [("_read_r", 1)] * 4  # levels 256 to 2048

    def test_every_group_steps_in_kinds_order(self, monkeypatch):
        # the ladder sorts its cells once: every group it hands _propagate,
        # on the default lattice of interleaved ramps and jumps, is already
        # in _KINDS order, ramps before jumps
        groups, propagate = [], evolution._propagate

        def propagate_spy(cells, cfg, n):
            groups.append([evolution._KINDS.index(c.p.kind) for c in cells])
            return propagate(cells, cfg, n)

        monkeypatch.setattr(evolution, "_propagate", propagate_spy)
        assert len(reference_sweep_data()) == 80
        assert groups[0].count(0) == 70 and groups[0].count(2) == 10
        assert all(kinds == sorted(kinds) for kinds in groups), groups

    def test_a_group_goes_before_the_next_one_steps(self, monkeypatch):
        # the ladder keeps no reference to a group's records once they are
        # read: each group's record buffers, the stepped cells' and the
        # mapped cells', are gone when the next group steps
        buffers, propagate = [], evolution._propagate

        def propagate_spy(cells, cfg, n):
            alive = [n_prev for n_prev, ref in buffers if ref() is not None]
            assert not alive, f"the records of level {alive} outlive their reading"
            runs = propagate(cells, cfg, n)
            bases = {id(run[1].base): run[1].base for run in runs if isinstance(run, tuple)}
            buffers.extend((n, weakref.ref(base)) for base in bases.values())
            return runs

        monkeypatch.setattr(evolution, "_propagate", propagate_spy)
        assert len(reference_sweep_data()) == 80
        assert [n for n, _ in buffers] == [256, 256, 512, 512, 1024]  # the jumps converge at 512

    def test_coefficients_stay_batched_on_the_default_lattice(self, monkeypatch, kernel_calls):
        # each chunk of a level computes the slice maps of all its stepped
        # cells, ramps here, in one _maps call, however many cells it holds,
        # and the level's jumps take one more call for all their records.
        # A chunk holds about evolution._BLOCK cell-slices, so a level of
        # more cells runs more chunks, and the calls are counted per chunk
        # (one kernel call each); computed per cell, they would be 20 or 80
        calls, levels = [], []
        maps, propagate = evolution._maps, evolution._propagate

        def maps_spy(omega, *args):
            calls.append(np.ndim(omega))  # (2, slices, cells), or (2, records) of jumps
            return maps(omega, *args)

        def propagate_spy(cells, cfg, n):
            calls.clear()
            kernel_calls.clear()
            runs = propagate(cells, cfg, n)
            kinds = len({c.p.kind for c in cells})
            jumps = any(c.p.kind == "jump" for c in cells)
            assert calls.count(2) == jumps, (len(cells), calls)
            levels.append((len(cells), kinds, calls.count(3), len(kernel_calls)))
            return runs

        monkeypatch.setattr(evolution, "_maps", maps_spy)
        monkeypatch.setattr(evolution, "_propagate", propagate_spy)
        lattice = [tanh_profile(1.0, omegaf, epsilon=eps)
                   for k in SWEEP_RATIOS for omegaf in (k, 1.0 / k) for eps in SWEEP_EPSILONS]
        per_chunk = {}
        for k in (20, 80):
            levels.clear()
            evolution.window_means(lattice[:k], SimulationConfig())
            cells, kinds, steps, chunks = levels[0]
            assert (cells, kinds) == (k, 2)  # ramps and jumps
            per_chunk[k] = steps / chunks
            for cells, kinds, steps, chunks in levels:
                assert steps == chunks, (k, cells)
        assert per_chunk[20] == per_chunk[80] == 1

    def test_reference_lattice_shape(self):
        data = reference_sweep_data(source="formula")
        assert len(data) == 80
        ratios = {of / o0 for o0, of, _, _ in data}
        assert 1.5 in ratios and pytest.approx(1 / 1.5) in [pytest.approx(x) for x in ratios]
        with pytest.raises(ValueError):
            reference_sweep_data(source="lookup-table")


# 20 ramps at ratio 5 that a t_end of 14 and an n_max of 4096 split into
# every outcome: eps 0 is a jump; 0.001 and 0.003 hit the resolution floor
# at the seed and reach n_max unconverged, 0.001 without a comparison (its
# slices are wider than 4 eps below n_max); 1.0 leaves a window of 1 < 3 pi/5
BATCH_CFG = SimulationConfig(n_slices=256, n_max=4096, t_end=14.0, convergence_tol=5e-6)
BATCH_EPS = [0.0, 0.001, 0.003, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25,
             0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 1.0]


def _swept(epsilons, cfg=BATCH_CFG, omegaf=5.0):
    """Points of one sweep from omega0 = 1 and its warnings as (text, category, file)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = sweep_final_sp(1.0, omegaf, epsilons, cfg)
    return points, [(str(w.message), w.category, w.filename) for w in caught]


class TestBatchedSweep:
    def test_cells_match_their_own_sweeps(self, kernel_calls):
        points, caught = _swept(BATCH_EPS)
        rows = [k for kind, k in kernel_calls if kind == "rows"]
        assert rows and min(rows) >= evolution._ROW_CELLS  # stepped as rows
        alone_caught = []
        for eps, pt in zip(BATCH_EPS, points):
            (alone,), warned = _swept([eps])
            alone_caught += warned
            assert pt.error == alone.error
            if pt.error is None:
                assert abs(pt.R_final - alone.R_final) <= 1e-13, eps
        assert sorted(caught) == sorted(alone_caught)
        assert [w[0].split(")")[0] for w in caught] == [
            "sweep cell (omegaf=5, eps=0.001", "sweep cell (omegaf=5, eps=0.003",
            "sweep cell (omegaf=5, eps=1",
        ]
        assert caught[0][0] == ("sweep cell (omegaf=5, eps=0.001) did not converge: n_slices 4096, "
                                "no comparison, every level below it was too coarse (tol 5e-06)")
        assert evolution.window_means([tanh_profile(1.0, 5.0, 10.0, 0.001)], BATCH_CFG)[0][1:4] == (
            4096, False, None)
        assert points[-1].error.startswith("WindowError: window [13.0, 14.0]")
        assert points[0].R_final == pytest.approx(0.5 * math.log(5.0), abs=1e-12)

    def test_saturated_cells_warn_and_fail_as_alone(self):
        # a jump to ratio 1e9 squeezes |chi| to 1 within rounding: each cell
        # clamps (SaturationWarning), then fails (SaturationError), once; a
        # batch clamps every cell as it steps, then reports every failure
        cfg = SimulationConfig(n_slices=256, t_end=12.0)
        (alone,), warned = _swept([0.0], cfg, omegaf=1e9)
        points, caught = _swept([0.0] * 16, cfg, omegaf=1e9)
        assert alone.error.startswith("SaturationError: "), alone.error
        assert [pt.error for pt in points] == [alone.error] * 16
        clamp, failure = warned
        assert clamp[1] is SaturationWarning
        assert failure[0] == f"sweep cell (omegaf=1e+09, eps=0) failed: {alone.error}"
        assert caught == [clamp] * 16 + [failure] * 16

    def test_permuting_cells_permutes_points(self):
        order = np.random.default_rng(3).permutation(len(BATCH_EPS))
        points, _ = _swept(BATCH_EPS)
        permuted, _ = _swept([BATCH_EPS[i] for i in order])
        for i, pt in zip(order, permuted):
            assert pt.error == points[i].error
            assert np.array_equal(pt.R_final, points[i].R_final, equal_nan=True)

    def test_failed_steps_stay_in_their_cell(self, monkeypatch):
        # the slice maps of the eps 0.3 ramp are nan from slice 100 on
        steps = evolution._slice_steps

        def poisoned(cells, n, chunk, errors):
            for first, m, (a, b, c) in steps(cells, n, chunk, errors):
                for i, cell in enumerate(cells):
                    if cell.p.epsilon == 0.3:
                        a[max(0, 99 - first) :, i] = np.nan
                yield first, m, (a, b, c)

        clean, _ = _swept(BATCH_EPS)
        monkeypatch.setattr(evolution, "_slice_steps", poisoned)
        points, _ = _swept(BATCH_EPS)
        (alone,), _ = _swept([0.3])
        failed = BATCH_EPS.index(0.3)
        assert alone.error == "StepSingularityError: non-finite propagator state at step 100"
        assert points[failed].error == alone.error
        for i, (pt, ref) in enumerate(zip(points, clean)):
            if i != failed:
                assert pt.error == ref.error
                assert np.array_equal(pt.R_final, ref.R_final, equal_nan=True)


class TestCellReport:
    def test_every_front_end_warns_once_per_failed_cell(self):
        # t_end = 11 leaves no window of the default lattice three periods
        # long; in the contour only ratio 10 at eps 0 fits
        cfg = SimulationConfig(n_slices=256, t_end=11.0)

        def reported(run):
            """run's result and the text of each warning, all naming this file."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run()
            assert all(w.category is UserWarning and w.filename == __file__ for w in caught)
            return result, [str(w.message) for w in caught]

        def cells(texts):
            return [text.split(") failed: WindowError: window [")[0] for text in texts]

        points, swept = reported(lambda: sweep_final_sp(1.0, 1.5, [0.0, 2.0], cfg))
        grid, contoured = reported(lambda: contour_grid(
            (1.5, 10.0), (0.0, 2.0), 2, 2, source="simulation", cfg=cfg))
        data, referenced = reported(lambda: reference_sweep_data(cfg=cfg, source="simulation"))
        assert cells(swept) == ["sweep cell (omegaf=1.5, eps=0", "sweep cell (omegaf=1.5, eps=2"]
        assert [pt.error for pt in points] == [text.split("failed: ")[1] for text in swept]
        assert all(math.isnan(pt.R_final) for pt in points)
        # one cell, one text, whichever front end ran it
        assert contoured[:2] == swept
        assert cells(contoured[2:]) == ["sweep cell (omegaf=10, eps=2"]
        assert np.isnan(grid.R).sum() == 3
        assert cells(referenced) == [f"sweep cell (omegaf={omegaf:g}, eps={eps:g}"
                                     for k in SWEEP_RATIOS for omegaf in (k, 1.0 / k)
                                     for eps in SWEEP_EPSILONS]
        assert referenced[0] == swept[0] and referenced[len(SWEEP_EPSILONS) - 1] == swept[1]
        assert data == []  # a failed cell is left out


class TestFitAnsatz:
    def test_ends_at_the_least_squares_optimum(self, design_sweep):
        # rounding-level changes of the data move an optimum by about as
        # much; a fit that stops where rounding decides its steps moves more
        base = fit_ansatz(design_sweep)
        rng = np.random.default_rng(0)
        for _ in range(10):
            noisy = [(o0, of, e, r * (1.0 + 1e-14 * rng.standard_normal()))
                     for o0, of, e, r in design_sweep]
            fit = fit_ansatz(noisy)
            assert abs(fit.c1 - base.c1) <= 1e-11
            assert abs(fit.c2 - base.c2) <= 1e-11

    def test_damped_loop_ends_where_it_has_converged(self, monkeypatch, capsys):
        # on the simulated lattice the cost moves at rounding level after 9
        # damped solves; the loop stops there, and the undamped polish ends
        # the fit at the constants that running on to 46 solves gives
        solve, calls = np.linalg.solve, []

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        data = reference_sweep_data()
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        fit_ansatz(data)
        monkeypatch.undo()
        assert len(calls) <= 12
        assert cli.main(["fit", "--source", "simulation"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in ("c1 = 2.67645676400e+00", "c2 = 6.47094874482e-01",
                     "residual_rms = 8.62059930957e-03"):
            assert line in lines

    def test_recovers_constants_from_formula_data(self):
        data = reference_sweep_data(source="formula")
        fit = fit_ansatz(data)
        assert fit.c1 == pytest.approx(2.0, abs=1e-6)
        assert fit.c2 == pytest.approx(1.0, abs=1e-6)
        assert fit.residual_rms < 1e-12
        assert fit.n_points == 80

    def test_recovers_other_constants(self):
        # (0.5, 6.0) lies far from the start (1, 0.5): the damped loop
        # crawls there first, and its arrival test must not stop it on the way
        for c1, c2, tol in ((1.7, 0.6, 1e-8), (0.5, 6.0, 1e-13)):
            data = []
            for omegaf in (2.0, 4.0, 0.5):
                for eps in (0.0, 0.3, 0.7, 1.4):
                    data.append((1.0, omegaf, eps, fitted_sp(1.0, omegaf, eps, c1=c1, c2=c2)))
            fit = fit_ansatz(data)
            assert fit.c1 == pytest.approx(c1, abs=tol)
            assert fit.c2 == pytest.approx(c2, abs=tol)

    def test_sign_convention_positive_c1(self):
        data = reference_sweep_data(source="formula")
        fit = fit_ansatz(data)
        assert fit.c1 > 0.0

    def test_all_zero_width_rejected(self):
        data = [(1.0, 3.0, 0.0, 0.5 * LN3), (1.0, 2.0, 0.0, 0.5 * math.log(2.0))]
        with pytest.raises(DegenerateDataError, match="epsilon = 0"):
            fit_ansatz(data)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_ansatz([(1.0, 3.0, 0.5, 0.2)])

    def test_non_finite_data_rejected(self):
        good = (1.0, 2.0, 0.5, 0.2)
        for bad in ((1.0, 3.0, 0.5, float("nan")), (1.0, 3.0, 0.5, float("inf"))):
            with pytest.raises(ValueError, match="not finite"):
                fit_ansatz([bad, good])

    def test_non_positive_frequency_rejected_without_warning(self):
        good = [(1.0, 3.0, 0.5, 0.2), (1.0, 2.0, 0.1, 0.3)]
        for bad in ((1.0, -2.0, 0.4, 0.1), (0.0, 2.0, 0.4, 0.1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="frequencies must be positive and finite"):
                    fit_ansatz([*good, bad])

    def test_single_ratio_warns(self):
        data = [(1.0, 3.0, e, fitted_sp(1.0, 3.0, e)) for e in (0.0, 0.2, 0.5, 1.0)]
        with pytest.warns(FitConditionWarning) as record:
            fit_ansatz(data)
        messages = [str(w.message) for w in record]
        assert any("single frequency ratio" in m for m in messages)
        # at one ratio the model depends on c1 (|rho_f| + c2) alone, so the
        # Jacobian columns are parallel wherever the fit stops
        assert any("rank deficient" in m for m in messages)

    def test_underflowing_model_fits_without_numpy_warnings(self):
        # the model value underflows at every point, so the normal matrix is
        # singular and the polish step overflows; the fit keeps its start
        data = [(1, 3, 1e3, 0.1), (1, 5, 2e3, 0.2), (1, 0.5, 1e3, 0.05)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_ansatz(data)
        assert (fit.c1, fit.c2) == (1.0, 0.5)
        assert [w.category for w in caught] == [FitConditionWarning]

    def test_noise_tolerance(self):
        rng = np.random.default_rng(7)
        data = []
        for omegaf in (1.5, 2.0, 3.0, 5.0):
            for eps in (0.1, 0.3, 0.6, 1.0, 1.5):
                val = fitted_sp(1.0, omegaf, eps) * (1.0 + 1e-4 * rng.standard_normal())
                data.append((1.0, omegaf, eps, val))
        fit = fit_ansatz(data)
        assert fit.c1 == pytest.approx(2.0, abs=5e-3)
        assert fit.c2 == pytest.approx(1.0, abs=5e-3)


class TestContourGrid:
    def test_formula_grid_values(self):
        g = contour_grid((1.5, 5.0), (0.0, 2.0), 8, 5, source="formula")
        assert g.R.shape == (8, 5)
        # spot check one cell against the scalar evaluation
        assert g.R[3, 2] == pytest.approx(
            fitted_sp(1.0, float(g.ratios[3]), float(g.omega0_eps[2])), abs=1e-15
        )
        # width axis decays for every ratio
        assert np.all(np.diff(g.R, axis=1) < 0.0)

    def test_below_unity_mode(self):
        g = contour_grid((0.2, 0.9), (0.1, 1.0), 4, 4, mode="below-unity")
        assert np.all(g.R > 0.0)

    def test_mode_range_consistency_enforced(self):
        with pytest.raises(ValueError):
            contour_grid((0.5, 2.0), (0.0, 1.0), 4, 4, mode="above-unity")
        with pytest.raises(ValueError):
            contour_grid((0.5, 2.0), (0.0, 1.0), 4, 4, mode="below-unity")
        with pytest.raises(ValueError):
            contour_grid((1.5, 5.0), (1.0, 0.0), 4, 4)
        with pytest.raises(ValueError):
            contour_grid((1.5, 5.0), (0.0, 1.0), 1, 4)
        with pytest.raises(ValueError):
            contour_grid((1.5, 5.0), (0.0, 1.0), 4, 4, mode="diagonal")
        with pytest.raises(ValueError):
            contour_grid((1.5, 5.0), (0.0, 1.0), 4, 4, source="guess")
        for source in ("formula", "simulation"):
            with pytest.raises(ValueError, match="finite"):
                contour_grid((1.5, math.inf), (0.0, 1.0), 3, 2, source=source)
            with pytest.raises(ValueError, match="finite"):
                contour_grid((1.5, 5.0), (0.0, math.inf), 2, 3, source=source)

    def test_validity_warning_outside_ratio_range(self):
        with pytest.warns(ValidityWarning) as record:
            contour_grid((2.0, 12.0), (0.0, 1.0), 3, 3, source="formula")
        assert record[0].filename == __file__  # names the caller's line

    def test_simulation_source_matches_direct_run(self):
        g = contour_grid(
            (2.9, 3.1), (0.45, 0.55), 3, 3, source="simulation", cfg=FAST
        )
        pts = sweep_final_sp(1.0, 3.0, [0.5], FAST)
        assert g.R[1, 1] == pytest.approx(pts[0].R_final, abs=1e-9)

    def test_simulation_grid_matches_sweep_and_reports_failures(self):
        g = contour_grid((1.5, 3.0), (0.0, 0.4), 2, 2, source="simulation", cfg=FAST)
        for i, k in enumerate(g.ratios):
            pts = sweep_final_sp(1.0, float(k), g.omega0_eps, FAST)
            np.testing.assert_array_equal(g.R[i], [p.R_final for p in pts])
        # t_end = 11 leaves no cell three post-transition periods to average
        short = FAST._replace(t_end=11.0)
        with pytest.warns(UserWarning, match="WindowError"):
            bad = contour_grid((1.5, 3.0), (0.0, 0.4), 2, 2, source="simulation", cfg=short)
        assert np.all(np.isnan(bad.R))
