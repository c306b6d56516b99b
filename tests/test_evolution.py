"""Unit tests for the propagation machinery and its convergence ladder."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from squeezesim import (
    SimulationConfig,
    StepSingularityError,
    WindowError,
    default_t_end,
    evolution,
    jump_profile,
    jump_sp_closed_form,
    post_transition_summary,
    propagate_converged,
    sampled_profile,
    step_coeffs,
    tanh_profile,
    transition_interval,
)

LN3 = math.log(3.0)


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig()
        assert cfg.n_slices == 4096
        assert cfg.record_stride == 1
        assert cfg.convergence_tol == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_slices=0)
        with pytest.raises(ValueError):
            SimulationConfig(record_stride=0)
        with pytest.raises(ValueError):
            SimulationConfig(n_slices=10, record_stride=3)  # stride must divide
        with pytest.raises(ValueError):
            SimulationConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(convergence_tol=float("nan"))
        # an infinite tolerance would declare convergence without evidence
        with pytest.raises(ValueError, match="must be > 0"):
            SimulationConfig(n_slices=64, convergence_tol=math.inf)
        with pytest.raises(ValueError):
            SimulationConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(n_max=2048, n_slices=4096)


class TestStepCoeffs:
    def test_frozen_value(self):
        a, b = step_coeffs(3.0, 1.0, 0.1)
        assert a.real == pytest.approx(-0.167989893289050154, abs=1e-15)
        assert a.imag == pytest.approx(-0.325839393542238329, abs=1e-15)
        assert b.real == pytest.approx(0.502074560640667409, abs=1e-15)
        assert b.imag == pytest.approx(-0.705123033954536953, abs=1e-15)

    def test_disk_automorphism_identity(self):
        for w in (0.3, 1.0, 2.0, 7.5):
            for tau in (1e-4, 0.05, 1.1):
                a, b = step_coeffs(w, 1.0, tau)
                assert abs(a) ** 2 + abs(b) == pytest.approx(1.0, abs=1e-13)

    def test_constant_frequency_step_is_rotation(self):
        a, b = step_coeffs(1.0, 1.0, 0.3)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert abs(b) == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            step_coeffs(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            step_coeffs(1.0, 1.0, 0.0)


class TestPropagate:
    def test_constant_profile_stays_vacuum(self):
        p = sampled_profile([(0.0, 1.0), (5.0, 1.0)])
        cfg = SimulationConfig(t_end=5.0, n_slices=512, n_max=512)
        traj = propagate_converged(p, cfg)
        assert np.max(traj.r) <= 1e-14
        assert np.max(traj.R) <= 1e-14

    def test_record_layout(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(t_end=14.0, n_slices=1024, record_stride=8, n_max=1024)
        traj = propagate_converged(p, cfg)
        # one level: the fixed grid, with no comparison to report
        assert traj.n_slices == 1024
        assert traj.converged is None
        assert traj.achieved_delta is None
        assert traj.delta_history == []
        assert len(traj) == 1024 // 8 + 1
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(14.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(traj.t), 14.0 / 128, rtol=1e-12)

    def test_first_record_is_vacuum(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(t_end=14.0, n_slices=256, n_max=256))
        assert traj.r[0] == 0.0
        assert traj.chi[0] == 0.0

    def test_rho_column_tracks_profile(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(t_end=14.0, n_slices=256, n_max=256))
        np.testing.assert_allclose(traj.rho, 0.5 * np.log(traj.omega), atol=1e-14)

    def test_unitarity_defect_small(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(t_end=14.0, n_slices=2048, n_max=2048))
        assert traj.unitarity_defect() <= 1e-12

    def test_sampled_grid_ends_on_last_sample(self):
        # 3000 * (7 / 3000) is 7.000000000000001, past the last sample
        p = sampled_profile([(0.0, 1.0), (7.0, 2.0)])
        traj = propagate_converged(p, SimulationConfig(n_slices=3000, n_max=3000))
        assert traj.t[-1] == 7.0
        assert traj.omega[-1] == 2.0

    def test_default_t_end_covers_three_periods(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        assert default_t_end(p) == pytest.approx(10.0 + 1.5 + 3.0 * math.pi / 3.0)
        # the transition end has one definition, frequency.transition_interval
        for q in (p, jump_profile(1.0, 0.2, 7.0)):
            assert default_t_end(q) == transition_interval(q)[1] + 3.0 * math.pi / q.omegaf
        ps = sampled_profile([(0.0, 1.0), (7.0, 2.0)])
        assert default_t_end(ps) == 7.0


class TestCF4:
    def test_fourth_order_on_default_ramp(self):
        # evolve's default ramp against a 2^16-slice run: the sup error of
        # r(t) falls 16x per doubling (2.8e-7, 1.7e-8, 1.1e-9); with the two
        # half-steps of a slice swapped it falls 4x (1.7e-3, 4.2e-4, 1.1e-4)
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)

        def fixed(n):
            return propagate_converged(p, SimulationConfig(n_slices=n, n_max=n)).r

        ref = fixed(1 << 16)
        errs = [np.max(np.abs(fixed(n) - ref[:: (1 << 16) // n])) for n in (256, 512, 1024)]
        assert errs[0] / errs[1] >= 12.0
        assert errs[1] / errs[2] >= 12.0

    def test_half_step_frequencies_are_gauss_node_combinations(self, monkeypatch):
        # one slice of a linear ramp: omega^2 at the two half-steps is
        # 2 (b1 w1^2 + b2 w2^2), then 2 (b2 w1^2 + b1 w2^2)
        calls = []
        step = evolution._step_arrays

        def spy(omega, omega0, tau):
            calls.append((np.array(omega), tau))
            return step(omega, omega0, tau)

        monkeypatch.setattr(evolution, "_step_arrays", spy)
        p = sampled_profile([(0.0, 1.0), (2.0, 3.0)])  # omega = 1 + t
        propagate_converged(p, SimulationConfig(n_slices=1, n_max=1))
        ((omega, tau),) = calls
        c, b = math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0
        w1, w2 = 2.0 - 2.0 * c, 2.0 + 2.0 * c
        assert omega.shape == (1, 2)
        assert tau == 1.0
        expected = [2 * (b * w1**2 + (0.5 - b) * w2**2), 2 * ((0.5 - b) * w1**2 + b * w2**2)]
        np.testing.assert_allclose(omega[0] ** 2, expected, rtol=1e-14)

    def test_unresolved_ramp_doubles_before_its_first_level(self):
        # omega 1 -> 5 over eps 1e-3: at 256 slices omega changes about 5x
        # between the nodes of the slice across t0 and a half-step omega^2
        # turns negative; the ladder doubles n before it runs a level, and
        # those doublings are not levels
        p = tanh_profile(1.0, 5.0, 10.0, 1e-3)
        traj = propagate_converged(p, SimulationConfig(n_slices=256))
        assert traj.converged is True
        assert np.all(np.isfinite(traj.R))
        first = traj.n_slices >> len(traj.delta_history)
        assert first > 256
        for n in (256, first // 2):
            with pytest.raises(StepSingularityError, match="too coarse"):
                propagate_converged(p, SimulationConfig(n_slices=n, n_max=n))


class TestRatioInversionDuality:
    # Rescaling time by k and reversing it maps the ramp 1 -> k of width eps
    # onto the ramp 1 -> 1/k of width k eps, and |beta| is invariant under
    # time reversal, so R(k, eps) = R(1/k, k eps) once omega = omega_f to
    # rounding (t >= t0 + 20 eps).  Both kernels run: a one-cell run steps
    # through the loop, and through rows once _ROW_CELLS is 1.  Each run
    # converges by 2048 slices; n_max keeps a broken step from climbing to
    # 2^24 before the test fails.
    @staticmethod
    def _run(k, eps):
        p = tanh_profile(1.0, k, 20.0 * eps, eps)
        cfg = SimulationConfig(t_end=40.0 * eps, n_slices=256, convergence_tol=1e-8, n_max=1 << 14)
        return propagate_converged(p, cfg)

    @pytest.mark.parametrize("kernel", ["loop", "rows"])
    @pytest.mark.parametrize("k, eps", [(2.0, 0.4), (3.0, 0.8), (1.5, 1.2), (5.0, 0.1)])
    def test_late_time_R_is_invariant(self, monkeypatch, kernel_calls, kernel, k, eps):
        if kernel == "rows":
            monkeypatch.setattr(evolution, "_ROW_CELLS", 1)
        # corrupting b -> -b in _step_arrays moves these differences to 2e-6 .. 6e-5
        traj, dual = self._run(k, eps), self._run(1.0 / k, k * eps)
        assert abs(traj.R[-1] - dual.R[-1]) <= 1e-8
        assert traj.converged and dual.converged
        assert {kind for kind, _ in kernel_calls} == {kernel}


class TestPropagateConverged:
    def test_ladder_reports_history(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(n_slices=4096, record_stride=4, convergence_tol=1e-4)
        traj = propagate_converged(p, cfg)
        assert traj.converged is True
        assert traj.achieved_delta < 1e-4
        assert traj.delta_history == sorted(traj.delta_history, reverse=True)
        assert traj.n_slices > 4096

    def test_records_align_across_doublings(self):
        # doubling slices with a fixed stride doubles the record count and
        # keeps the coarse instants as every second fine record
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        coarse = propagate_converged(
            p, SimulationConfig(t_end=14.0, n_slices=512, record_stride=4, n_max=512)
        )
        fine = propagate_converged(
            p, SimulationConfig(t_end=14.0, n_slices=1024, record_stride=4, n_max=1024)
        )
        np.testing.assert_allclose(fine.t[::2], coarse.t, atol=1e-12)

    def test_gives_up_at_cap(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(
            n_slices=256, record_stride=4, convergence_tol=1e-15, n_max=1024
        )
        traj = propagate_converged(p, cfg)
        assert traj.converged is False
        assert traj.n_slices == 1024

    def test_flip_hook_breaks_physics(self, monkeypatch):
        # a step with the sign of its phase coefficient flipped must
        # visibly damage the result
        p = jump_profile(1.0, 3.0, 10.0)
        cfg = SimulationConfig(n_slices=1 << 14, record_stride=16, n_max=1 << 14)
        clean = propagate_converged(p, cfg)
        step = evolution._step_arrays

        def flipped(*args):
            a, b = step(*args)
            return a, -b

        monkeypatch.setattr(evolution, "_step_arrays", flipped)
        broken = propagate_converged(p, cfg)
        assert np.max(np.abs(clean.r - broken.r)) > 0.1

    @pytest.mark.parametrize("n_slices", [4096, 5000])
    def test_jump_is_exact_at_every_level(self, n_slices):
        # neither grid puts a step boundary on t0; each step runs only past
        # t0, so the ladder stops at its second level on the exact answer
        p = jump_profile(1.0, 3.0, 10.0)
        traj = propagate_converged(p, SimulationConfig(n_slices=n_slices))
        assert traj.converged is True
        after = traj.t >= p.t0
        exact = jump_sp_closed_form(1.0, 3.0, traj.t[after] - p.t0)
        assert np.max(np.abs(traj.r[after] - exact)) <= 1e-9


class TestRecurrence:
    # 1536 steps hold whole records at strides 1, 3 and 64
    N = 1536

    def _records(self, p, stride, n=N):
        cfg = SimulationConfig(t_end=14.0, n_slices=n, record_stride=stride, n_max=n)
        cell = evolution._Cell(p, None, evolution._time_span(p, cfg))
        (run,) = evolution._propagate([cell], cfg, n)
        return run[1]

    @pytest.mark.parametrize(
        "p", [tanh_profile(1.0, 3.0, 10.0, 0.5), jump_profile(1.0, 3.0, 10.0)]
    )
    @pytest.mark.parametrize("stride", [1, 3, 64])
    def test_records_independent_of_chunking_and_stride(self, monkeypatch, p, stride):
        default = self._records(p, stride)
        for chunk in (1, 5, 64):
            monkeypatch.setattr(evolution, "_CHUNK", chunk)
            assert np.array_equal(self._records(p, stride), default)
        monkeypatch.undo()
        assert len(default) == self.N // stride + 1
        assert np.array_equal(default, self._records(p, 1)[::stride])

    @pytest.mark.parametrize("stride", [1, 3, 64])
    def test_rows_match_each_cells_loop(self, monkeypatch, kernel_calls, stride):
        # a ramp, a jump and a tabulated profile that starts at t = 1,
        # stepped side by side as rows: the record times are each cell's own
        # loop's, and chi differs only by the rounding of complex division
        profiles = [
            tanh_profile(1.0, 3.0, 10.0, 0.5),
            jump_profile(1.0, 3.0, 10.0),
            sampled_profile([(1.0, 1.0), (8.0, 2.0), (14.0, 0.5)]),
        ]
        cfg = SimulationConfig(t_end=14.0, n_slices=self.N, record_stride=stride, n_max=self.N)
        cells = [evolution._Cell(p, None, evolution._time_span(p, cfg)) for p in profiles]
        monkeypatch.setattr(evolution, "_ROW_CELLS", len(cells))
        rows = evolution._propagate(cells, cfg, self.N)
        for chunk in (1, 100):
            monkeypatch.setattr(evolution, "_ROW_CHUNK", chunk)
            for (t, chi), (t_c, chi_c) in zip(rows, evolution._propagate(cells, cfg, self.N)):
                assert np.array_equal(t, t_c) and np.array_equal(chi, chi_c)
        assert set(kernel_calls) == {("rows", len(cells))}
        kernel_calls.clear()
        for c, (t, chi) in zip(cells, rows):
            ((t_ref, chi_ref),) = evolution._propagate([c], cfg, self.N)
            assert np.array_equal(t, t_ref)
            assert np.max(np.abs(chi - chi_ref)) <= 1e-13
        assert set(kernel_calls) == {("loop", 1)}

    @pytest.mark.parametrize(
        "chunk, stride, first_bad, n",
        [
            (None, 1, 70_001, 1 << 17),
            (None, 8, 70_001, 1 << 17),
            (1000, 1, 1001, 4096),
            (1000, 8, 2000, 4096),
            (1000, 8, 2003, 4096),
        ],
    )
    def test_singular_step_names_first_nonfinite_record(
        self, monkeypatch, nan_steps_from, chunk, stride, first_bad, n
    ):
        if chunk is not None:
            monkeypatch.setattr(evolution, "_CHUNK", chunk)
        nan_steps_from(first_bad)
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(t_end=14.0, n_slices=n, record_stride=stride, n_max=n)
        with pytest.raises(StepSingularityError) as info:
            propagate_converged(p, cfg)
        # the record that closes the stride holding the first nan step
        assert info.value.step == -(-first_bad // stride) * stride


class TestPostTransitionSummary:
    def test_jump_summary_against_closed_form(self, reference_runs):
        summary = reference_runs["jump"].summary
        assert summary.r_max == pytest.approx(LN3, abs=1e-6)
        assert summary.r_min <= 2e-4
        assert summary.period == pytest.approx(math.pi / 3.0, rel=1e-6)
        assert summary.n_maxima == 3
        assert summary.R_final == pytest.approx(0.5 * LN3, abs=1e-9)
        assert summary.R_std <= 1e-9

    def test_window_too_short_raises(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(t_end=12.0, n_slices=1024, n_max=1024))
        with pytest.raises(WindowError):
            post_transition_summary(traj, p)

    def test_sampled_needs_explicit_window(self):
        p = sampled_profile([(0.0, 1.0), (20.0, 1.0)])
        traj = propagate_converged(p, SimulationConfig(n_slices=2048, n_max=2048))
        with pytest.raises(ValueError, match="window_start"):
            post_transition_summary(traj, p)
        summary = post_transition_summary(traj, p, window_start=5.0)
        assert summary.r_max <= 1e-12

    def test_window_means_opens_at_the_transition_end(self):
        # a sampled profile has no transition end, so its cell fails alone;
        # the ramp's cell records every slice whatever the stride
        sampled = sampled_profile([(0.0, 1.0), (20.0, 3.0)])
        ramp = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(n_slices=256, record_stride=8)
        bad, mean = evolution.window_means([sampled, ramp], cfg)
        assert isinstance(bad.error, ValueError) and math.isnan(bad.R_final)
        assert "undefined for sampled profiles" in str(bad.error)
        (alone,) = evolution.window_means([ramp], SimulationConfig(n_slices=256))
        assert mean.error is None and mean.converged is True
        assert mean == alone

    def test_short_window_stops_only_on_enough_records(self):
        # from the 256-slice seed the window after this jump holds 2, 3, 5
        # and 10 records: 2048 against 1024 is the first comparison whose
        # coarser level holds _MIN_WINDOW_RECORDS (with 1, 512 would stop)
        cfg = SimulationConfig(n_slices=256)
        (cell,) = evolution.window_means([jump_profile(1.0, 200.0)], cfg)
        assert cell.error is None
        assert (cell.n_slices, cell.converged) == (2048, True)

    def test_midpoint_is_half_sum_of_extrema(self, reference_runs):
        summary = reference_runs[0.5].summary
        assert summary.r_midpoint == pytest.approx(
            0.5 * (summary.r_max + summary.r_min), abs=1e-15
        )
        assert summary.amplitude == pytest.approx(
            summary.r_max - summary.r_min, abs=1e-15
        )


def test_readme_library_sketch_runs(capsys):
    # the README's documented API, run as written with warnings as errors
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(sketch, {})
    first = capsys.readouterr().out.splitlines()[0].split()
    assert first[:2] == ["True", "8192"]
    assert float(first[2]) <= 1e-14
