"""Unit tests for the propagation machinery and its convergence ladder."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from squeezesim import (
    CompositionError,
    SaturationError,
    SaturationWarning,
    SimulationConfig,
    StepSingularityError,
    WindowError,
    algebra,
    default_t_end,
    eval_omega,
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
        assert cfg.n_slices == 256
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

    @pytest.mark.parametrize("name", ["n_slices", "record_stride", "n_max"])
    def test_counts_must_be_integers(self, name):
        # a float count would fail only inside numpy, with a TypeError that
        # ends a whole sweep rather than failing its cells
        value = getattr(SimulationConfig(), name)
        for bad in (float(value), np.float64(value)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimulationConfig(**{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimulationConfig()._replace(**{name: bad})
        assert getattr(SimulationConfig(**{name: np.int64(value)}), name) == value


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


class TestSliceMap:
    # evolution._maps builds a slice's map x -> A + B x / (1 - C x) from its
    # two steps at once.  Draws: omega0 from 0.1 to 10, each step's ratio
    # omega/omega0 from 1e-3 to 1e3 and its phase omega tau up to 3 pi, a
    # fifth of them within about 1e-9 of pi/2, where tan is largest
    RNG_SEED, DRAWS = 26, 2000

    @classmethod
    def _draws(cls):
        rng = np.random.default_rng(cls.RNG_SEED)
        omega0 = 10.0 ** rng.uniform(-1.0, 1.0, cls.DRAWS)
        omega = omega0 * 10.0 ** rng.uniform(-3.0, 3.0, (2, cls.DRAWS))
        phase = rng.uniform(0.0, 3.0 * math.pi, cls.DRAWS)
        near = rng.random(cls.DRAWS) < 0.2
        phase[near] = 0.5 * math.pi * (1.0 + 1e-9 * rng.standard_normal(np.count_nonzero(near)))
        return omega, omega0, phase / omega.max(axis=0)

    def test_equals_its_two_steps_in_turn(self):
        # x -> f2(f1(x)) through the two steps' step_coeffs maps, at four
        # points of the disk.  That reference rounds each step's coefficients
        # and 1 - a2 y loses what a pole near the disk leaves of them, so
        # the tolerance scales with its amplification
        # kappa = 1 + |b2| (1 + |y|^2) / |1 - a2 y|^2 of that rounding
        # (up to 4e4 here; the largest error over kappa is 6e-16)
        omega, omega0, tau = self._draws()
        maps = evolution._maps(omega, omega0, np.array([tau, tau]))
        for i in range(self.DRAWS):
            a, b, c = (complex(x[i]) for x in maps)
            (a1, b1), (a2, b2) = (step_coeffs(float(w[i]), float(omega0[i]), float(tau[i])) for w in omega)
            for x in (0.0, 0.5, -0.3j, 0.6 + 0.2j):
                y = a1 + b1 * x / (1.0 - a1 * x)
                kappa = 1.0 + abs(b2) * (1.0 + abs(y) ** 2) / abs(1.0 - a2 * y) ** 2
                assert abs(a + b * x / (1.0 - c * x) - (a2 + b2 * y / (1.0 - a2 * y))) <= 1e-13 * kappa, i

    def test_is_a_disk_automorphism(self):
        omega, omega0, tau = self._draws()
        a, b, c = evolution._maps(omega, omega0, np.array([tau, tau]))
        assert np.max(np.abs(np.abs(a) - np.abs(c))) <= 1e-13
        assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) - 1.0)) <= 1e-13

    def test_one_step_is_step_coeffs(self):
        # a step of zero width, whatever its frequency, is the identity: the
        # map of one step has A == C, and its (A, B) are step_coeffs', bitwise
        omega, omega0, tau = self._draws()
        a, b, c = evolution._maps(omega, omega0, np.array([tau, np.zeros(self.DRAWS)]))
        assert _same_bits(a, c)
        for i in range(self.DRAWS):
            ref = step_coeffs(float(omega[0, i]), float(omega0[i]), float(tau[i]))
            assert _same_bits(np.array([a[i], b[i]]), np.array(ref)), i


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
        maps = evolution._maps

        def spy(omega, omega0, width, out=None):
            calls.append((np.array(omega), np.array(width)))
            return maps(omega, omega0, width, out)

        monkeypatch.setattr(evolution, "_maps", spy)
        p = sampled_profile([(0.0, 1.0), (2.0, 3.0)])  # omega = 1 + t
        propagate_converged(p, SimulationConfig(n_slices=1, n_max=1))
        ((omega, width),) = calls
        c, b = math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0
        w1, w2 = 2.0 - 2.0 * c, 2.0 + 2.0 * c
        assert omega.shape == (2, 1, 1)  # two half-steps, one slice, one cell
        assert width.shape == (1,)  # one tau/2 per cell, for both half-steps
        assert np.broadcast_to(width, omega.shape)[:, 0, 0].tolist() == [1.0, 1.0]
        expected = [2 * (b * w1**2 + (0.5 - b) * w2**2), 2 * ((0.5 - b) * w1**2 + b * w2**2)]
        np.testing.assert_allclose(omega[:, 0, 0] ** 2, expected, rtol=1e-14)

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


class TestCoarseSlices:
    # a ramp whose slices are wider than 4 eps does not step: each record
    # is its jump's map if the jump is within tol of the ramp at every time
    # (_jump_distance), and the level is too coarse for the ramp otherwise

    @pytest.mark.parametrize("omega0, omegaf", [(1.0, 3.0), (200.0, 1.0), (0.01, 2.0), (1.0, 40.0), (1.0, 1.1)])
    def test_jump_distance_bounds_the_ramp_at_every_time(self, omega0, omegaf):
        # the disc distance, in r's units, between a resolved narrow ramp
        # and its jump peaks at the first-order value max(|I0|, |I|)/(2
        # omega0): I0 = eps d (omega0 ln 2 + d (ln 2 - 1/2)/2), the integral
        # of omega^2 - omega0^2 up to t0, and I = -eps d^2/2, that of
        # omega^2 - omega_jump^2 over the ramp (d = omegaf - omega0).
        # _jump_distance bounds it, and by less than 3x
        eps = 1e-7
        p = tanh_profile(omega0, omegaf, 20.0 * eps, eps)
        traj = propagate_converged(p, SimulationConfig(t_end=40.0 * eps, n_slices=4096, n_max=8192))
        jump = evolution._sudden_chi(omegaf, omega0, traj.t - p.t0)
        dist = np.arctanh(np.abs((traj.chi - jump) / (1.0 - np.conj(jump) * traj.chi)))
        d = omegaf - omega0
        first = eps * d * (omega0 * math.log(2.0) + d * (math.log(2.0) - 0.5) / 2.0)
        assert dist.max() == pytest.approx(max(abs(first), eps * d * d / 2.0) / (2.0 * omega0), rel=1e-3)
        assert dist.max() <= evolution._jump_distance(p) < 3.0 * dist.max()

    def test_a_ramp_within_tol_of_its_jump_is_mapped_as_it(self, monkeypatch):
        # 256 slices over 14 are about 2000 eps wide; at ratio 3 the jump
        # is within 4 ln 2 eps of the ramp, so a ramp of 0.9 tol/(4 ln 2)
        # answers as its jump, bitwise and without a step, and one of 1.1
        # tol/(4 ln 2) fails from its first slice
        cfg = SimulationConfig(t_end=14.0, n_slices=256, n_max=256)
        unit = 4.0 * math.log(2.0)
        jump = propagate_converged(jump_profile(1.0, 3.0, 10.0), cfg)
        monkeypatch.setattr(evolution, "_slice_steps", None)  # no slice steps
        near = propagate_converged(tanh_profile(1.0, 3.0, 10.0, 0.9e-4 / unit), cfg)
        assert np.array_equal(near.chi, jump.chi) and np.array_equal(near.t, jump.t)
        with pytest.raises(StepSingularityError, match="^slice 1 is too coarse for the ramp$"):
            propagate_converged(tanh_profile(1.0, 3.0, 10.0, 1.1e-4 / unit), cfg)

    def test_transition_stays_at_t0_however_wide_the_slices(self):
        # at t_end 1e9 even 2^24 slices are 60 wide, so both CF4 nodes of
        # the first slice lay past t0 = 10 and every level put the switch
        # at t = 0, agreeing to rounding on an r out of phase by 3 t0
        cfg = SimulationConfig(t_end=1e9)
        tiny = propagate_converged(tanh_profile(1.0, 3.0, 10.0, 1e-320), cfg)
        jump = propagate_converged(jump_profile(1.0, 3.0, 10.0), cfg)
        assert np.array_equal(tiny.chi, jump.chi) and np.array_equal(tiny.t, jump.t)
        assert tiny.converged is True

    def test_mapped_ramp_is_within_its_bound_long_after(self):
        # ratio 1.1 at eps 1e-3 is 7.3e-5 from its jump.  Its reference is
        # the resolved ramp up to t0 + 30 eps, then one exact omega_f map to
        # t_end 1e4, where the ladder's slices are 1200 eps wide
        p = tanh_profile(1.0, 1.1, 10.0, 1e-3)
        t1, t_end = p.t0 + 30.0 * p.epsilon, 1e4
        chi1 = propagate_converged(p, SimulationConfig(t_end=t1)).chi[-1]
        a, b, c = evolution._maps(np.array([[p.omegaf], [p.omega0]]), p.omega0, np.array([[t_end - t1], [0.0]]))
        ref = complex(a[0] + b[0] * chi1 / (1.0 - c[0] * chi1))
        traj = propagate_converged(p, SimulationConfig(t_end=t_end))
        bound = evolution._jump_distance(p)
        assert bound < 1e-4 and traj.converged is True
        assert abs(traj.r[-1] - math.atanh(abs(ref))) <= bound


class TestRatioInversionDuality:
    # Rescaling time by k and reversing it maps the ramp 1 -> k of width eps
    # onto the ramp 1 -> 1/k of width k eps, and |beta| is invariant under
    # time reversal, so R(k, eps) = R(1/k, k eps) once omega = omega_f to
    # rounding (t >= t0 + 20 eps).  Both kernels run: a one-cell run steps
    # through the loop, and through rows once _ROW_CELLS is 1.  Each run
    # converges by 4096 slices, where its summary's extrema settle too;
    # n_max keeps a broken step from climbing to 2^24 before the test fails.
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
        # corrupting B -> -B in _maps moves these differences to 7e-7 .. 2e-5
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

    def test_flipped_slice_map_breaks_physics(self, monkeypatch):
        # a slice map with the sign of its coefficient B flipped must
        # visibly damage the result.  A ramp: a jump's records are the A of
        # one map from chi = 0 and never read B
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(n_slices=1 << 14, record_stride=16, n_max=1 << 14)
        clean = propagate_converged(p, cfg)
        maps = evolution._maps

        def flipped(*args):
            a, b, c = maps(*args)
            return a, -b, c

        monkeypatch.setattr(evolution, "_maps", flipped)
        broken = propagate_converged(p, cfg)
        assert np.max(np.abs(clean.r - broken.r)) > 0.1

    def test_each_level_clamps_chi_once(self, monkeypatch):
        # the kept level's r is its reading's, so |chi| is clamped (and a
        # magnitude at 1 warns) once per level, not again by _finalize
        calls, clamp = [], evolution._clamped_magnitude

        def spy(mag, what):
            calls.append(what)
            return clamp(mag, what)

        monkeypatch.setattr(algebra, "_clamped_magnitude", spy)
        monkeypatch.setattr(evolution, "_clamped_magnitude", spy)
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(n_slices=256, n_max=512))
        assert traj.n_slices == 512 and len(traj.delta_history) == 1
        assert calls.count("squeeze") == 2

    # verify's jump grid, and the default ladder, which stops at 512 slices
    JUMP_GRIDS = {"verify": SimulationConfig(n_slices=1 << 16, record_stride=16, n_max=1 << 16),
                  "default": SimulationConfig()}

    @pytest.mark.parametrize("grid", JUMP_GRIDS)
    @pytest.mark.parametrize("ratio", [1.0 / 200.0, 0.2, 3.0, 40.0, 200.0])
    def test_jump_records_are_the_closed_form(self, grid, ratio):
        # a jump is not stepped: each record is one exact omega_f map of
        # width t - t0 from the vacuum, so r matches the sudden closed form
        # (arcsinh, no code shared with the maps) at every record to
        # rounding, and is exactly 0 up to t0.  Stepped slice by slice, the
        # 1/200 jump was 4.3e-8 off
        p = jump_profile(1.0, ratio, 10.0)
        traj = propagate_converged(p, self.JUMP_GRIDS[grid])
        after = traj.t > p.t0
        assert np.all(traj.chi[~after] == 0.0) and np.count_nonzero(after) >= 3
        exact = jump_sp_closed_form(1.0, ratio, traj.t[after] - p.t0)
        assert np.max(np.abs(traj.r[after] - exact)) <= 1e-11
        if grid == "default":
            assert (traj.n_slices, traj.delta_history, traj.converged) == (512, [0.0], True)

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


class TestLadderDeltas:
    # The ladder's first delta, recomputed from fixed-grid trajectories at n
    # and 2 n whose records are matched by time: bit for bit what the ladder
    # records.  In both cases a reported scalar, not the sup term, decides
    # the delta, so a ladder that dropped it would record another number.
    N = 256

    @staticmethod
    def _fixed(p, n):
        return propagate_converged(p, SimulationConfig(n_slices=n, n_max=n))

    def test_r_and_final_R(self):
        # a run that ends inside a wide ramp reads its last R in a basis that
        # still turns, so R there moves between levels more than r does
        p = tanh_profile(1.0, 40.0, 10.0, 2.0)
        cfg = SimulationConfig(t_end=12.0, n_slices=self.N, n_max=self.N)
        coarse = propagate_converged(p, cfg)
        fine = propagate_converged(p, cfg._replace(n_slices=2 * self.N, n_max=2 * self.N))
        assert np.array_equal(fine.t[::2], coarse.t)
        sup = float(np.max(np.abs(fine.r[::2] - coarse.r)))
        final = abs(float(fine.R[-1] - coarse.R[-1]))
        assert final > sup
        ladder = propagate_converged(p, cfg._replace(n_max=2 * self.N))
        assert ladder.delta_history[0] == max(sup, final)

    def test_window_R_and_its_mean(self):
        p = tanh_profile(1.0, 5.0, 10.0, 0.1)
        w = transition_interval(p)[1]
        coarse, fine = self._fixed(p, self.N), self._fixed(p, 2 * self.N)
        after = coarse.t > w
        assert np.array_equal(fine.t[::2], coarse.t) and np.count_nonzero(after) >= 4
        sup = float(np.max(np.abs(fine.R[::2][after] - coarse.R[after])))
        mean = abs(float(np.mean(fine.R[fine.t > w])) - float(np.mean(coarse.R[after])))
        assert mean > sup
        (cell,) = evolution.window_means([p], SimulationConfig(n_slices=self.N, n_max=2 * self.N))
        assert cell.n_slices == 2 * self.N
        assert cell.achieved_delta == max(sup, mean)


# One window_means level of every kind of cell: ramps, jumps, a jump of
# ratio 1e9 whose |alpha| passes 1 beyond the clamping window, a jump from
# omega0 = 1e-100 whose R saturates, and a late jump to 100 whose window
# holds 2 records at the seed, fewer than _MIN_WINDOW_RECORDS (n_max keeps
# a cell that failed to fail from climbing far)
LEVEL_CFG = SimulationConfig(t_end=16.0, n_max=1 << 12)
LEVEL = (
    [tanh_profile(1.0, omegaf, 10.0, eps) for omegaf in (2.0, 3.0, 5.0, 8.0) for eps in (0.1, 0.2, 0.4)]
    + [jump_profile(1.0, omegaf) for omegaf in (2.0, 3.0, 5.0)]
    + [jump_profile(1.0, 1e9), jump_profile(1e-100, 1.0, 5.0), jump_profile(1.0, 100.0, 15.9)]
)


def _window_r(c, t_rec, chi_rec):
    """One cell's window reading, written out: R after its start and the mean."""
    after = t_rec > c.start
    chi = chi_rec[after]
    evolution._clamped_magnitude(np.abs(chi), "squeeze")
    omega = eval_omega(c.p, t_rec[after])
    t = (omega - c.p.omega0) / (omega + c.p.omega0)
    den = 1.0 + t * chi
    if (np.abs(den) < 1e-150).any():
        raise CompositionError("singular denominator in squeeze composition")
    big_r = np.arctanh(evolution._clamped_magnitude(np.abs((chi + t) / den), "instantaneous squeeze"))
    if (big_r >= np.arctanh(1.0 - 1e-15)).any():
        raise SaturationError(
            f"instantaneous squeeze R = {big_r.max():.6g} after the transition is beyond double precision"
        )
    return big_r, float(np.mean(big_r)) if len(big_r) >= 4 else None


def _read_each(cells, runs):
    """A level read cell by cell through _window_r."""
    out = []
    for c, run in zip(cells, runs):
        try:
            out.append(_window_r(c, *run))
        except Exception as exc:
            out.append(exc)
    return out


def _level_means(profiles):
    """window_means of profiles under LEVEL_CFG and its warnings as (text, category)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        means = evolution.window_means(profiles, LEVEL_CFG)
    return means, [(str(w.message), w.category) for w in caught]


def _spy_levels(monkeypatch):
    """Each level _read_windows reads, as (its cell count, its reading, _read_each's)."""
    levels, read = [], evolution._read_windows

    def spy(cells, runs):
        got = read(cells, runs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            levels.append((len(cells), got, _read_each(cells, runs)))
        return got

    monkeypatch.setattr(evolution, "_read_windows", spy)
    return levels


def _count_short_windows(levels):
    """Check that every cell of the levels reads bitwise as _read_each reads
    it; return how many had too few window records for a mean."""
    few = 0
    for _, got, want in levels:
        for g, w in zip(got, want, strict=True):
            if isinstance(w, Exception):
                assert (type(g), str(g)) == (type(w), str(w))
                continue
            assert np.array_equal(g[0], w[0]) and g[1] == w[1]
            few += w[1] is None
    return few


class TestLevelRead:
    def test_each_cell_reads_as_alone(self, monkeypatch):
        # every level's cells, read in one pass, give bitwise what each
        # cell's own reading gives on the same records
        levels = _spy_levels(monkeypatch)
        _level_means(LEVEL)
        assert levels[0][0] == len(LEVEL) >= evolution._ROW_CELLS
        assert _count_short_windows(levels) == 1  # the late jump at the seed

    def test_a_singular_cell_reads_its_block_alone(self, monkeypatch):
        # a jump from omega0 = 1e-200 makes _move raise CompositionError on
        # the seed level's one block, so every cell of it is read alone:
        # bitwise as _read_each reads it, and warning and failing as alone
        profiles = [
            tanh_profile(1.0, 3.0, 10.0, 0.2), jump_profile(1.0, 2.0), jump_profile(1e-200, 1.0, 5.0),
            tanh_profile(1.0, 5.0, 10.0, 0.1), jump_profile(1.0, 5.0),
        ]
        alone = [_level_means([p]) for p in profiles]
        levels, blocks, moves = _spy_levels(monkeypatch), [], []
        block, move = evolution._window_block, evolution._move

        def block_spy(cells, windows):
            got = block(cells, windows)
            blocks.append((len(cells), got is None))
            return got

        def move_spy(chi, t):
            try:
                return move(chi, t)
            except CompositionError:
                moves.append(len(chi))
                raise

        monkeypatch.setattr(evolution, "_window_block", block_spy)
        monkeypatch.setattr(evolution, "_move", move_spy)
        means, warned = _level_means(profiles)
        assert blocks[0] == (len(profiles), True) and len(levels) > 1
        # the block's _move raised, then the jump's own reading
        assert len(moves) == 2 and moves[0] > moves[1]
        assert _count_short_windows(levels) == 0
        assert warned == [w for _, ws in alone for w in ws] != []
        for got, ((want,), _) in zip(means, alone, strict=True):
            assert (type(got.error), str(got.error)) == (type(want.error), str(want.error))
            assert np.array_equal(got.R_final, want.R_final, equal_nan=True)
            assert (got.n_slices, got.converged, got.achieved_delta) == (
                want.n_slices, want.converged, want.achieved_delta)
        assert isinstance(means[2].error, CompositionError)
        assert [m.error for i, m in enumerate(means) if i != 2] == [None] * 4

    def test_ladder_matches_the_per_cell_reading(self, monkeypatch):
        batched, warned = _level_means(LEVEL)
        monkeypatch.setattr(evolution, "_read_windows", _read_each)
        each, each_warned = _level_means(LEVEL)
        assert warned == each_warned
        for got, want in zip(batched, each, strict=True):
            assert np.array_equal(got.R_final, want.R_final, equal_nan=True)
            assert (got.n_slices, got.converged, got.achieved_delta) == (
                want.n_slices, want.converged, want.achieved_delta)
            assert (type(got.error), str(got.error)) == (type(want.error), str(want.error))
            # Python scalars: _sweep_points tests `converged is False`
            assert type(got.R_final) is float
            assert got.achieved_delta is None or type(got.achieved_delta) is float
            assert got.converged is None or type(got.converged) is bool

    def test_saturated_cells_fail_as_alone(self):
        means, warned = _level_means(LEVEL)
        alone_warned = []
        for i in (15, 16):
            (alone,), w = _level_means([LEVEL[i]])
            alone_warned += w
            assert isinstance(means[i].error, SaturationError)
            assert (means[i].n_slices, str(means[i].error)) == (alone.n_slices, str(alone.error))
        assert warned == alone_warned
        assert [text for text, _ in warned] == [
            "squeeze magnitude reached 1; clamped 73 value(s)",
            "squeeze magnitude reached 1; clamped 176 value(s)",
            "instantaneous squeeze magnitude reached 1; clamped 157 value(s)",
        ]
        assert str(means[15].error).endswith("exceeds 1 beyond the clamping window")
        assert str(means[16].error) == (
            "instantaneous squeeze R = 18.715 after the transition is beyond double precision"
        )


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
            monkeypatch.setattr(evolution, "_BLOCK", chunk)
            assert np.array_equal(self._records(p, stride), default)
        monkeypatch.undo()
        assert len(default) == self.N // stride + 1
        assert np.array_equal(default, self._records(p, 1)[::stride])

    @pytest.mark.parametrize("stride", [1, 3, 64])
    def test_rows_match_each_cells_loop(self, monkeypatch, kernel_calls, stride):
        # a ramp, a tabulated profile that starts at t = 1 and a jump, in
        # _KINDS order: the two stepped cells step side by side as rows
        # (the jump does not step, and the kernel choice does not count
        # it), the record times are each cell's own loop's, and chi differs
        # only by the rounding of complex division; the jump's is bitwise
        # its own
        profiles = [
            tanh_profile(1.0, 3.0, 10.0, 0.5),
            sampled_profile([(1.0, 1.0), (8.0, 2.0), (14.0, 0.5)]),
            jump_profile(1.0, 3.0, 10.0),
        ]
        cfg = SimulationConfig(t_end=14.0, n_slices=self.N, record_stride=stride, n_max=self.N)
        cells = [evolution._Cell(p, None, evolution._time_span(p, cfg)) for p in profiles]
        monkeypatch.setattr(evolution, "_ROW_CELLS", 2)
        rows = evolution._propagate(cells, cfg, self.N)
        for chunk in (1, 100):
            monkeypatch.setattr(evolution, "_BLOCK", chunk)
            for (t, chi), (t_c, chi_c) in zip(rows, evolution._propagate(cells, cfg, self.N)):
                assert np.array_equal(t, t_c) and np.array_equal(chi, chi_c)
        assert set(kernel_calls) == {("rows", 2)}
        kernel_calls.clear()
        for c, (t, chi) in zip(cells, rows):
            ((t_ref, chi_ref),) = evolution._propagate([c], cfg, self.N)
            assert np.array_equal(t, t_ref)
            assert np.max(np.abs(chi - chi_ref)) <= (0.0 if c.p.kind == "jump" else 1e-13)
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
            monkeypatch.setattr(evolution, "_BLOCK", chunk)
        nan_steps_from(first_bad)
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(t_end=14.0, n_slices=n, record_stride=stride, n_max=n)
        with pytest.raises(StepSingularityError) as info:
            propagate_converged(p, cfg)
        # the record that closes the stride holding the first nan step
        assert info.value.step == -(-first_bad // stride) * stride


def _same_bits(x, y) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


# the CF4 nodes and weights and the slice map, written out apart from
# evolution's own: what each cell computed alone before the group pass
_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_B1, _B2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0


def _own_map(omega, omega0, width):
    """(A, B, C) of the slices whose two steps have the frequencies omega[0],
    omega[1] and widths width[0], width[1]: u = 1 - iP, v = -iQ per step
    over cos(phase), multiplied second by first, scaled, with |u|^2 taken
    as D + |v|^2 and B as D/|u|^2 times u^2/|u|^2."""
    t = np.tan(omega * width)
    w = omega / omega0
    inv = 1.0 / w
    e12, e21 = w[0] * inv[1], w[1] * inv[0]
    p = 0.5 * (w + inv) * t
    q = 0.5 * (w - inv) * t
    tt = 0.5 * (t[0] * t[1])
    ur = 1.0 - (e12 + e21) * tt
    vr = (e21 - e12) * tt
    t1, t2 = t[0] ** 2, t[1] ** 2
    d = t1 * t2 + t1 + t2  # D - 1
    pu, qv = p[0] + p[1], q[0] + q[1]
    r = 1.0 / (np.abs(ur) + np.abs(pu))
    ur, pu, vr, qv = ur * r, pu * r, vr * r, qv * r
    m = d * r**2 + r**2
    n = vr**2 + qv**2 + m
    qh = 1.0 / n
    m = m / n
    a, b, c = np.empty((3, *ur.shape), dtype=complex)
    a.real, a.imag = (vr * ur - qv * pu) * qh, -((vr * pu + qv * ur) * qh)
    c.real, c.imag = -((vr * ur + qv * pu) * qh), (vr * pu - qv * ur) * qh
    b.real, b.imag = (1.0 - pu**2 * qh * 2.0) * m, ur * pu * qh * m * -2.0
    return a, b, c


def _own_steps(p, t_start, tau, first, m):
    """One stepped cell's (A, B, C) of slices first+1 .. first+m, one per
    slice, or the number of its first slice whose half-step omega^2 is not
    positive."""
    k = np.arange(first, first + m, dtype=float)
    nodes = (t_start + (k[:, None] + _NODES) * tau).ravel()
    if p.kind == "tanh":
        mid, amp = 0.5 * (p.omegaf + p.omega0), 0.5 * (p.omegaf - p.omega0)
        omega = mid + amp * np.tanh((nodes - p.t0) / p.epsilon)
    else:
        times, omegas = np.array(p.samples).T
        omega = np.interp(nodes, times, omegas)
    w_sq = omega.reshape(m, 2) ** 2
    half = 2.0 * (_B1 * w_sq + _B2 * w_sq[:, ::-1])
    bad = np.flatnonzero(~np.all(half > 0.0, axis=1))
    if bad.size:
        return first + int(bad[0]) + 1
    return _own_map(np.sqrt(half).T, p.omega0, np.full((2, m), 0.5 * tau))


def _own_jump(p, t):
    """A jump's chi at record times t: 0 up to t0, then the A of one exact
    omega_f step of width t - t0 followed by one of zero width."""
    width = t - p.t0
    after = width > 0.0
    chi = np.zeros(len(t), dtype=complex)
    w = width[after]
    omega = np.array([np.full(len(w), p.omegaf), np.full(len(w), p.omega0)])
    chi[after] = _own_map(omega, p.omega0, np.array([w, np.zeros(len(w))]))[0]
    return chi


class TestGroupSteps:
    # _slice_steps yields each chunk's slice maps for all stepped cells of a
    # group in one pass; every cell's are bitwise its own arithmetic's.  A
    # jump never reaches it: its records are bitwise one exact map each
    RAMPS = [tanh_profile(1.0, 3.0, 10.0, 0.5), tanh_profile(1.0, 0.2, 10.0, 0.1),
             tanh_profile(1.0, 5.0, 10.0, 1.6)]
    JUMPS = [jump_profile(1.0, 3.0, 10.0), jump_profile(1.0, 0.5, 10.0)]
    SAMPLED = [sampled_profile([(1.0, 1.0), (8.0, 2.0), (14.0, 0.5)])]
    GROUPS = {
        "tanh": RAMPS,
        "jump": JUMPS,
        "sampled": SAMPLED,
        "mixed": [*RAMPS, *SAMPLED, *JUMPS],  # _KINDS order, as _ladder hands groups over
    }
    N = 512

    def _chunks(self, monkeypatch, profiles, stride):
        """Each cell's runs through _propagate with chunks of 100 slices, and
        per chunk (first, m, cells in column order, (A, B, C))."""
        cfg = SimulationConfig(t_end=14.0, n_slices=self.N, record_stride=stride, n_max=self.N)
        cells = [evolution._Cell(p, None, evolution._time_span(p, cfg)) for p in profiles]
        monkeypatch.setattr(evolution, "_BLOCK", 100 * sum(p.kind != "jump" for p in profiles))
        seen = []
        steps = evolution._slice_steps

        def spy(cells, n, chunk, errors):
            for first, m, maps in steps(cells, n, chunk, errors):
                seen.append((first, m, list(cells), [x.copy() for x in maps]))
                yield first, m, maps

        monkeypatch.setattr(evolution, "_slice_steps", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            runs = evolution._propagate(cells, cfg, self.N)
        return cells, runs, seen

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("kinds", GROUPS)
    def test_matches_each_cells_own_arithmetic(self, monkeypatch, kinds, stride):
        cells, runs, seen = self._chunks(monkeypatch, self.GROUPS[kinds], stride)
        stepped = [c for c in cells if c.p.kind != "jump"]
        chunks = [(j, 100) for j in range(0, 500, 100)] + [(500, 12)]
        assert [(first, m) for first, m, *_ in seen] == (chunks if stepped else [])
        for first, m, group, maps in seen:
            assert list(map(id, group)) == list(map(id, stepped))
            for i, c in enumerate(group):
                t_start, t_end = c.span
                own = _own_steps(c.p, t_start, (t_end - t_start) / self.N, first, m)
                for x, own_x in zip(maps, own):
                    assert _same_bits(x[:, i], own_x), (kinds, i)
        for c, (t, chi) in zip(cells, runs, strict=True):
            if c.p.kind == "jump":
                assert _same_bits(chi, _own_jump(c.p, t)), kinds

    def test_never_sees_a_jump(self, monkeypatch):
        # on a level of the default lattice, which interleaves ten jumps
        # with its ramps, no chunk's maps hold a jump column, and a group of
        # jumps alone has _slice_steps yield no chunk at all
        seen, steps = [], evolution._slice_steps

        def spy(cells, n, chunk, errors):
            for first, m, maps in steps(cells, n, chunk, errors):
                seen.append([c.p.kind for c in cells])
                assert all(x.shape[-1] == len(cells) == len(errors) for x in maps)
                yield first, m, maps

        monkeypatch.setattr(evolution, "_slice_steps", spy)
        lattice = [tanh_profile(1.0, omegaf, epsilon=eps)
                   for omegaf in (2.0, 0.5, 10.0) for eps in (0.0, 0.4, 1.6)]
        assert all(m.error is None for m in evolution.window_means(lattice, SimulationConfig()))
        assert seen[0] == ["tanh"] * 6 and all(set(kinds) == {"tanh"} for kinds in seen)
        seen.clear()
        jumps = [p for p in lattice if p.kind == "jump"]
        assert all(m.error is None for m in evolution.window_means(jumps, SimulationConfig()))
        assert seen == []

    def test_unresolved_cell_fails_alone_and_quietly(self, monkeypatch):
        # omega 1 -> 10 over eps 0.01 is too steep for 512 slices, which are
        # still narrower than 4 eps: that cell fails at the slice its own
        # arithmetic names, without a warning from the root of its negative
        # half-step omega^2, and steps through the identity
        steep = tanh_profile(1.0, 10.0, 10.0, 0.01)
        profiles = [self.RAMPS[0], steep, self.RAMPS[1], self.JUMPS[0]]
        cells, runs, seen = self._chunks(monkeypatch, profiles, 1)
        t_start, t_end = cells[1].span
        step = _own_steps(steep, t_start, (t_end - t_start) / self.N, 0, self.N)
        assert 100 < step <= 400  # past the first chunk
        assert isinstance(runs[1], evolution._UnresolvedSlice)
        assert (runs[1].step, str(runs[1])) == (step, f"slice {step} is too coarse for the ramp")
        for first, m, group, (a, b, c) in seen:
            i = group.index(cells[1])
            if first + m >= step:
                assert np.all(a[:, i] == 0.0) and np.all(b[:, i] == 1.0) and np.all(c[:, i] == 0.0)
        for c, run in zip(cells, runs):
            if c is not cells[1]:
                ((t, chi),) = evolution._propagate([c], SimulationConfig(
                    t_end=14.0, n_slices=self.N, n_max=self.N), self.N)
                assert np.array_equal(run[0], t) and np.array_equal(run[1], chi)


class TestPostTransitionSummary:
    def test_jump_summary_against_closed_form(self, reference_runs):
        summary = reference_runs["jump"].summary
        assert summary.r_max == pytest.approx(LN3, abs=1e-6)
        assert summary.r_min <= 2e-4
        assert summary.period == pytest.approx(math.pi / 3.0, rel=1e-6)
        assert summary.n_maxima == 3
        assert summary.R_final == pytest.approx(0.5 * LN3, abs=1e-9)
        assert summary.R_std <= 1e-9

    @pytest.mark.parametrize(
        "omegaf, eps, most_slices",
        [(3.0, 0.5, 1024), (5.0, 0.1, 1024), (0.2, 0.1, 1024), (40.0, 0.05, 8192),
         (50.0, 0.0, 2048), (100.0, 0.0, 4096)],
    )
    def test_defaults_match_a_fine_grid(self, omegaf, eps, most_slices):
        # from the default seed the ladder climbs until r(t) and the final R
        # settle: the extrema, the period and the window mean R_final hold
        # to the ladder tolerance against a fixed 2^16-slice run; most_slices
        # is a ceiling (test_stop_levels pins where each run stops)
        p = tanh_profile(1.0, omegaf, 10.0, eps)
        cfg = SimulationConfig()
        traj = propagate_converged(p, cfg)
        assert traj.converged is True and traj.n_slices <= most_slices
        fine = propagate_converged(p, SimulationConfig(n_slices=1 << 16, n_max=1 << 16))
        got, ref = post_transition_summary(traj), post_transition_summary(fine)
        for key in ("r_max", "r_min", "amplitude", "period", "R_final"):
            assert abs(getattr(got, key) - getattr(ref, key)) <= cfg.convergence_tol, key

    @pytest.mark.parametrize(
        "omegaf, eps, tol, n_slices",
        [(40.0, 0.05, 1e-4, 2048), (40.0, 0.05, 1e-6, 8192), (50.0, 0.0, 1e-4, 512),
         (100.0, 0.0, 1e-4, 512), (200.0, 0.0, 1e-4, 512), (3.0, 0.5, 1e-4, 512),
         (5.0, 0.1, 1e-4, 512), (0.2, 2.0, 1e-4, 512), (0.2, 0.1, 1e-4, 1024)],
    )
    def test_stop_levels(self, omegaf, eps, tol, n_slices):
        # the ladder compares r(t) and the final R alone: a jump, exact at
        # every n, stops at its second level whatever the ratio
        traj = propagate_converged(tanh_profile(1.0, omegaf, 10.0, eps), SimulationConfig(convergence_tol=tol))
        assert (traj.converged, traj.n_slices) == (True, n_slices)

    def test_sparse_records_give_the_dense_summary(self):
        # 33 records over 14.6, fewer than two per period pi/3: the summary
        # reads the oscillation from the last record, bitwise that of every
        # slice, and its window mean and spread hold to the ladder tolerance
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        cfg = SimulationConfig(n_slices=256, record_stride=8, n_max=256)
        runs = [propagate_converged(p, cfg._replace(record_stride=k)) for k in (8, 1)]
        sparse, dense = map(post_transition_summary, runs)
        in_window = [int(np.count_nonzero(run.t > sparse.window_start)) for run in runs]
        assert in_window == [7, 55]
        for key in ("window_start", "window_end", "r_min", "r_max", "r_midpoint", "amplitude",
                    "period", "n_maxima"):
            assert getattr(sparse, key) == getattr(dense, key), key
        for key in ("R_final", "R_std"):
            assert abs(getattr(sparse, key) - getattr(dense, key)) <= cfg.convergence_tol, key

    def test_saturated_final_R_raises(self):
        # the jump from omega0 = 1e-100 squeezes past double precision: R at
        # the last record is clamped, so the run fails before any summary
        # could read a swing from it
        with pytest.warns(SaturationWarning, match="magnitude reached 1"):
            with pytest.raises(SaturationError, match="R = 17.6164 at t_end is beyond double precision"):
                propagate_converged(jump_profile(1e-100, 1.0), SimulationConfig(n_slices=512, n_max=512))

    def test_window_too_short_raises(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        traj = propagate_converged(p, SimulationConfig(t_end=12.0, n_slices=1024, n_max=1024))
        with pytest.raises(WindowError):
            post_transition_summary(traj)

    def test_sampled_has_no_window(self):
        # a tabulated profile has no transition end, so its trajectory has no
        # summary, as its window_means cell has no window mean
        p = sampled_profile([(0.0, 1.0), (20.0, 1.0)])
        traj = propagate_converged(p, SimulationConfig(n_slices=2048, n_max=2048))
        with pytest.raises(ValueError, match="undefined for sampled profiles"):
            post_transition_summary(traj)

    def test_sampled_run_past_its_table_fails_before_stepping(self, monkeypatch):
        # t_end beyond the last sample is rejected with the span, before any
        # slice steps, by a single run and by a sweep cell alike
        def no_stepping(*args):
            raise AssertionError("stepped a run that leaves its table")

        monkeypatch.setattr(evolution, "_propagate", no_stepping)
        p = sampled_profile([(0.0, 1.0), (3.0, 1.0), (4.0, 2.0), (7.0, 2.0)])
        cfg = SimulationConfig(t_end=20.0)
        message = "time outside sampled range [0.0, 7.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate_converged(p, cfg)
        (cell,) = evolution.window_means([p], cfg)
        assert isinstance(cell.error, ValueError) and str(cell.error) == message

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

    def test_short_window_at_n_max_fails_the_cell(self):
        # on one fixed grid of 256 slices the window after this jump holds
        # fewer than _MIN_WINDOW_RECORDS records: the cell has no mean to
        # report and fails alone, without a comparison
        cfg = SimulationConfig(n_slices=256, n_max=256)
        (cell,) = evolution.window_means([jump_profile(1.0, 100.0)], cfg)
        assert (type(cell.error), str(cell.error)) == (WindowError, "too few records after the transition")
        assert math.isnan(cell.R_final)
        assert (cell.n_slices, cell.converged, cell.achieved_delta) == (cfg.n_max, None, None)

    def test_midpoint_is_half_sum_of_extrema(self, reference_runs):
        summary = reference_runs[0.5].summary
        assert summary.r_midpoint == pytest.approx(
            0.5 * (summary.r_max + summary.r_min), abs=1e-15
        )
        assert summary.amplitude == pytest.approx(
            summary.r_max - summary.r_min, abs=1e-15
        )


def _vertex(r, i):
    """r at the vertex of the parabola through record i and its two neighbours."""
    lo, mid, hi = r[i - 1], r[i], r[i + 1]
    return mid + (lo - hi) ** 2 / (8.0 * (2.0 * mid - lo - hi))


@pytest.fixture(
    scope="module",
    params=[(3.0, 0.5), (0.2, 2.0), (5.0, 0.1), (40.0, 0.05), (3.0, 0.0)],
    ids=["3/0.5", "0.2/2", "5/0.1", "40/0.05", "jump"],
)
def fine_run(request):
    """A fixed 2^16-slice run whose window spans 3.25 periods, and its
    summary: the quarter period makes the number of peaks in the window
    depend on where they fall."""
    omegaf, eps = request.param
    p = tanh_profile(1.0, omegaf, 10.0, eps)
    cfg = SimulationConfig(t_end=default_t_end(p) + 0.25 * math.pi / omegaf, n_slices=1 << 16, n_max=1 << 16)
    traj = propagate_converged(p, cfg)
    return traj, post_transition_summary(traj)


class TestSummaryIdentity:
    # the summary reads r's swing from R and Phi at the last record; the
    # stepped records must show the same swing

    def test_last_period_extrema(self, fine_run):
        # the extreme record of the last period, refined to the vertex of
        # the parabola through it and its neighbours: the largest record of
        # 40/0.05 is 2.8e-6 below its peak.  Only the smooth ramps' troughs are
        # compared: the jump's is a cusp at r = 0, and that of 40/0.05 spans
        # about five records, too few for a parabola to hold to 1e-6
        traj, s = fine_run
        p = traj.profile
        last = np.flatnonzero(traj.t >= traj.t[-1] - math.pi / p.omegaf)[:-1]
        i, j = last[np.argmax(traj.r[last])], last[np.argmin(traj.r[last])]
        assert abs(_vertex(traj.r, i) - s.r_max) <= 1e-6
        if p.kind == "tanh" and p.epsilon >= 0.1:
            assert abs(_vertex(traj.r, j) - s.r_min) <= 1e-6

    def test_n_maxima_counts_the_record_maxima(self, fine_run):
        traj, s = fine_run
        r = traj.r[traj.t > s.window_start]
        maxima = int(np.count_nonzero((r[1:-1] > r[:-2]) & (r[1:-1] >= r[2:])))
        assert s.n_maxima == maxima and maxima in (3, 4)

    def test_no_switch_no_swing(self):
        p = tanh_profile(1.0, 1.0, 10.0, 0.5)
        s = post_transition_summary(propagate_converged(p, SimulationConfig()))
        assert (s.amplitude, s.n_maxima) == (0.0, 0)
        assert s.r_min == s.r_max == s.r_midpoint


def test_readme_library_sketch_runs(capsys):
    # the README's documented API, run as written with warnings as errors
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(sketch, {})
    first = capsys.readouterr().out.splitlines()[0].split()
    assert first[:2] == ["True", "512"]
    assert float(first[2]) <= 1e-14
