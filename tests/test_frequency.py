"""Unit tests for frequency profiles and their file loader."""

import math

import numpy as np
import pytest

from squeezesim import (
    FrequencyProfile,
    epsilon_from_slope,
    eval_omega,
    jump_profile,
    load_samples,
    sampled_profile,
    tanh_profile,
    transition_interval,
)


class TestTanhProfile:
    def test_asymptotes_and_midpoint(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        assert p(10.0) == pytest.approx(2.0)
        assert p(0.0) == pytest.approx(1.0, abs=1e-8)
        assert p(20.0) == pytest.approx(3.0, abs=1e-8)

    def test_midpoint_slope(self):
        # slope at the centre is (omegaf - omega0) / (2 epsilon)
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        h = 1e-6
        slope = (p(10.0 + h) - p(10.0 - h)) / (2.0 * h)
        assert slope == pytest.approx((3.0 - 1.0) / (2.0 * 0.5), rel=1e-6)

    def test_zero_width_degenerates_to_jump(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.0)
        assert p.kind == "jump"
        assert p(9.999999) == 1.0
        assert p(10.0) == 3.0

    def test_decreasing_ramp(self):
        p = tanh_profile(2.0, 0.5, 10.0, 1.0)
        assert p(0.0) == pytest.approx(2.0, abs=1e-6)
        assert p(25.0) == pytest.approx(0.5, abs=1e-8)

    def test_warns_when_window_precedes_start(self):
        with pytest.warns(UserWarning, match="not the asymptotic vacuum"):
            tanh_profile(1.0, 3.0, 1.0, 0.5)

    def test_array_evaluation(self):
        p = tanh_profile(1.0, 3.0, 10.0, 0.5)
        ts = np.array([0.0, 10.0, 20.0])
        np.testing.assert_allclose(eval_omega(p, ts), [1.0, 2.0, 3.0], atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            tanh_profile(0.0, 3.0)
        with pytest.raises(ValueError):
            tanh_profile(1.0, -3.0)
        with pytest.raises(ValueError):
            tanh_profile(1.0, 3.0, -1.0)
        with pytest.raises(ValueError):
            tanh_profile(1.0, 3.0, 10.0, -0.5)


class TestJumpProfile:
    def test_switch_is_right_continuous(self):
        p = jump_profile(1.0, 3.0, 10.0)
        assert p(10.0 - 1e-12) == 1.0
        assert p(10.0) == 3.0
        assert p(10.0 + 1e-12) == 3.0

    def test_transition_interval_collapses(self):
        assert transition_interval(jump_profile(1.0, 3.0, 10.0)) == (10.0, 10.0)


class TestTransitionInterval:
    def test_three_widths_each_side(self):
        lo, hi = transition_interval(tanh_profile(1.0, 3.0, 10.0, 0.5))
        assert (lo, hi) == (8.5, 11.5)

    def test_sampled_has_none(self):
        p = sampled_profile([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            transition_interval(p)


class TestSampledProfile:
    def test_linear_interpolation(self):
        p = sampled_profile([(0.0, 1.0), (2.0, 3.0)])
        assert p(1.0) == pytest.approx(2.0)
        assert p.omega0 == 1.0
        assert p.omegaf == 3.0

    def test_reference_frequency_override(self):
        p = sampled_profile([(0.0, 1.0), (2.0, 3.0)], omega0=2.5)
        assert p.omega0 == 2.5

    def test_out_of_range_rejected(self):
        p = sampled_profile([(0.0, 1.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            p(-0.1)
        with pytest.raises(ValueError):
            p(2.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            sampled_profile([(0.0, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            sampled_profile([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError, match="positive"):
            sampled_profile([(0.0, 1.0), (1.0, -2.0)])


class TestProfileKind:
    def test_kind_follows_from_the_fields(self):
        # epsilon > 0 is a ramp and epsilon 0 a jump, as tanh_profile builds
        # them; samples make a sampled profile whatever t0 and epsilon say
        ramp = FrequencyProfile(1.0, 3.0, 10.0, 0.5)
        assert ramp.kind == "tanh" and ramp == tanh_profile(1.0, 3.0, 10.0, 0.5)
        assert ramp._replace(epsilon=0.0) == jump_profile(1.0, 3.0, 10.0)
        assert FrequencyProfile(1.0, 2.0, 10.0, 0.5, ((0.0, 1.0), (1.0, 2.0))).kind == "sampled"
        assert "kind" not in FrequencyProfile.__slots__
        with pytest.raises(AttributeError):
            ramp.kind = "jump"


class TestInconsistentKinds:
    # a profile's kind is read from its fields, so only its samples can be
    # inconsistent; samples built directly skipped every check, so unsorted
    # times were interpolated (omega(0.5) = 1.5) and a negative frequency
    # (omega(1.5) = -2) ran the ladder to "converged"
    @pytest.mark.parametrize(
        "args, match",
        [
            ((1.0, 2.0, 0.0, 0.0, ((0, 1), (2, 3), (1, 5))), "strictly increasing"),
            ((1.0, 7.0, 0.0, 0.0, ((0, 1), (2, -3))), "positive"),
            ((1.0, 7.0, 0.0, 0.0, ((0, 1), (2, 3))), "last sample"),
            ((1.0, 1.0, 0.0, 0.0, ((0, 1),)), "at least 2"),
        ],
        ids=["unsorted-samples", "negative-sample", "omegaf-not-last-sample", "one-sample"],
    )
    def test_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            FrequencyProfile(*args)


class TestLoadSamples:
    def test_parses_comments_commas_and_blanks(self, tmp_path):
        f = tmp_path / "profile.txt"
        f.write_text(
            "# t omega\n"
            "0.0, 1.0\n"
            "\n"
            "1.0 1.5  # ramp\n"
            "2.0,2.0\n"
        )
        p = load_samples(f)
        assert p.kind == "sampled"
        assert p(0.5) == pytest.approx(1.25)
        assert p.samples == ((0.0, 1.0), (1.0, 1.5), (2.0, 2.0))

    def test_bad_column_count_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.0 1.0\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="2: expected two columns"):
            load_samples(f)

    def test_bad_number_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.0 1.0\nx 2.0\n")
        with pytest.raises(ValueError, match="2:"):
            load_samples(f)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("# only a comment\n0.0 1.0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_samples(f)


class TestEpsilonFromSlope:
    def test_inverts_midpoint_slope(self):
        eps = epsilon_from_slope(1.0, 3.0, 2.0)
        assert eps == pytest.approx(0.5)
        p = tanh_profile(1.0, 3.0, 10.0, eps)
        h = 1e-6
        assert (p(10.0 + h) - p(10.0 - h)) / (2 * h) == pytest.approx(2.0, rel=1e-6)

    def test_sign_must_match_direction(self):
        with pytest.raises(ValueError):
            epsilon_from_slope(1.0, 3.0, -2.0)
        with pytest.raises(ValueError):
            epsilon_from_slope(3.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            epsilon_from_slope(1.0, 3.0, 0.0)

    def test_decreasing_ramp(self):
        eps = epsilon_from_slope(3.0, 1.0, -0.5)
        assert eps == pytest.approx(2.0)
