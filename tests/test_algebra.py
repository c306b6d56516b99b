"""Unit tests for the squeeze-parameter algebra.

Reference numbers were generated once with 50-digit arithmetic applied to
the same defining formulas and are frozen here to 18 significant digits.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from squeezesim import (
    BchCoeffs,
    BogoliubovCoeffs,
    InstSqueezeParams,
    SaturationError,
    SaturationWarning,
    SqueezeParams,
    bch_to_inst,
    bogoliubov_coeffs,
    chi_to_squeeze,
    compose_bch,
    fock_coefficients,
    lambda_coeffs,
    quadrature_variance,
    rho_of,
    variance_cross_basis,
)
from squeezesim.algebra import _tanh_rho

LN3 = math.log(3.0)


class TestSqueezeParams:
    def test_phase_wrapped_to_principal_branch(self):
        assert SqueezeParams(0.5, 3 * math.pi / 2).phi == pytest.approx(-math.pi / 2)
        assert SqueezeParams(0.5, -math.pi).phi == pytest.approx(math.pi)
        assert SqueezeParams(0.5, math.pi).phi == pytest.approx(math.pi)
        assert SqueezeParams(0.0, 100.0).phi == pytest.approx(
            100.0 - 32 * math.pi, abs=1e-12
        )

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            SqueezeParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            InstSqueezeParams(-0.1, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SqueezeParams(float("nan"), 0.0)
        with pytest.raises(ValueError):
            SqueezeParams(1.0, float("inf"))
        with pytest.raises(ValueError):
            InstSqueezeParams(float("inf"), 0.0)


class TestInstSqueezeParams:
    def test_beta_mod_filled_from_magnitude(self):
        s = InstSqueezeParams(0.7, 0.2)
        assert s.beta_mod == pytest.approx(1.0 - math.tanh(0.7) ** 2, abs=1e-15)

    def test_inconsistent_beta_mod_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            InstSqueezeParams(0.7, 0.2, beta_mod=0.9)

    def test_consistent_beta_mod_kept(self):
        expected = 1.0 - math.tanh(0.7) ** 2
        s = InstSqueezeParams(0.7, 0.2, beta_mod=expected)
        assert s.beta_mod == expected


class TestBogoliubov:
    def test_identity_frequency_is_trivial(self):
        g = bogoliubov_coeffs(0.0)
        assert (g.gamma1, g.gamma2) == (1.0, 0.0)
        assert type(g).__slots__ == ("rho",)

    def test_hyperbolic_identity(self):
        for rho in (-2.0, -0.3, 0.0, 0.3, 2.0):
            g = bogoliubov_coeffs(rho)
            assert (g.gamma1, g.gamma2) == (float(np.cosh(rho)), float(np.sinh(rho)))
            assert g.gamma1**2 - g.gamma2**2 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_construction_rejected(self):
        # rho alone fixes the pair, so a rho whose cosh is not a finite float
        # is all there is to reject
        for rho in (float("nan"), float("inf"), -float("inf"), 710.48, -711.0):
            with pytest.raises(ValueError, match="rho must be finite"):
                BogoliubovCoeffs(rho)
        with pytest.raises(ValueError, match="rho must be finite"):
            bogoliubov_coeffs(float("inf"))
        edge = float(np.nextafter(np.arccosh(np.finfo(float).max), 0.0))
        for rho in (edge, -edge):
            g = BogoliubovCoeffs(rho)
            assert np.isfinite([g.gamma1, g.gamma2]).all()

    def test_rho_of_values(self):
        assert rho_of(3.0, 1.0) == pytest.approx(0.5 * LN3, abs=1e-15)
        assert rho_of(1.0, 1.0) == 0.0
        assert rho_of(0.5, 2.0) == pytest.approx(-math.log(2.0), abs=1e-15)
        with pytest.raises(ValueError):
            rho_of(-1.0, 1.0)
        with pytest.raises(ValueError):
            rho_of(1.0, 0.0)

    def test_rho_of_arrays_match_the_scalar_calls(self):
        omega = np.array([3.0, 1.0, 0.5, 1e-200, 1e200, 7.3])
        omega0 = np.array([1.0, 1.0, 2.0, 1.0, 3.0, 0.1])
        assert type(rho_of(3.0, 1.0)) is float
        for got, want in [
            (rho_of(omega, omega0), [rho_of(a, b) for a, b in zip(omega.tolist(), omega0.tolist())]),
            (rho_of(omega, 2.0), [rho_of(a, 2.0) for a in omega.tolist()]),
        ]:
            assert isinstance(got, np.ndarray)
            assert got.tobytes() == np.array(want).tobytes()  # bitwise
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="frequencies must be positive and finite"):
                rho_of(np.array([1.0, bad]), 1.0)
            with pytest.raises(ValueError, match="frequencies must be positive and finite"):
                rho_of(omega, np.array([1.0, bad, 1.0, 1.0, 1.0, 1.0]))


class TestTanhRho:
    def test_is_the_plain_quotient_unless_the_sum_overflows(self):
        # 20,000 pairs log-uniform over the positive floats and 20,000 of
        # two frequencies above 0.3 DBL_MAX: bitwise (omega - omega0)/(omega
        # + omega0) wherever the sum is finite, and tanh(rho) where it
        # overflows, which the plain quotient reads as 0
        rng = np.random.default_rng(37)
        top = sys.float_info.max
        omega, omega0 = np.concatenate([np.exp(rng.uniform(math.log(5e-324), math.log(top), (2, 20_000))),
                                        top * rng.uniform(0.3, 1.0, (2, 20_000))], axis=1)
        with np.errstate(over="ignore"):
            total = omega + omega0
        plain = (omega - omega0) / total
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = _tanh_rho(omega, omega0)
        finite = np.isfinite(total)
        assert 20_000 < finite.sum() < 40_000
        assert t[finite].tobytes() == plain[finite].tobytes()
        np.testing.assert_allclose(t[~finite], np.tanh(rho_of(omega[~finite], omega0[~finite])), rtol=0, atol=1e-15)
        assert _tanh_rho(np.array([1.5e308]), 1e308).tolist() == [0.2]


class TestChiToSqueeze:
    def test_vacuum(self):
        s = chi_to_squeeze(0j)
        assert s.r == 0.0
        assert s.phi == pytest.approx(math.pi)

    def test_frozen_value(self):
        # chi after steps omega = 3 then 2 from vacuum, omega0 = 1, tau = 0.1
        chi = -0.313971463991129776 - 0.346597892941092533j
        s = chi_to_squeeze(chi)
        assert s.r == pytest.approx(0.507074248752072147, abs=1e-15)
        assert s.phi == pytest.approx(math.pi - 2.30684321986362092, abs=1e-14)

    def test_magnitude_grazing_one_is_clamped_and_counted(self):
        with pytest.warns(SaturationWarning, match=r"clamped 1 value") as rec:
            chi_to_squeeze(1.0 + 0j)
        # the warning names the caller's line, not one inside the package
        assert rec[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            s = chi_to_squeeze(complex(1.0 + 5e-13, 0.0))
        assert s.r == pytest.approx(math.atanh(1.0 - 1e-15))

    def test_magnitude_beyond_window_raises(self):
        with pytest.raises(SaturationError):
            chi_to_squeeze(complex(1.0 + 1e-9, 0.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            chi_to_squeeze(complex(float("nan"), 0.0))


class TestLambdaCoeffs:
    def test_pure_rotation_case(self):
        # zeta = i with a trivial basis change leaves only the ladder parts
        lp, lc, lm = lambda_coeffs(1j, bogoliubov_coeffs(0.0))
        assert lp == pytest.approx(-1j)
        assert lc == pytest.approx(0.0)
        assert lm == pytest.approx(-1j)

    def test_conjugation_relation(self):
        g = bogoliubov_coeffs(0.37)
        for zeta in (0.2 + 0.5j, -1.1j, 0.9, -0.3 - 0.8j):
            lp, lc, lm = lambda_coeffs(zeta, g)
            assert lm == pytest.approx(-np.conj(lp), abs=1e-14)
            assert lc.real == pytest.approx(0.0, abs=1e-14)


class TestComposeBch:
    def test_frozen_composition(self):
        c = compose_bch(SqueezeParams(0.7, 0.3), bogoliubov_coeffs(0.25))
        assert c.alpha.real == pytest.approx(-0.375638315413036616, abs=1e-15)
        assert c.alpha.imag == pytest.approx(-0.227156690154262997, abs=1e-15)
        assert c.beta.real == pytest.approx(0.803115603552056657, abs=1e-15)
        assert c.beta.imag == pytest.approx(0.0820467248748835086, abs=1e-15)
        assert c.gamma.real == pytest.approx(0.396779590424061309, abs=1e-15)
        assert c.gamma.imag == pytest.approx(-0.187803787265054857, abs=1e-15)

    def test_frozen_instantaneous_params(self):
        c = compose_bch(SqueezeParams(0.7, 0.3), bogoliubov_coeffs(0.25))
        s = bch_to_inst(c)
        assert s.R == pytest.approx(0.470967847474640044, abs=1e-14)
        assert s.Phi == pytest.approx(math.pi - 2.59770844967199376, abs=1e-13)
        assert s.beta_mod == pytest.approx(0.807295694111816174, abs=1e-14)

    def test_unsqueezed_state_reports_basis_mismatch(self):
        # with no squeeze, alpha reduces to tanh(rho)
        for rho in (0.55, -0.8):
            c = compose_bch(SqueezeParams(0.0, 0.0), bogoliubov_coeffs(rho))
            assert c.alpha == pytest.approx(math.tanh(rho), abs=1e-14)

    def test_trivial_basis_change_keeps_squeeze(self):
        c = compose_bch(SqueezeParams(0.9, 0.7), bogoliubov_coeffs(0.0))
        expected = -math.tanh(0.9) * np.exp(0.7j)
        assert c.alpha == pytest.approx(expected, abs=1e-14)

    def test_matched_squeeze_cancels(self):
        # squeeze equal to the basis exponent at zero phase composes to nothing
        rho_f = 0.5 * LN3
        c = compose_bch(SqueezeParams(rho_f, 0.0), bogoliubov_coeffs(rho_f))
        assert abs(c.alpha) == pytest.approx(0.0, abs=1e-15)
        assert abs(c.beta) == pytest.approx(1.0, abs=1e-14)

    def test_unitarity_over_parameter_spread(self):
        worst = 0.0
        for r in (0.0, 0.4, 1.3, 2.6):
            for phi in (-2.4, 0.0, 0.9, 3.1):
                for rho in (-1.1, -0.2, 0.3, 0.9):
                    c = compose_bch(SqueezeParams(r, phi), bogoliubov_coeffs(rho))
                    worst = max(worst, abs(abs(c.alpha) ** 2 + abs(c.beta) - 1.0))
        assert worst <= 1e-12

    def test_bch_coeffs_validation(self):
        with pytest.raises(ValueError):
            BchCoeffs(1.0 + 0j, 0j, 0j)
        with pytest.raises(ValueError):
            BchCoeffs(0.5 + 0j, 0.5 + 0j, 0j)  # unitarity violated

    @pytest.mark.parametrize(
        "alpha, beta, gamma",
        [(math.nan, 1, 0), (0.5, math.nan, 0), (complex(0.5, math.nan), 0.75, 0),
         (0.5, 0.75, math.nan)],
        ids=["alpha", "beta", "alpha-imag", "gamma"],
    )
    def test_bch_coeffs_reject_non_finite(self, alpha, beta, gamma):
        # nan fails every >= and > comparison, so it must be caught by name
        with pytest.raises(ValueError, match="must be finite"):
            BchCoeffs(alpha, beta, gamma)


class TestQuadratureVariance:
    def test_frozen_value(self):
        v = quadrature_variance(SqueezeParams(0.6, 0.9), 0.25)
        assert v == pytest.approx(0.210174795449748404, abs=1e-16)

    def test_extrema(self):
        s = SqueezeParams(0.85, -1.2)
        assert quadrature_variance(s, s.phi / 2) == pytest.approx(
            0.5 * math.exp(-1.7), abs=1e-15
        )
        assert quadrature_variance(s, s.phi / 2 + math.pi / 2) == pytest.approx(
            0.5 * math.exp(1.7), abs=1e-14
        )

    def test_vacuum_is_isotropic(self):
        s = SqueezeParams(0.0, 0.3)
        for lam in (0.0, 0.7, 2.0):
            assert quadrature_variance(s, lam) == pytest.approx(0.5, abs=1e-15)

    def test_accepts_instantaneous_params(self):
        v = quadrature_variance(InstSqueezeParams(0.6, 0.9), 0.25)
        assert v == pytest.approx(0.210174795449748404, abs=1e-15)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            quadrature_variance((0.6, 0.9), 0.25)
        with pytest.raises(ValueError, match="angle must be finite"):
            quadrature_variance(SqueezeParams(0.6, 0.9), float("nan"))


class TestCrossBasisVariance:
    def test_scaling_directions(self):
        assert variance_cross_basis(0.5, 3.0, 1.0, "position") == pytest.approx(1.5)
        assert variance_cross_basis(0.5, 3.0, 1.0, "momentum") == pytest.approx(1.0 / 6.0)

    def test_product_invariance(self):
        vp, vm = 0.62, 0.13
        prod = variance_cross_basis(vp, 2.7, 1.0, "position") * variance_cross_basis(
            vm, 2.7, 1.0, "momentum"
        )
        assert prod == pytest.approx(vp * vm, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_cross_basis(-0.1, 1.0, 1.0, "position")
        with pytest.raises(ValueError):
            variance_cross_basis(0.5, 1.0, 1.0, "sideways")


class TestFockCoefficients:
    def test_frozen_initial_basis_amplitudes(self):
        c = fock_coefficients(SqueezeParams(0.8, 0.4), 2)
        assert c[0] == pytest.approx(0.864696431262104618, abs=1e-15)
        assert c[1].real == pytest.approx(-0.373963476165173442, abs=1e-15)
        assert c[1].imag == pytest.approx(-0.158109221778385517, abs=1e-15)
        assert c[2].real == pytest.approx(0.162672278772685753, abs=1e-15)
        assert c[2].imag == pytest.approx(0.167493650387602718, abs=1e-15)

    def test_norm_completeness(self):
        c = fock_coefficients(SqueezeParams(1.2, -0.5), 100)
        assert np.sum(np.abs(c) ** 2) >= 1.0 - 1e-8

    def test_vacuum_single_amplitude(self):
        c = fock_coefficients(SqueezeParams(0.0, 0.0), 5)
        assert c[0] == pytest.approx(1.0)
        assert np.all(c[1:] == 0.0)

    def test_min_norm_enforced(self):
        with pytest.raises(ValueError, match="achieved norm"):
            fock_coefficients(SqueezeParams(2.0, 0.0), 3, min_norm=0.999)

    def test_composition_triple_matches_inst_params(self):
        s = InstSqueezeParams(0.9, 1.1)
        via_params = fock_coefficients(s, 6)
        via_triple = fock_coefficients(
            (math.tanh(0.9), s.Phi - math.pi, s.beta_mod), 6
        )
        np.testing.assert_allclose(via_params, via_triple, atol=1e-15)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            fock_coefficients((1.2, 0.0, 0.5), 3)
        with pytest.raises(ValueError):
            fock_coefficients((0.5, 0.0, 0.0), 3)
        with pytest.raises(ValueError):
            fock_coefficients(SqueezeParams(0.5, 0.0), -1)
