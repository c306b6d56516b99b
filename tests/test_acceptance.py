"""Acceptance suite: one test per headline requirement.

Each test prints a [PASS]/[FAIL] line with its measured values before
asserting, so the verdicts survive into the captured output.  Criteria 1-5
and the formula halves of 7 and 8 are the squeezesim.checks verdicts that
`squeezesim verify` prints; their runs and bounds live there.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezesim import (
    SqueezeParams,
    bch_to_inst,
    bogoliubov_coeffs,
    compose_bch,
    fit_ansatz,
    fitted_sp,
    fock_coefficients,
    lambda_coeffs,
    quadrature_variance,
    variance_cross_basis,
)
from squeezesim.checks import ANCHORS


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _check_verdict(num: int, check) -> None:
    _verdict(num, check.passed, check.detail)
    assert check.passed, check.detail


def test_criterion_01_jump_oracle_equivalence(physics_checks):
    """Near-sudden ramp tracks the sudden-switch closed form to 1e-3."""
    _check_verdict(1, physics_checks["near-sudden-oracle"])


def test_criterion_02_jump_extrema_and_period(physics_checks):
    """Sudden switch: maximum ln 3, minimum 0, period pi/3."""
    _check_verdict(2, physics_checks["jump-extrema"])


def test_criterion_03_midpoint_universality(physics_checks):
    """Oscillation midpoint sits at half the log-ratio for every ramp width."""
    _check_verdict(3, physics_checks["midpoint"])


def test_criterion_04_instantaneous_basis_constancy(physics_checks):
    """Post-transition R is flat, decays with ramp width, and the sudden
    limit reaches half the log-ratio."""
    _check_verdict(4, physics_checks["instantaneous-constancy"])


def test_criterion_05_unitarity(physics_checks):
    """Composition identity holds to 1e-10 at every recorded step of every
    reference run."""
    _check_verdict(5, physics_checks["unitarity"])


def test_criterion_06_formula_agreement(design_sweep, mode_function_oracle):
    """Simulated final squeezing matches the secant formula within 5%
    pointwise for ratios up to 5 and widths up to 1.6.

    The simulated values are first checked against the mode-function oracle
    to 1e-4, so a failure of the 5% bound is the formula's, not the
    propagator's.
    """
    ratios = (1.5, 2.0, 3.0, 5.0)
    widths = (0.1, 0.4, 0.8, 1.6)
    rows = []
    worst = 0.0
    worst_oracle = 0.0
    worst_scaled = 0.0
    n_cells = 0
    for o0, of, eps, r_sim in design_sweep:
        k = of / o0
        in_ratio = any(
            math.isclose(k, c) or math.isclose(k, 1.0 / c) for c in ratios
        )
        if not in_ratio or not any(math.isclose(eps, w) for w in widths):
            continue
        n_cells += 1
        worst_oracle = max(worst_oracle, abs(r_sim - mode_function_oracle(o0, of, eps)))
        ref = fitted_sp(o0, of, eps)
        rel = abs(r_sim - ref) / ref
        worst = max(worst, rel)
        worst_scaled = max(worst_scaled, abs(r_sim - ref) / abs(0.5 * math.log(k)))
        if rel > 0.05:
            rows.append(f"ratio {k:g} eps {eps:g}: sim {r_sim:.6f} "
                        f"formula {ref:.6f} rel {rel:.1%}")
    oracle_ok = worst_oracle <= 1e-4
    ok = n_cells == 32 and oracle_ok and worst <= 0.05
    _verdict(
        6,
        ok,
        f"simulation vs mode-function oracle worst |dR| = {worst_oracle:.1e} "
        f"(tol 1.0e-04); worst pointwise relative error {worst:.1%} over "
        f"{n_cells} cells ({len(rows)} cells above 5%); worst deviation over "
        f"|rho_f| {worst_scaled:.1%}",
    )
    assert n_cells == 32, f"expected 32 cells in the sweep, found {n_cells}"
    assert oracle_ok, (
        f"simulation departs from the mode-function oracle by {worst_oracle:.3e}"
    )
    assert worst <= 0.05, (
        f"formula agreement beyond 5% in {len(rows)} of 32 cells "
        f"(worst {worst:.1%}):\n" + "\n".join(rows)
    )


def test_criterion_07_contour_anchors(physics_checks, mode_function_oracle):
    """Formula-mode contour hits the two quoted level intervals, and so does
    the mode-function oracle at the same points.

    At ratio 0.2 no ramp exceeds the sudden-limit value ln(5)/2 = 0.805, so
    the second anchor sits in the band (0.7, 0.8) rather than (0.8, 0.9).
    """
    formula = physics_checks["contour-anchors"]
    ok = formula.passed
    parts = [f"formula {formula.detail}"]
    for omegaf, width, (lo, hi) in ANCHORS:
        oracle = mode_function_oracle(1.0, omegaf, width)
        inside = lo < oracle < hi
        ok = ok and inside
        parts.append(f"oracle R(ratio {omegaf:g}, {width:g}) = {oracle:.6f} "
                     f"in ({lo}, {hi}): {inside}")
    detail = "; ".join(parts)
    _verdict(7, ok, detail)
    assert ok, detail


def test_criterion_08_fit_recovery(design_sweep, physics_checks):
    """Decay-constant fit: near (2, 1) from simulated data, exactly (2, 1)
    from formula data."""
    sim_fit = fit_ansatz(design_sweep)
    formula = physics_checks["fit-recovery"]
    sim_ok = 1.8 <= sim_fit.c1 <= 2.2 and 0.85 <= sim_fit.c2 <= 1.15
    ok = sim_ok and formula.passed
    _verdict(
        8,
        ok,
        f"simulation ({sim_fit.c1:.4f}, {sim_fit.c2:.4f}) in "
        f"[1.8, 2.2]x[0.85, 1.15]: {sim_ok}; {formula.detail}: {formula.passed}",
    )
    assert formula.passed, formula.detail
    assert sim_ok, (
        f"simulation-data fit ({sim_fit.c1:.4f}, {sim_fit.c2:.4f}) outside "
        f"[1.8, 2.2] x [0.85, 1.15]"
    )


# ---------------------------------------------------------------------------
# criterion 9: randomized invariants, ten thousand cases per property

MANY = settings(max_examples=10_000, deadline=None)
finite = dict(allow_nan=False, allow_infinity=False)
radii = st.floats(min_value=0.0, max_value=3.0, **finite)
angles = st.floats(min_value=-10.0, max_value=10.0, **finite)


@MANY
@given(radii, angles)
def _prop_basis_coincidence(r, phi):
    s = bch_to_inst(compose_bch(SqueezeParams(r, phi), bogoliubov_coeffs(0.0)))
    assert abs(s.R - r) <= 1e-9 * (1.0 + r)


@MANY
@given(st.floats(min_value=-4.0, max_value=4.0, **finite),
       st.floats(min_value=-4.0, max_value=4.0, **finite),
       st.floats(min_value=-1.5, max_value=1.5, **finite))
def _prop_lambda_conjugation(re, im, rho):
    lp, _, lm = lambda_coeffs(complex(re, im), bogoliubov_coeffs(rho))
    assert abs(lm + np.conj(lp)) <= 1e-12 * (1.0 + abs(lp))


@MANY
@given(radii, angles)
def _prop_variance_extrema(r, phi):
    s = SqueezeParams(r, phi)
    vmin = quadrature_variance(s, s.phi / 2.0)
    vmax = quadrature_variance(s, s.phi / 2.0 + math.pi / 2.0)
    assert abs(vmin - 0.5 * math.exp(-2.0 * r)) <= 1e-12 * math.exp(2.0 * r)
    assert abs(vmax - 0.5 * math.exp(2.0 * r)) <= 1e-12 * math.exp(2.0 * r)


@MANY
@given(radii, angles, angles)
def _prop_heisenberg_floor(r, phi, lam):
    s = SqueezeParams(r, phi)
    prod = quadrature_variance(s, lam) * quadrature_variance(s, lam + math.pi / 2.0)
    assert prod >= 0.25 - 1e-9


@MANY
@given(st.floats(min_value=0.0, max_value=10.0, **finite),
       st.floats(min_value=0.05, max_value=20.0, **finite),
       st.floats(min_value=0.05, max_value=20.0, **finite))
def _prop_cross_basis_product_invariance(var0, w, w0):
    vp = variance_cross_basis(var0, w, w0, "position")
    vm = variance_cross_basis(var0, w, w0, "momentum")
    assert abs(vp * vm - var0 * var0) <= 1e-12 * (1.0 + var0 * var0)


@MANY
@given(st.floats(min_value=0.0, max_value=1.2, **finite), angles)
def _prop_fock_normalization(r, phi):
    # levels through 200, even amplitudes only
    c = fock_coefficients(SqueezeParams(r, phi), 100)
    assert float(np.sum(np.abs(c) ** 2)) >= 1.0 - 1e-8


def test_criterion_09_property_suite():
    """Randomized invariants, ten thousand cases each."""
    props = [
        ("basis coincidence", _prop_basis_coincidence),
        ("ladder-coefficient conjugation", _prop_lambda_conjugation),
        ("variance extrema", _prop_variance_extrema),
        ("Heisenberg floor", _prop_heisenberg_floor),
        ("cross-basis product invariance", _prop_cross_basis_product_invariance),
        ("Fock normalization", _prop_fock_normalization),
    ]
    try:
        for _, prop in props:
            prop()
    except Exception:
        _verdict(9, False, "randomized invariant violated, see traceback")
        raise
    _verdict(9, True, f"{len(props)} properties x 10000 cases")
