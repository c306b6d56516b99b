"""Tests of the benchmark's own parts: the oracle, the answer checks and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.  The
oracle is pinned to limits that need no simulation, and every answer check
is fed a corrupted answer that it must reject.
"""

import math
import signal
import sys
import time
import types

import pytest

import checks
import oracle
import spans
import speed


def _f(x: float) -> str:
    return f"{x:.11e}"  # the CLI's float format, 12 significant digits


def test_constant_frequency_keeps_vacuum():
    assert oracle.mode_function_R(1.0, 1.0, 0.5) <= 1e-9


@pytest.mark.parametrize("omegaf", (0.2, 3.0, 5.0))
def test_near_sudden_ramp_reaches_half_log_ratio(omegaf):
    assert abs(oracle.mode_function_R(1.0, omegaf, 1e-3) - oracle.sudden_R(1.0, omegaf)) <= 1e-4


def test_fit_recovers_constants_of_formula_data():
    rows = []
    for k in (1.5, 3.0, 5.0):
        for omegaf in (k, 1.0 / k):
            rf = abs(0.5 * math.log(omegaf))
            for eps in (0.0, 0.2, 0.8, 1.6):
                rows.append((1.0, omegaf, eps, rf / math.cosh(2.0 * (rf + 1.0) * min(1.0, omegaf) * eps)))
    c1, c2, pinv = oracle.fit_secant(rows, start=(1.0, 0.5))
    assert abs(c1 - 2.0) <= 1e-9 and abs(c2 - 1.0) <= 1e-9
    assert all(b > 0.0 for b in oracle.fit_bounds(pinv, 1e-4))


EVOLVE_REF = 0.2199401


def _evolve_stdout(r_final=EVOLVE_REF + 2e-6, defect=1.1e-16, n_records=3):
    return (f"wrote trajectory to run.csv\nn_records = {n_records}\n"
            f"unitarity_defect = {_f(defect)}\nR_final = {_f(r_final)}\n")


def _trajectory_csv(n_records=3):
    rows = [checks.TRAJECTORY_HEADER]
    for i in range(n_records):
        rows.append(",".join(_f(0.1 * i - 0.05 * j) for j in range(9)))
    return "\n".join(rows) + "\n"


def test_evolve_check_accepts_a_correct_answer():
    assert checks.check_evolve(_evolve_stdout(), EVOLVE_REF, 1e-4) == []
    assert checks.check_trajectory_csv(_trajectory_csv(), 3) == []


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_evolve_check_rejects_R_moved_by_ten_tolerances(sign):
    stdout = _evolve_stdout(r_final=EVOLVE_REF + sign * 10 * 1e-4)
    assert checks.check_evolve(stdout, EVOLVE_REF, 1e-4)


def test_evolve_check_rejects_unitarity_defect():
    assert checks.check_evolve(_evolve_stdout(defect=1e-9), EVOLVE_REF, 1e-4)


@pytest.mark.parametrize("cut", (1, 20, 160))
def test_csv_check_rejects_truncated_csv(cut):
    assert checks.check_trajectory_csv(_trajectory_csv()[:-cut], 3)


def test_csv_check_rejects_non_finite_field():
    text = _trajectory_csv().replace(_f(0.1), "nan", 1)
    assert "nan" in text
    assert checks.check_trajectory_csv(text, 3)


SWEEP_REF = 0.7302212871


def _sweep_stdout(r_sim=SWEEP_REF + 1.7e-6, r_formula=0.755001718297, rel_err=None):
    if rel_err is None:
        rel_err = abs(float(_f(r_sim)) - float(_f(r_formula))) / float(_f(r_formula))
    return f"{checks.SWEEP_HEADER}\n{_f(0.1)},{_f(r_sim)},{_f(r_formula)},{_f(rel_err)}\n"


def test_sweep_check_accepts_a_correct_answer():
    assert checks.check_sweep(_sweep_stdout(), 0.1, SWEEP_REF, 1e-5) == []


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_sweep_check_rejects_R_moved_by_ten_tolerances(sign):
    stdout = _sweep_stdout(r_sim=SWEEP_REF + sign * 10 * 1e-5)
    assert checks.check_sweep(stdout, 0.1, SWEEP_REF, 1e-5)


def test_sweep_check_rejects_rel_err_inconsistent_with_its_row():
    assert checks.check_sweep(_sweep_stdout(rel_err=0.0328), 0.1, SWEEP_REF, 1e-5)


FIT_REF, FIT_BOUNDS = (2.6764958, 0.6470836), (7.3e-3, 3.5e-3)


def _fit_stdout(c1=2.6765, c2=0.6471, n_points=80):
    return (f"c1 = {_f(c1)}\nc2 = {_f(c2)}\nresidual_rms = {_f(8.6e-3)}\n"
            f"n_points = {n_points}\ngrid = {n_points} points\n")


def test_fit_check_accepts_a_correct_answer():
    assert checks.check_fit(_fit_stdout(), 80, FIT_REF, FIT_BOUNDS) == []


def test_fit_check_rejects_a_missing_point():
    assert checks.check_fit(_fit_stdout(n_points=79), 80, FIT_REF, FIT_BOUNDS)


@pytest.mark.parametrize("c", ((2.6765 + 0.01, 0.6471), (2.6765, 0.6471 - 0.005)))
def test_fit_check_rejects_constants_outside_the_bound(c):
    assert checks.check_fit(_fit_stdout(*c), 80, FIT_REF, FIT_BOUNDS)


def test_tracer_skips_missing_entry_points_and_restores_originals(monkeypatch):
    layer = types.ModuleType("perfbench_fake_layer")
    layer.work = lambda x: x + 1
    original = layer.work
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    monkeypatch.setattr(spans, "ENTRY_POINTS", (
        (layer.__name__, "work", "fake.work"),
        (layer.__name__, "renamed_away", "fake.renamed_away"),
        ("perfbench_no_such_module", "work", "fake.gone"),
    ))
    tracer = spans.Tracer()
    assert tracer.install() == [f"{layer.__name__}.work"]
    assert tracer.call("outer", "test", lambda: layer.work(1)) == 2
    tracer.uninstall()
    assert layer.work is original
    outer, inner = tracer.spans
    assert (inner.name, inner.parent) == ("fake.work", 0)
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)


def test_steps_are_counted_over_every_ladder_level():
    traj = type("Traj", (), {"delta_history": [1e-2] * 5, "n_slices": 131072,
                             "__len__": lambda self: 131073})()
    span = spans.Span("evolution.propagate_converged", "cli", None)
    span.counts = spans._counts(span.name, (), traj)
    metrics = spans.layer_metrics([span])
    assert (metrics["evolution.steps"], metrics["evolution.levels"]) == (258048, 6)
    assert metrics["evolution.records"] == 131073


def test_sampler_times_the_kernel_during_the_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.02) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        wall_s = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5 and 0.0 < sampler.spent < wall_s
    assert sampler.scaled(wall_s) == pytest.approx((wall_s - sampler.spent) * sampler.speed())
