"""Checks of each workload's output against the oracle.

Each check takes the text the CLI produced and the oracle's reference
values and returns a list of failure messages; an empty list means the
answer is correct.  The formats parsed here (``key = value`` lines, CSV
with floats at 12 significant digits) are the CLI's documented output.
"""

from __future__ import annotations

import math
import re

TRAJECTORY_HEADER = "t,omega,rho,chi_re,chi_im,r,phi,R,Phi"
SWEEP_HEADER = "epsilon,R_sim,R_formula,rel_err"
_FLOAT12 = r"-?[0-9]\.[0-9]{11}e[+-][0-9]{2,3}"
_TRAJECTORY_ROW = re.compile(rf"{_FLOAT12}(?:,{_FLOAT12}){{8}}")
_SWEEP_ROW = re.compile(rf"{_FLOAT12}(?:,{_FLOAT12}){{3}}")


def key_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a CLI report, other lines ignored."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _number(values: dict[str, str], key: str, failures: list[str]) -> float:
    try:
        return float(values[key])
    except (KeyError, ValueError):
        failures.append(f"missing or unreadable {key}")
        return math.nan


def check_evolve(stdout: str, oracle_R: float, tol: float) -> list[str]:
    """evolve summary: R_final near the oracle and unitarity held."""
    failures: list[str] = []
    values = key_values(stdout)
    r_final = _number(values, "R_final", failures)
    if not abs(r_final - oracle_R) <= tol:
        failures.append(f"R_final {r_final!r} is not within {tol:g} of the oracle {oracle_R!r}")
    defect = _number(values, "unitarity_defect", failures)
    if not defect <= 1e-10:
        failures.append(f"unitarity_defect {defect!r} exceeds 1e-10")
    _number(values, "n_records", failures)
    return failures


def check_trajectory_csv(csv_text: str, n_records: int) -> list[str]:
    """evolve CSV: header, n_records + 1 lines, every field a finite 12-digit float."""
    failures = []
    lines = csv_text.split("\n")
    if lines[-1] != "":
        failures.append("CSV does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != TRAJECTORY_HEADER:
        failures.append("CSV header missing or wrong")
    if len(lines) != n_records + 1:
        failures.append(f"CSV has {len(lines)} lines, expected n_records + 1 = {n_records + 1}")
    bad = next((i for i, row in enumerate(lines[1:], 1) if not _TRAJECTORY_ROW.fullmatch(row)), None)
    if bad is not None:
        failures.append(f"CSV line {bad + 1} is not nine finite 12-digit floats: {lines[bad][:80]!r}")
    return failures


def check_sweep(stdout: str, eps: float, oracle_R: float, tol: float) -> list[str]:
    """sweep: one row at eps, R_sim near the oracle, rel_err consistent with its row."""
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != SWEEP_HEADER or not _SWEEP_ROW.fullmatch(lines[1]):
        return [f"expected the sweep header and one row of four finite floats, got {stdout[:200]!r}"]
    failures = []
    row_eps, r_sim, r_formula, rel_err = (float(v) for v in lines[1].split(","))
    if row_eps != eps:
        failures.append(f"row epsilon {row_eps!r}, expected {eps!r}")
    if not abs(r_sim - oracle_R) <= tol:
        failures.append(f"R_sim {r_sim!r} is not within {tol:g} of the oracle {oracle_R!r}")
    # the printed values carry 12 significant digits, so recomputing rel_err
    # from them agrees to about 1e-11 relative
    expected = abs(r_sim - r_formula) / r_formula
    if not abs(rel_err - expected) <= 1e-9 * expected + 1e-12:
        failures.append(f"rel_err {rel_err!r} differs from |R_sim - R_formula|/R_formula = {expected!r}")
    return failures


def check_fit(stdout: str, n_points: int, oracle_c: tuple[float, float],
              bounds: tuple[float, float]) -> list[str]:
    """fit: every lattice point used, (c1, c2) within the bound of the oracle's fit."""
    failures: list[str] = []
    values = key_values(stdout)
    if values.get("n_points") != str(n_points):
        failures.append(f"n_points {values.get('n_points')!r}, expected {n_points}")
    for key, ref, bound in zip(("c1", "c2"), oracle_c, bounds):
        got = _number(values, key, failures)
        if not abs(got - ref) <= bound:
            failures.append(f"{key} {got!r} is not within {bound:.3g} of the oracle fit {ref!r}")
    return failures
