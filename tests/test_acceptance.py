"""Acceptance gate: twelve pass/fail criteria at their stated tolerances.

Each test prints one `criterion NN PASS/FAIL` line (run pytest with -s
or read captured output) and then asserts, so a failing criterion is
visible both ways.
"""
import json
import time

import pytest

from oracles import GAMMA1_AT_1, HALF_LOG_HALF_PI
from zetalim import (
    HurwitzQuery,
    StieltjesQuery,
    gamma1_finite_difference,
    hurwitz_hasse,
    hurwitz_zeta,
    integral_gamma,
    pole_residue_check,
    quadrature_zeta2_integral,
    registry,
    regularized_limit,
    stieltjes_gamma,
    verify,
)
from zetalim.cli import main as cli_main

S_GRID_30 = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
X_GRID_30 = (0.1, 0.25, 0.5, 1.0, 2.0)


def _case(cid):
    matches = [c for c in registry() if c.id == cid]
    assert len(matches) == 1, cid
    return matches[0]


def _report(ok, number):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d}"


def _cases_pass(cids, tol_cap=None):
    worst = 0.0
    ok = True
    for cid in cids:
        res = verify(_case(cid)).cases[0]
        ok = ok and res.passed
        if tol_cap is not None and res.max_residual is not None:
            worst = max(worst, res.max_residual)
    if tol_cap is not None:
        ok = ok and worst <= tol_cap
    return ok


def test_criterion_01_dual_route_zeta():
    start = time.perf_counter()
    worst = 0.0
    for s in S_GRID_30:
        for x in X_GRID_30:
            em = hurwitz_zeta(HurwitzQuery(s, x)).value
            hs = hurwitz_hasse(s, x).value
            worst = max(worst, abs(em - hs))
    elapsed = time.perf_counter() - start
    _report(worst <= 1e-9 and elapsed < 5.0, 1)


def test_criterion_02_pole_residue():
    ok = all(abs(pole_residue_check(x) - 1.0) <= 1e-9 for x in (0.5, 1.0, 3.7))
    _report(ok, 2)


def test_criterion_03_lerch_and_half_argument():
    ok = _cases_pass(["EQ3.18", "HALFARG"], tol_cap=1e-9)
    _report(ok, 3)


def test_criterion_04_stieltjes_dual_route():
    xs = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.6, 2.5)
    worst = max(
        abs(
            stieltjes_gamma(StieltjesQuery(1, x)).value
            - gamma1_finite_difference(x).value
        )
        for x in xs
    )
    anchor = abs(stieltjes_gamma(StieltjesQuery(1, 1.0)).value - GAMMA1_AT_1)
    _report(worst <= 1e-8 and anchor <= 1e-9, 4)


def test_criterion_05_gamma1_integral():
    closed = abs(integral_gamma(1, 2.0).value)
    res = verify(_case("EQ3.21")).cases[0]
    _report(closed <= 1e-9 and res.passed and res.max_residual <= 1e-8, 5)


def test_criterion_06_finite_s_fourier():
    start = time.perf_counter()
    ok = True
    for cid in ("EQ4.4", "EQ4.5"):
        res = verify(_case(cid)).cases[0]
        ok = ok and res.passed and res.max_residual <= 1e-8
        assert len(res.points) == 45, cid
    elapsed = time.perf_counter() - start
    _report(ok and elapsed < 10.0, 6)


def test_criterion_07_regularized_limits():
    ok = True
    for cid in ("EQ4.1", "EQ4.14", "EQ4.21", "EQ4.22", "EQ4.23"):
        res = verify(_case(cid)).cases[0]
        ok = ok and res.passed and res.max_residual <= 1e-6
        assert len(res.points) == 12, cid
    _report(ok, 7)


def test_criterion_08_main_theorem():
    ok = _cases_pass(["EQ4.8", "EQ4.10.1"], tol_cap=1e-6)
    _report(ok, 8)


def test_criterion_09_deninger():
    ok = _cases_pass(["EQ4.12", "EQ4.12.1"], tol_cap=1e-6)
    quad = abs(quadrature_zeta2_integral().value)
    _report(ok and quad <= 1e-6, 9)


def test_criterion_10_digamma_suite():
    ok = _cases_pass(
        ["EQ4.18", "EQ4.19", "EQ4.20", "KUMMER", "LOGSINE"], tol_cap=1e-6
    )
    refl = verify(_case("PSIREFL")).cases[0]
    ok = ok and refl.passed and refl.max_residual <= 1e-7
    _report(ok, 10)


def test_criterion_11_alternating_log_constant():
    got = regularized_limit(0.5, "cosine", "log_n", "all_n", "two_pi_n_power", 1.0).value
    _report(abs(got - HALF_LOG_HALF_PI) <= 1e-7, 11)


def test_criterion_12_full_verify_deterministic(tmp_path):
    start = time.perf_counter()
    paths = [tmp_path / "run_a.json", tmp_path / "run_b.json"]
    codes = [
        cli_main(["verify", "--format", "json", "--out", str(p)]) for p in paths
    ]
    elapsed = time.perf_counter() - start
    same = paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    enough = len(report["cases"]) >= 18
    _report(codes == [0, 0] and same and enough and elapsed < 120.0, 12)
