"""Hurwitz zeta: Euler-Maclaurin and Hasse routes against references."""
import math

import pytest

from oracles import ZETA2_AT_HALF, mp_zeta
from zetalim import (
    DomainError,
    EvalResult,
    HurwitzQuery,
    PoleError,
    hurwitz_hasse,
    hurwitz_zeta,
    pole_residue_check,
)
from zetalim.result import ConvergenceError

S_ORACLE = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
X_ORACLE = (0.1, 0.25, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("s", S_ORACLE)
@pytest.mark.parametrize("x", X_ORACLE)
def test_em_matches_reference(s, x):
    got = hurwitz_zeta(HurwitzQuery(s, x)).value
    want = mp_zeta(s, x, 0)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("s", S_ORACLE)
@pytest.mark.parametrize("x", X_ORACLE)
def test_em_derivatives_match_reference(m, s, x):
    # Negative s with m = 2 cancels ~1e4-magnitude terms down to ~1e-2,
    # so a few 1e-11 of term-formation rounding is the binary64 floor.
    got = hurwitz_zeta(HurwitzQuery(s, x, m)).value
    want = mp_zeta(s, x, m)
    assert got == pytest.approx(want, abs=5e-11, rel=5e-11)


def test_basel_value():
    got = hurwitz_zeta(HurwitzQuery(2.0, 1.0)).value
    assert got == pytest.approx(math.pi**2 / 6.0, abs=1e-14)


def test_linear_form_at_s_zero():
    # zeta(0, x) = 1/2 - x must emerge from the continuation.
    for x in (0.3, 0.5, 1.0, 2.7):
        assert hurwitz_zeta(HurwitzQuery(0.0, x)).value == pytest.approx(
            0.5 - x, abs=1e-12
        )
        assert hurwitz_hasse(0.0, x).value == pytest.approx(0.5 - x, abs=1e-12)


def test_error_estimate_band():
    # err_estimate <= 1e-10 over s in [-5, 5], x in [0.01, 10].
    for s in (-5.0, -2.5, -0.5, 0.5, 1.5, 3.0, 5.0):
        for x in (0.01, 0.1, 0.5, 1.0, 5.0, 10.0):
            r = hurwitz_zeta(HurwitzQuery(s, x))
            assert r.err_estimate <= 1e-10, (s, x, r.err_estimate)


def test_derivative_at_zero_is_stirling_constant():
    got = hurwitz_zeta(HurwitzQuery(0.0, 1.0, 1)).value
    assert got == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-13)


def test_second_derivative_at_half():
    got = hurwitz_zeta(HurwitzQuery(0.0, 0.5, 2)).value
    assert got == pytest.approx(ZETA2_AT_HALF, abs=1e-12)


def test_hasse_agrees_with_em_on_grid():
    ss = (-2.5, -1.0, -0.25, 0.5, 1.5, 3.0)
    xs = (0.1, 0.5, 1.0, 2.5, 10.0)
    for s in ss:
        for x in xs:
            a = hurwitz_zeta(HurwitzQuery(s, x)).value
            b = hurwitz_hasse(s, x).value
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9), (s, x)


@pytest.mark.parametrize("s,x", [(-1.5, 0.3), (0.5, 1.0), (2.0, 0.25)])
def test_hasse_matches_reference(s, x):
    got = hurwitz_hasse(s, x).value
    want = mp_zeta(s, x, 0)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_hasse_classic_values():
    assert hurwitz_hasse(2.0, 1.0).value == pytest.approx(
        math.pi**2 / 6.0, abs=1e-9
    )
    assert hurwitz_hasse(-1.0, 1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-12)


@pytest.mark.parametrize("s", [-2.0, -0.5, 0.5, 3.0])
@pytest.mark.parametrize("x", [0.25, 1.0, 2.0])
def test_derivatives_consistent_with_central_differences(s, x):
    # Step-1e-4 central differences of order m track order m+1.  The
    # scheme's own h^2/6 truncation reaches 1.3e-6 at s = 0.5, where
    # the pole makes the fourth derivative ~770, hence the 2e-6 band.
    h = 1e-4
    for m in (0, 1):
        hi = hurwitz_zeta(HurwitzQuery(s + h, x, m)).value
        lo = hurwitz_zeta(HurwitzQuery(s - h, x, m)).value
        analytic = hurwitz_zeta(HurwitzQuery(s, x, m + 1)).value
        assert (hi - lo) / (2.0 * h) == pytest.approx(analytic, abs=2e-6)


def test_pole_raises_in_both_routes():
    with pytest.raises(PoleError):
        hurwitz_zeta(HurwitzQuery(1.0, 0.7))
    with pytest.raises(PoleError):
        hurwitz_zeta(HurwitzQuery(1.0 + 1e-9, 0.7))
    with pytest.raises(PoleError):
        hurwitz_hasse(1.0, 0.7)


def test_query_validation():
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, 0.0)
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, -1.0)
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, 1.0, 3)
    with pytest.raises(DomainError):
        hurwitz_hasse(2.0, -0.5)


def test_hasse_reports_nonconvergence_when_starved():
    with pytest.raises(ConvergenceError):
        hurwitz_hasse(0.5, 0.3, max_terms=5)


@pytest.mark.parametrize("x", [0.5, 1.0, 3.7])
def test_pole_residue_is_one(x):
    assert pole_residue_check(x) == pytest.approx(1.0, abs=1e-9)


def test_pole_residue_rejects_bad_step():
    with pytest.raises(DomainError):
        pole_residue_check(1.0, h=0.0)
    with pytest.raises(DomainError):
        pole_residue_check(1.0, h=0.5)


def test_result_invariants():
    r = hurwitz_zeta(HurwitzQuery(2.0, 1.0))
    assert isinstance(r, EvalResult)
    assert r.err_estimate >= 0.0
    assert r.terms_used >= 1
    assert r.method_tag
    assert r.err_estimate < 1e-12
    with pytest.raises(ValueError):
        EvalResult(1.0, -1.0, 3, "x")
    with pytest.raises(ValueError):
        EvalResult(1.0, 0.0, 0, "x")


@pytest.mark.parametrize(
    "s, x",
    [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (2.0, math.inf), (2.0, math.nan)],
)
def test_query_rejects_non_finite_input(s, x):
    with pytest.raises(DomainError):
        HurwitzQuery(s, x)
