"""Generalized Stieltjes constants gamma_0 and gamma_1 and their integrals."""
import math

import pytest

from oracles import GAMMA1_AT_1, mp_gamma1, quad_integral_gamma0
from zetalim import (
    DomainError,
    StieltjesQuery,
    gamma1_finite_difference,
    gamma1_reflection_diff,
    integral_gamma,
    log_gamma,
    stieltjes_gamma,
)
from zetalim.special import digamma

XS = (0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


@pytest.mark.parametrize("x", XS)
def test_gamma0_is_minus_digamma(x):
    got = stieltjes_gamma(StieltjesQuery(0, x)).value
    assert got == pytest.approx(-digamma(x), abs=1e-12)


def test_gamma1_at_one():
    got = stieltjes_gamma(StieltjesQuery(1, 1.0)).value
    assert got == pytest.approx(GAMMA1_AT_1, abs=1e-9)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 1.7, 3.0])
def test_gamma1_matches_reference(x):
    got = stieltjes_gamma(StieltjesQuery(1, x)).value
    assert got == pytest.approx(mp_gamma1(x), abs=1e-10)


@pytest.mark.parametrize("x", [0.2, 0.4, 0.6, 0.8, 1.0, 1.3, 1.9, 2.4, 3.0])
def test_gamma1_recurrence(x):
    # gamma_1(x+1) = gamma_1(x) - ln(x)/x.
    at_x = stieltjes_gamma(StieltjesQuery(1, x)).value
    at_x1 = stieltjes_gamma(StieltjesQuery(1, x + 1.0)).value
    assert at_x1 == pytest.approx(at_x - math.log(x) / x, abs=1e-9)


def test_gamma1_of_two_equals_gamma1_of_one():
    # ln(1)/1 = 0, so the recurrence step from 1 to 2 is free.
    a = stieltjes_gamma(StieltjesQuery(1, 2.0)).value
    b = stieltjes_gamma(StieltjesQuery(1, 1.0)).value
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "x", [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.6, 2.5]
)
def test_gamma1_series_agrees_with_finite_difference(x):
    series = stieltjes_gamma(StieltjesQuery(1, x)).value
    fd = gamma1_finite_difference(x).value
    assert series == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("x", [0.1, 0.25, 0.4, 0.45])
def test_reflection_diff_matches_separate_series(x):
    paired = gamma1_reflection_diff(x).value
    hi = stieltjes_gamma(StieltjesQuery(1, 1.0 - x)).value
    lo = stieltjes_gamma(StieltjesQuery(1, x)).value
    assert paired == pytest.approx(hi - lo, abs=1e-9)


def test_reflection_diff_antisymmetry():
    a = gamma1_reflection_diff(0.3).value
    b = gamma1_reflection_diff(0.7).value
    assert a == pytest.approx(-b, abs=1e-12)


@pytest.mark.parametrize("u", [0.5, 1.5, 2.0, 3.0])
def test_integral_gamma0_is_minus_log_gamma(u):
    got = integral_gamma(0, u).value
    assert got == pytest.approx(-log_gamma(u), abs=1e-12)
    assert got == pytest.approx(quad_integral_gamma0(u), abs=1e-10)


def test_integral_gamma0_at_three():
    assert integral_gamma(0, 3.0).value == pytest.approx(-math.log(2.0), abs=1e-12)


def test_integral_gamma1_vanishes_on_unit_shift():
    # integral_1^2 gamma_1 = 0 because zeta''(0, x) returns to its
    # x = 1 value after one unit step (the ln(x)^2/x increment at
    # x = 1 is zero).
    assert integral_gamma(1, 2.0).value == pytest.approx(0.0, abs=1e-9)


def test_query_validation():
    with pytest.raises(DomainError):
        StieltjesQuery(2, 1.0)
    with pytest.raises(DomainError):
        StieltjesQuery(0, 0.0)
    with pytest.raises(DomainError):
        gamma1_finite_difference(-1.0)
    with pytest.raises(DomainError):
        gamma1_reflection_diff(0.0)
    with pytest.raises(DomainError):
        gamma1_reflection_diff(1.0)
    with pytest.raises(DomainError):
        integral_gamma(2, 2.0)
    with pytest.raises(DomainError):
        integral_gamma(0, -2.0)


def test_result_metadata():
    r = stieltjes_gamma(StieltjesQuery(1, 0.7))
    assert r.err_estimate < 1e-9
    assert r.terms_used >= 1
    f = gamma1_finite_difference(0.7)
    assert f.err_estimate < 1e-8


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_query_rejects_non_finite_x(n, x):
    with pytest.raises(DomainError):
        StieltjesQuery(n, x)
