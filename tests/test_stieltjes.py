"""Generalized Stieltjes constants gamma_0 and gamma_1 and their integrals."""
import math
import random

import pytest

from oracles import (
    GAMMA1_AT_1,
    loop_gamma1_reflection_diff,
    loop_stieltjes_gamma1,
    mp_gamma1,
    outcome,
    quad_integral_gamma0,
)
from zetalim import (
    ConvergenceError,
    DomainError,
    StieltjesQuery,
    gamma1_finite_difference,
    gamma1_reflection_diff,
    integral_gamma,
    log_gamma,
    stieltjes_gamma,
)
from zetalim import stieltjes
from zetalim.special import HARMONIC, bernoulli, digamma

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


def test_query_holds_its_fields_and_reprs_them():
    q = StieltjesQuery(n=1, x=2.5)
    assert (q.n, q.x) == (1, 2.5)
    assert repr(q) == "StieltjesQuery(n=1, x=2.5)"


@pytest.mark.parametrize("x", [1e-6, 0.3, 0.999, 17.6, 1e6])
def test_gamma1_routes_sum_nineteen_terms(x):
    # Deterministic cost guard: an 11-term head and 8 Bernoulli
    # corrections, in each route.
    assert stieltjes_gamma(StieltjesQuery(1, x)).terms_used == 19
    if x < 1.0:
        assert gamma1_reflection_diff(x).terms_used == 19


def test_gamma1_truncation_estimate_does_not_vanish():
    # The last correction B_16/16 (ln A - H_15) / A^16 passes through
    # zero at A = e^{H_15} = 27.6, x = 17.6; its magnitude bound does not.
    c, h = bernoulli(16) / 16, HARMONIC[14]
    for k in range(121):
        a = stieltjes._G1_CUTOFF + 17.0 + 0.01 * k
        trunc = stieltjes._tail_closure(a)[1]
        assert trunc > 0.0 and trunc >= abs(c * (math.log(a) - h) / a**16), a


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


@pytest.mark.parametrize("x", [1e-310, 5e-324])
@pytest.mark.parametrize(
    "f",
    [lambda x: stieltjes_gamma(StieltjesQuery(0, x)),
     lambda x: stieltjes_gamma(StieltjesQuery(1, x)),
     gamma1_reflection_diff,
     digamma],
    ids=["gamma0", "gamma1", "reflection", "digamma"],
)
def test_values_leaving_binary64_raise(f, x):
    # psi(x) ~ -1/x and gamma_1(x) ~ -ln(x)/x overflow here; the error
    # names x instead of returning +-inf.
    with pytest.raises(ConvergenceError, match=repr(x)):
        f(x)


def test_gamma1_matches_the_loop_route_bit_for_bit():
    # No value, error estimate, term count or ConvergenceError may differ
    # from the loop kept in oracles.py.
    # Seeded x log-uniform over [1e-12, 1e6], the band [17, 18.2] where
    # the last tail correction changes sign, and below about 3.9e-306,
    # where ln(x)/x overflows and both sides raise.
    rng = random.Random(2001)
    xs = [10.0 ** rng.uniform(-12.0, 6.0) for _ in range(3000)]
    xs += [17.0 + 0.0005 * k for k in range(2401)]
    xs += [10.0 ** rng.uniform(-323.5, math.log10(4e-306)) for _ in range(200)]
    xs += [4e-306, 3.9e-306, 1e-310, 5e-324]
    for x in xs:
        got = outcome(lambda x: stieltjes_gamma(StieltjesQuery(1, x)), x)
        assert got == outcome(loop_stieltjes_gamma1, x), x
    assert outcome(loop_stieltjes_gamma1, 1e-310)[0] is ConvergenceError


def test_reflection_diff_matches_the_loop_route_bit_for_bit():
    # Seeded x uniform over (0, 1), x within 1e-9 of 0 and of 1, and
    # x below 4e-306, where both sides raise.
    rng = random.Random(2002)
    xs = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(2000)]
    xs += [10.0 ** rng.uniform(-300.0, -9.0) for _ in range(500)]
    xs += [1.0 - 10.0 ** rng.uniform(-16.0, -9.0) for _ in range(500)]
    xs += [10.0 ** rng.uniform(-323.5, math.log10(4e-306)) for _ in range(200)]
    xs += [4e-306, 1e-310, 5e-324]
    for x in xs:
        got = outcome(gamma1_reflection_diff, x)
        assert got == outcome(loop_gamma1_reflection_diff, x), x
    assert outcome(loop_gamma1_reflection_diff, 1e-310)[0] is ConvergenceError
