"""Bernoulli numbers, digamma, log-gamma, and the Neville extrapolator."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import pytest

from zetalim import (
    EULER_GAMMA,
    ConvergenceError,
    DomainError,
    bernoulli,
    bernoulli_table,
    digamma,
    log_gamma,
    neville_zero,
)
from zetalim.special import HARMONIC

from oracles import one_order_log_gamma

XS = (0.1, 0.25, 0.5, 1.0, 1.5, 3.7, 8.0, 12.5)


def test_bernoulli_small_values_exact():
    assert bernoulli(0) == 1.0
    assert bernoulli(1) == -0.5
    assert bernoulli(2) == pytest.approx(1.0 / 6.0, abs=0.0)
    assert bernoulli(3) == 0.0
    assert bernoulli(4) == pytest.approx(-1.0 / 30.0, abs=0.0)
    assert bernoulli(12) == pytest.approx(-691.0 / 2730.0, rel=1e-16)


def test_bernoulli_against_mpmath():
    for k in range(0, 33):
        assert bernoulli(k) == pytest.approx(float(mp.bernoulli(k)), rel=1e-15, abs=1e-300)


def test_bernoulli_table_covers_order_16():
    table = bernoulli_table()
    assert len(table) == 33
    assert float(table[32]) == pytest.approx(float(mp.bernoulli(32)), rel=1e-15)


def test_bernoulli_floats_are_the_exact_values_rounded():
    # No tolerance: each B_k is the double nearest the exact rational.
    for k in range(33):
        assert bernoulli(k) == float(Fraction(*mp.bernfrac(k))), k


def test_harmonic_floats_are_the_exact_sums_rounded():
    exact = accumulate(Fraction(1, i) for i in range(1, 17))
    assert HARMONIC == tuple(float(h) for h in exact)


def test_bernoulli_table_is_exact():
    table = bernoulli_table()
    for k in range(33):
        assert type(table[k]) is Fraction
        assert table[k] == Fraction(*mp.bernfrac(k)), k


def test_bernoulli_rejects_negative_index():
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-16)


def test_digamma_matches_mpmath():
    for x in XS:
        assert digamma(x) == pytest.approx(float(mp.digamma(x)), rel=1e-14, abs=1e-14)


def test_digamma_at_one_is_minus_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=5e-15)


def test_digamma_recurrence():
    # |psi(1+x) - psi(x) - 1/x| <= 1e-11 across [0.1, 10].
    for k in range(100):
        x = 0.1 + 9.9 * k / 99.0
        assert abs(digamma(1.0 + x) - digamma(x) - 1.0 / x) <= 1e-11, x


def test_digamma_reflection():
    # |psi(1-x) - psi(x) - pi cot(pi x)| <= 1e-10 on a 99-point grid.
    for k in range(1, 100):
        x = k / 100.0
        target = math.pi * math.cos(math.pi * x) / math.sin(math.pi * x)
        assert abs(digamma(1.0 - x) - digamma(x) - target) <= 1e-10, x


def test_digamma_at_half():
    assert digamma(0.5) == pytest.approx(
        -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13
    )


def test_log_gamma_slope_is_digamma():
    # Central difference with step 1e-5 tracks psi to 1e-7.
    h = 1e-5
    for x in (0.3, 0.8, 1.0, 2.5, 7.0):
        slope = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert abs(slope - digamma(x)) <= 1e-7, x


def test_log_gamma_matches_mpmath():
    for x in (0.05, 0.3, 1.0, 2.0, 7.5, 20.0):
        assert log_gamma(x) == pytest.approx(float(mp.loggamma(x)), rel=1e-13, abs=1e-13)


def test_log_gamma_at_half():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


@pytest.mark.parametrize("x", [2.5601e305, 1e306, math.inf])
def test_log_gamma_leaving_binary64_raises(x):
    # ln Gamma(x) exceeds the largest double from x = 2.55998332785e305;
    # Stirling's form is inf above that and inf - inf at inf.
    with pytest.raises(ConvergenceError, match="leaves binary64"):
        log_gamma(x)


def test_log_gamma_is_finite_where_one_stirling_order_overflows():
    # From 2.556348163871691e305 to the edge, (t - 1/2) ln t overflows
    # while ln Gamma(x) is finite: the other order of Stirling's form
    # holds it, at the band's first and last doubles too.
    rng = random.Random(2323)
    xs = [rng.uniform(2.5564e305, 2.5599e305) for _ in range(40)]
    xs += [2.556348163871691e305, 2.5565e305, 2.5599833278516383e305]
    with mp.workdps(30):
        for x in xs:
            assert math.isinf(one_order_log_gamma(x)), x
            want = float(mp.loggamma(mp.mpf(x)))
            assert log_gamma(x) == pytest.approx(want, rel=1e-14), x


def test_log_gamma_keeps_its_bits_below_the_overflow_band():
    # The second order of Stirling's form is taken only where the first
    # overflows: every other x returns what it returned before, bit for bit.
    rng = random.Random(2324)
    xs = [10.0 ** rng.uniform(-300.0, 305.4) for _ in range(2000)]
    xs += [rng.uniform(2.5e305, 2.5563e305) for _ in range(200)]
    xs.append(2.5563481638716906e305)
    for x in xs:
        assert log_gamma(x) == one_order_log_gamma(x), x


def test_log_gamma_stays_finite_just_below_the_binary64_edge():
    with mp.workdps(30):
        want = float(mp.loggamma(mp.mpf(2.5e305)))
    assert log_gamma(2.5e305) == pytest.approx(want, rel=1e-14)


def test_special_reject_nonpositive():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(DomainError):
            digamma(bad)
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_neville_recovers_polynomial_exactly():
    # A cubic sampled on a halving ladder is reproduced at h = 0 up to
    # rounding, and the correction sizes must collapse.
    poly = lambda h: 3.0 - 2.0 * h + h * h - 5.0 * h**3
    hs = [0.5 * 2.0**-k for k in range(6)]
    vs = [poly(h) for h in hs]
    value, corrections = neville_zero(hs, vs)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert corrections[-1] < 1e-12


def test_neville_extrapolates_smooth_function():
    hs = [0.25 * 2.0**-k for k in range(8)]
    vs = [math.cos(h) for h in hs]
    value, _ = neville_zero(hs, vs)
    assert value == pytest.approx(1.0, abs=1e-13)


def test_neville_input_validation():
    with pytest.raises(ValueError):
        neville_zero([], [])
    with pytest.raises(ValueError):
        neville_zero([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        neville_zero([0.1, 0.1], [1.0, 2.0])
