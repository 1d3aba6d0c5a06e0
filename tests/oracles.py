"""Independent reference routes used by the tests.

Everything here is computed by mpmath (or plain quadrature) through
representations that share no code with the package: the package sums
real series with Euler-Maclaurin closures and Euler transforms, while
these oracles go through mpmath's zeta, polylog and high-precision
finite differences.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp

mp.mp.dps = 40

# Frozen reference constants.  The decimal digits were produced by the
# same high-precision routes defined below (dps >= 50) and by direct
# alternating-series evaluation, before the package code existed.
GAMMA1_AT_1 = -0.072815845483676725
CATALAN = 0.9159655941772190
HALF_LOG_HALF_PI = 0.22579135264472744
ZETA2_AT_HALF = -1.5141458137565219
ETA_PRIME_AT_1 = 0.15986890374243098
K_LOG_COS_LIMIT_AT_03 = 0.026909421680922271


def mp_zeta(s: float, x: float, m: int = 0) -> float:
    """Hurwitz zeta or an s-derivative, via mpmath."""
    return float(mp.zeta(s, x, m))


def mp_gamma1(x: float) -> float:
    """gamma1(x) from high-precision central differences of the
    pole-subtracted product h * zeta(1+h, x), Richardson-corrected."""
    with mp.workdps(60):
        def f(h):
            return h * mp.zeta(1 + h, x)

        def second(h):
            return (-f(2 * h) + 16 * f(h) - 30 + 16 * f(-h) - f(-2 * h)) / (12 * h**2)

        h = mp.mpf(1) / 256
        coarse = second(h)
        fine = second(h / 4)
        return float(-((256 * fine - coarse) / 255) / 2)


def mp_weighted_sum(x: float, s: float, weight: str, trig: str) -> float:
    """sum_{n>=1} w(n) trig(2 n pi x) n^(s-1) through mpmath polylog.

    With sigma = 1 - s and z = e^(2 pi i x) the unit-weight sum is the
    polylog Li_sigma(z); a ln(n) factor is minus the order-derivative.
    """
    sigma = mp.mpf(1) - mp.mpf(s)
    z = mp.exp(2j * mp.pi * mp.mpf(x))
    unit = mp.polylog(sigma, z)
    if weight == "unit":
        total = unit
    else:
        logn = _mp_log_weighted_polylog(x, s)
        if weight == "log_n":
            total = logn
        elif weight == "log_2pi_n":
            total = mp.log(2 * mp.pi) * unit + logn
        else:
            total = (mp.euler + mp.log(2 * mp.pi)) * unit + logn
    part = mp.im(total) if trig == "sine" else mp.re(total)
    return float(part)


@functools.lru_cache(maxsize=None)
def _mp_log_weighted_polylog(x: float, s: float):
    """sum ln(n) z^n n^(s-1) = -d/dsigma Li_sigma(z), sigma = 1 - s.

    Cached: the weight and trig variants at one (x, s) share it.
    """
    sigma = mp.mpf(1) - mp.mpf(s)
    z = mp.exp(2j * mp.pi * mp.mpf(x))
    # Central difference with an explicit step: mp.diff's default
    # step straddles the integer order sigma = 1, where polylog
    # switches expansions and loses digits.
    with mp.workdps(60):
        h = mp.mpf(10) ** -12
        return -(mp.polylog(sigma + h, z) - mp.polylog(sigma - h, z)) / (2 * h)


def quad_integral_gamma0(u: float) -> float:
    """Quadrature of -digamma over [1, u], the n = 0 Stieltjes integral."""
    return float(mp.quad(lambda t: -mp.digamma(t), [1, u]))


def psi_formula_target(x: float) -> float:
    """psi(x) + (pi/2) cot(pi x) + gamma + ln(2 pi), evaluated by mpmath."""
    pix = mp.pi * mp.mpf(x)
    val = mp.digamma(x) + mp.pi / 2 * mp.cos(pix) / mp.sin(pix) + mp.euler + mp.log(2 * mp.pi)
    return float(val)


def brute_partial_trig(x: float, s: float, trig: str, terms: int) -> float:
    """Plain partial sum of the unit-weight series, for coarse checks."""
    acc = 0.0
    fn = math.sin if trig == "sine" else math.cos
    for n in range(1, terms + 1):
        acc += fn(2.0 * math.pi * n * x) * n ** (s - 1.0)
    return acc
