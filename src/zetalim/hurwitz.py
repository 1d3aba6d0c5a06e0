"""Hurwitz zeta zeta(s, x) and its first two s-derivatives.

The primary evaluator is Euler-Maclaurin with every term differentiated
analytically in s, so the m = 1, 2 outputs carry no finite-difference
noise.  An independent route sums the globally convergent binomial
double series; the two routes share no code beyond float arithmetic and
are used as mutual oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .extrapolate import neville_zero
from .result import ConvergenceError, DomainError, EvalResult, PoleError
from .special import bernoulli

_POLE_RADIUS = 1e-8
_EM_CUTOFF = 30
_EM_ORDER = 12

# B_{2k} / (2k)! for k = 1 .. 12
_EM_COEF = tuple(
    bernoulli(2 * k) / math.factorial(2 * k) for k in range(1, _EM_ORDER + 1)
)


@dataclass(frozen=True)
class HurwitzQuery:
    """Evaluation request: d^m/ds^m zeta(s, x) at real s, x > 0."""

    s: float
    x: float
    m: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and math.isfinite(self.x)):
            raise DomainError(
                f"hurwitz_zeta requires finite s and x, got s = {self.s}, x = {self.x}"
            )
        if not self.x > 0.0:
            raise DomainError(f"hurwitz_zeta requires x > 0, got {self.x}")
        if self.m not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {self.m}")


def hurwitz_zeta(q: HurwitzQuery) -> EvalResult:
    """Euler-Maclaurin evaluation of d^m/ds^m zeta(s, x).

    Direct sum to n = N-1 with N + x >= 30; pole, boundary and 12
    Bernoulli correction pairs appended, each differentiated in closed
    form.  err_estimate is the magnitude of the final correction term
    for the requested derivative order (truncation estimate; rounding
    of the direct sum is not included).
    """
    s, x, m = q.s, q.x, q.m
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError(
            f"s = {s} is within {_POLE_RADIUS} of the pole; "
            "use the Stieltjes expansion instead"
        )
    n_cut = _EM_CUTOFF
    while n_cut + x < 30.0:
        n_cut += 1

    v0: list[float] = []
    v1: list[float] = []
    v2: list[float] = []
    for n in range(n_cut):
        t = (n + x) ** (-s)
        v0.append(t)
        if m >= 1:
            lg = math.log(n + x)
            v1.append(-lg * t)
            if m >= 2:
                v2.append(lg * lg * t)

    a = n_cut + x
    lga = math.log(a)
    pw = a ** (-s)  # a^{-s}

    # Pole piece a^{1-s}/(s-1) and boundary piece a^{-s}/2.
    sm1 = s - 1.0
    pole0 = pw * a / sm1
    v0.append(pole0)
    v0.append(0.5 * pw)
    if m >= 1:
        v1.append(-pw * a * (lga / sm1 + 1.0 / sm1**2))
        v1.append(-0.5 * lga * pw)
        if m >= 2:
            v2.append(pw * a * (lga**2 / sm1 + 2.0 * lga / sm1**2 + 2.0 / sm1**3))
            v2.append(0.5 * lga * lga * pw)

    # Bernoulli corrections c_k * P_k(s) * a^{-s-2k+1} with the rising
    # product P_k(s) = s (s+1) ... (s+2k-2) and its s-derivatives
    # propagated by the product rule.
    p, dp, ddp = 1.0, 0.0, 0.0
    j = 0
    last = (0.0, 0.0, 0.0)
    for k in range(1, _EM_ORDER + 1):
        while j <= 2 * k - 2:
            f = s + j
            ddp = ddp * f + 2.0 * dp
            dp = dp * f + p
            p = p * f
            j += 1
        e = a ** (-s - 2 * k + 1)
        c = _EM_COEF[k - 1]
        t0 = c * p * e
        t1 = c * (dp - lga * p) * e
        t2 = c * (ddp - 2.0 * lga * dp + lga * lga * p) * e
        v0.append(t0)
        if m >= 1:
            v1.append(t1)
            if m >= 2:
                v2.append(t2)
        last = (t0, t1, t2)

    value = math.fsum((v0, v1, v2)[m])
    err = abs(last[m]) + 1e-18
    return EvalResult(
        value=value,
        err_estimate=err,
        terms_used=n_cut + _EM_ORDER + 2,
        method_tag="em",
    )


def hurwitz_hasse(s: float, x: float, max_terms: int = 200) -> EvalResult:
    """Globally convergent binomial double-series route for zeta(s, x).

    (s-1) zeta(s, x) = sum_{n>=0} 1/(n+1) sum_{k=0}^{n} C(n,k) (-1)^k
    (k+x)^{1-s}.  The argument is first raised by an exact integer
    shift until k + x >= 20, which makes the outer terms decay about
    like n^{-21} so plain truncation converges; the inner alternating
    binomial sums are formed as a forward-difference table in 80-digit
    arithmetic to absorb their 2^n cancellation.
    """
    import mpmath as mp

    if not x > 0.0:
        raise DomainError(f"hurwitz_hasse requires x > 0, got {x}")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_hasse is undefined at s = 1")
    with mp.workdps(80):
        ss, xx = mp.mpf(s), mp.mpf(x)
        shift = max(0, int(mp.ceil(20.0 - xx)))
        x_eff = xx + shift
        prefix = mp.fsum((j + xx) ** (-ss) for j in range(shift))
        table_len = min(80, max_terms)
        acc = mp.mpf(0)
        last = mp.inf
        outer_used = 0
        while True:
            f = [(k + x_eff) ** (1 - ss) for k in range(table_len + 1)]
            acc = mp.mpf(0)
            small_run = 0
            converged = False
            d = f
            for n in range(table_len + 1):
                t = d[0] / (n + 1)
                acc += t
                outer_used = n + 1
                last = abs(t)
                if last < mp.mpf(10) ** -30 * (1 + abs(acc)):
                    small_run += 1
                    if small_run >= 3:
                        converged = True
                        break
                else:
                    small_run = 0
                d = [d[i] - d[i + 1] for i in range(len(d) - 1)]
            if converged or table_len >= max_terms:
                break
            table_len = min(max_terms, 2 * table_len)
        value = prefix + acc / (ss - 1)
        err = float(last / abs(ss - 1)) + 1e-16 * abs(float(value))
    if err > 1e-8:
        raise ConvergenceError(
            f"binomial series stalled at {outer_used} outer terms "
            f"(err_estimate {err:.2e})"
        )
    return EvalResult(
        value=float(value),
        err_estimate=err,
        terms_used=shift + outer_used,
        method_tag="hasse",
    )


def pole_residue_check(x: float, h: float = 0.25) -> float:
    """Residue of zeta(s, x) at s = 1 by extrapolating (s-1) zeta(s, x).

    Samples h_k = h 2^{-k} for k = 0..6 and returns the Neville limit
    at h = 0; the exact residue is 1 for every x > 0.
    """
    if not 0.0 < h <= 0.25:
        raise DomainError(f"step must satisfy 0 < h <= 0.25, got {h}")
    hs = [h * 2.0**-k for k in range(7)]
    vs = [hk * hurwitz_zeta(HurwitzQuery(1.0 + hk, x)).value for hk in hs]
    value, _ = neville_zero(hs, vs)
    return value
