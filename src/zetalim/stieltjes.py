"""Generalized Stieltjes constants gamma_0(x), gamma_1(x) and relatives.

gamma_n(x) are the Laurent coefficients of zeta(s, x) about s = 1:
zeta(s, x) = 1/(s-1) + sum_n (-1)^n gamma_n(x) (s-1)^n / n!.

gamma_0(x) = -psi(x).  gamma_1(x) is computed by Euler-Maclaurin
applied to g(t) = ln(t)/t, whose derivatives are
g^{(m)}(t) = (-1)^m m! [ln t - H_m] / t^{m+1}:

    gamma_1(x) = sum_{n=0}^{N} g(n+x) - ln^2(N+x)/2 - g(N+x)/2
                 + sum_{k=1}^{K} B_{2k}/(2k) [ln A - H_{2k-1}] / A^{2k}

with A = N + x, N = 10, K = 8: at A >= 10 the first omitted correction
is below 4e-18.  A finite-difference route through the zeta evaluator
serves as the independent cross-check.
"""
from __future__ import annotations

import math

from .hurwitz import HurwitzQuery, _pole_limit, hurwitz_zeta
from .result import EPS, ConvergenceError, DomainError, EvalResult
from .special import HARMONIC, bernoulli, digamma

_G1_CUTOFF = 10
_G1_ORDER = 8

# (c_k, H_{2k-1}) = (B_{2k} / (2k), HARMONIC[2k-2]) for k = 1 .. 8
_TAIL_TABLE = tuple((bernoulli(2 * k) / (2 * k), HARMONIC[2 * k - 2])
                    for k in range(1, _G1_ORDER + 1))


class StieltjesQuery:
    """Evaluation request: gamma_n(x) for n in {0, 1} at finite x > 0."""

    __slots__ = ("n", "x")

    def __init__(self, n: int, x: float) -> None:
        if n not in (0, 1):
            raise DomainError(f"Stieltjes index must be 0 or 1, got {n}")
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"stieltjes_gamma requires finite x > 0, got {x}")
        self.n = n
        self.x = x

    def __repr__(self) -> str:
        return f"StieltjesQuery(n={self.n!r}, x={self.x!r})"


def _tail_closure(a: float) -> tuple[float, float]:
    """Closed tail past the cutoff: value and truncation estimate.

    The estimate bounds the last correction's magnitude,
    |c_K| (|ln A| + H_{2K-1}) / A^{2K}, so it does not vanish where the
    correction's own factor ln A - H_{2K-1} does (A = 27.6 for K = 8).
    """
    lga = math.log(a)
    pieces = [-0.5 * lga * lga, -0.5 * (lga / a)]
    inv2 = 1.0 / (a * a)
    p = 1.0
    for c, h in _TAIL_TABLE:
        p *= inv2
        pieces.append(c * (lga - h) * p)
    trunc = abs(c) * (abs(lga) + h) * p
    return math.fsum(pieces), trunc


def stieltjes_gamma(q: StieltjesQuery) -> EvalResult:
    """gamma_n(x) for n in {0, 1}.

    gamma_1 sums the 11-term head n = 0 .. 10 and the closed tail at
    A = 10 + x (19 terms).  err_estimate is the tail's truncation bound
    plus eps (1 + sum |head| + |tail|), the rounding of a head and tail
    that cancel.
    Where the value leaves binary64 (x below 5.56e-309 for n = 0, below
    about 3.9e-306 for n = 1, where ln(x)/x overflows) this raises
    ConvergenceError.
    """
    if q.n == 0:
        value = -digamma(q.x)
        # digamma's error, relative where |psi| > 1: at most 9 ulps of
        # max(1, |psi|) on 2,085 x over [1e-9, 1e12] against mpmath.
        return EvalResult(
            value=value,
            err_estimate=32.0 * EPS * max(1.0, abs(value)),
            terms_used=1,
            method_tag="digamma",
        )
    x = q.x
    head = [math.log(t) / t for n in range(_G1_CUTOFF + 1) for t in [n + x]]
    tail, trunc = _tail_closure(_G1_CUTOFF + x)
    value = math.fsum(head) + tail
    if not math.isfinite(value):
        raise ConvergenceError(f"gamma_1 leaves binary64 at x = {x}")
    # The tail closure (about -ln^2(10 + x)/2) cancels against the head,
    # so rounding scales with both.
    err = trunc + EPS * (1.0 + math.fsum(map(abs, head)) + abs(tail))
    return EvalResult(
        value=value,
        err_estimate=err,
        terms_used=_G1_CUTOFF + 1 + _G1_ORDER,
        method_tag="gamma1-em",
    )


def gamma1_finite_difference(x: float) -> EvalResult:
    """gamma_1(x) as the limit of (1 - h O(h))/h^2 as h -> 0.

    h O(h) = h [zeta(1+h, x) - zeta(1-h, x)]/2 = 1 - gamma_1(x) h^2 -
    gamma_3(x) h^4/6 - ...: the "gamma1" part of `_pole_limit`,
    extrapolated in h^2 over ten zeta samples.  Independent of the
    series route above.
    Dividing by h^2 magnifies rounding by up to 1/h^2 = 4096, and
    err_estimate includes it; a limit without a significant digit (x
    above about 2e46) raises ConvergenceError.
    """
    return _pole_limit(x, "gamma1")


def gamma1_reflection_diff(x: float) -> EvalResult:
    """gamma_1(1-x) - gamma_1(x) as one paired series, 0 < x < 1.

    Summand pairs ln(n+1-x)/(n+1-x) - ln(n+x)/(n+x) share a tail
    closure, so the cancellation between the two separate gamma_1
    series never materializes.  The head runs over n = 0 .. 10 and the
    two tails close at 11 - x and 10 + x (19 terms).  err_estimate is
    both tails' truncation bounds plus eps (1 + the sum of every
    magnitude subtracted).  Below x = 3.9e-306, where ln(x)/x
    overflows, this raises ConvergenceError.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"gamma1_reflection_diff requires 0 < x < 1, got {x}")
    head = []
    size = 0.0
    for n in range(_G1_CUTOFF + 1):
        hi, lo = math.log(t := n + 1.0 - x) / t, math.log(u := n + x) / u
        head.append(hi - lo)
        size += abs(hi) + abs(lo)
    tail_hi, trunc_hi = _tail_closure(_G1_CUTOFF + 1.0 - x)
    tail_lo, trunc_lo = _tail_closure(_G1_CUTOFF + x)
    value = math.fsum(head + [tail_hi, -tail_lo])
    if not math.isfinite(value):
        raise ConvergenceError(
            f"gamma_1 reflection difference leaves binary64 at x = {x}"
        )
    # Each head pair, like the tail pair, is a difference of nearly equal
    # terms, so rounding scales with the terms subtracted, not with the
    # differences.
    size += abs(tail_hi) + abs(tail_lo)
    err = trunc_hi + trunc_lo + EPS * (1.0 + size)
    return EvalResult(
        value=value,
        err_estimate=err,
        terms_used=_G1_CUTOFF + 1 + _G1_ORDER,
        method_tag="refl-series",
    )


def integral_gamma(n: int, u: float) -> EvalResult:
    """integral_1^u gamma_n(x) dx via the s = 0 derivatives of zeta.

    d/dx zeta^{(n+1)}(0, x) = (-1)^{n+1} (n+1) gamma_n(x), hence the
    integral equals (-1)^{n+1}/(n+1) [zeta^{(n+1)}(0, u) -
    zeta^{(n+1)}(0, 1)].
    """
    if n not in (0, 1):
        raise DomainError(f"integral_gamma index must be 0 or 1, got {n}")
    sign = -1.0 if n == 0 else 1.0
    at_u = hurwitz_zeta(HurwitzQuery(0.0, u, n + 1))
    at_1 = hurwitz_zeta(HurwitzQuery(0.0, 1.0, n + 1))
    value = sign / (n + 1) * (at_u.value - at_1.value)
    return EvalResult(
        value=value,
        err_estimate=(at_u.err_estimate + at_1.err_estimate) / (n + 1) + 1e-16,
        terms_used=at_u.terms_used + at_1.terms_used,
        method_tag="zeta-deriv-integral",
    )
