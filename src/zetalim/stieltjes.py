"""Generalized Stieltjes constants gamma_0(x), gamma_1(x) and relatives.

gamma_n(x) are the Laurent coefficients of zeta(s, x) about s = 1:
zeta(s, x) = 1/(s-1) + sum_n (-1)^n gamma_n(x) (s-1)^n / n!.

gamma_0(x) = -psi(x).  gamma_1(x) is computed by Euler-Maclaurin
applied to g(t) = ln(t)/t, whose derivatives are
g^{(m)}(t) = (-1)^m m! [ln t - H_m] / t^{m+1}:

    gamma_1(x) = sum_{n=0}^{N} g(n+x) - ln^2(N+x)/2 - g(N+x)/2
                 + sum_{k=1}^{K} B_{2k}/(2k) [ln A - H_{2k-1}] / A^{2k}

with A = N + x, N = 50, K = 8.  A finite-difference route through the
zeta evaluator serves as the independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .extrapolate import neville_zero
from .hurwitz import HurwitzQuery, hurwitz_zeta
from .result import DomainError, EvalResult
from .special import HARMONIC, bernoulli

_G1_CUTOFF = 50
_G1_ORDER = 8
_FD_STEPS = (0.125, 0.0625, 0.03125, 0.015625)


@dataclass(frozen=True)
class StieltjesQuery:
    n: int
    x: float

    def __post_init__(self) -> None:
        if self.n not in (0, 1):
            raise DomainError(f"Stieltjes index must be 0 or 1, got {self.n}")
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise DomainError(f"stieltjes_gamma requires finite x > 0, got {self.x}")


def _g(t: float) -> float:
    return math.log(t) / t


def _tail_closure(a: float) -> tuple[float, float]:
    """Closed tail past the cutoff: value and last correction term."""
    lga = math.log(a)
    pieces = [-0.5 * lga * lga, -0.5 * _g(a)]
    inv2 = 1.0 / (a * a)
    p = inv2
    last = 0.0
    for k in range(1, _G1_ORDER + 1):
        last = bernoulli(2 * k) / (2 * k) * (lga - HARMONIC[2 * k - 2]) * p
        pieces.append(last)
        p *= inv2
    return math.fsum(pieces), last


def stieltjes_gamma(q: StieltjesQuery) -> EvalResult:
    """gamma_n(x) for n in {0, 1}."""
    if q.n == 0:
        from .special import digamma

        return EvalResult(
            value=-digamma(q.x),
            err_estimate=1e-13,
            terms_used=1,
            method_tag="digamma",
        )
    x = q.x
    head = [_g(n + x) for n in range(_G1_CUTOFF + 1)]
    tail, last = _tail_closure(_G1_CUTOFF + x)
    value = math.fsum(head) + tail
    err = abs(last) + 1e-16 * (1.0 + math.fsum(abs(t) for t in head))
    return EvalResult(
        value=value,
        err_estimate=err,
        terms_used=_G1_CUTOFF + 1 + _G1_ORDER,
        method_tag="gamma1-em",
    )


def gamma1_finite_difference(x: float) -> EvalResult:
    """gamma_1(x) as -1/2 d^2/ds^2 [(s-1) zeta(s, x)] at s = 1.

    Central second differences of F(h) = h zeta(1+h, x), which is
    entire in h with F(0) = 1, extrapolated in h^2.  Independent of the
    series route above.
    """
    if not x > 0.0:
        raise DomainError(f"gamma1_finite_difference requires x > 0, got {x}")
    nodes = []
    for h in _FD_STEPS:
        fplus = h * hurwitz_zeta(HurwitzQuery(1.0 + h, x)).value
        fminus = -h * hurwitz_zeta(HurwitzQuery(1.0 - h, x)).value
        nodes.append((h * h, (fplus - 2.0 + fminus) / (h * h)))
    hs = [n[0] for n in nodes]
    vs = [n[1] for n in nodes]
    second, corrections = neville_zero(hs, vs)
    return EvalResult(
        value=-0.5 * second,
        err_estimate=0.5 * corrections[-1] + 1e-12,
        terms_used=len(nodes),
        method_tag="gamma1-fd",
    )


def gamma1_reflection_diff(x: float) -> EvalResult:
    """gamma_1(1-x) - gamma_1(x) as one paired series, 0 < x < 1.

    Summand pairs ln(n+1-x)/(n+1-x) - ln(n+x)/(n+x) share a tail
    closure, so the cancellation between the two separate gamma_1
    series never materializes.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"gamma1_reflection_diff requires 0 < x < 1, got {x}")
    head = [
        _g(n + 1.0 - x) - _g(n + x) for n in range(_G1_CUTOFF + 1)
    ]
    tail_hi, last_hi = _tail_closure(_G1_CUTOFF + 1.0 - x)
    tail_lo, last_lo = _tail_closure(_G1_CUTOFF + x)
    value = math.fsum(head + [tail_hi, -tail_lo])
    err = abs(last_hi) + abs(last_lo) + 1e-16 * (1.0 + math.fsum(abs(t) for t in head))
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
    if not u > 0.0:
        raise DomainError(f"integral_gamma requires u > 0, got {u}")
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
