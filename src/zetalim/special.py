"""Foundation special functions: Bernoulli numbers, digamma, log-gamma.

Both psi and ln(Gamma) are computed by recurrence shifts up to a large
argument followed by the divergent asymptotic series truncated at its
optimal useful order.  With the shift threshold 8 and Bernoulli terms
through B_14 the error stays below 1e-14 max(1, |value|) on (0, inf),
well inside the 1e-12 target: an absolute bound where |value| <= 1 and
a relative one beyond (measured against mpmath on 5000 seeded x,
log-uniform over [1e-300, 1e3] and [1e3, 1e300]).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Tuple

from .result import ConvergenceError, DomainError

# Euler-Mascheroni constant, binary64-correct.
EULER_GAMMA = 0.5772156649015329

_SHIFT_THRESHOLD = 8.0


def _bernoulli_fractions(count: int) -> Tuple[Fraction, ...]:
    # Defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1,
    # solved exactly: the sum is taken in integers over the lcm L of the
    # denominators so far, and B_m = -sum / ((m + 1) L) is reduced once.
    vals = [Fraction(1)]
    lcm = 1
    for m in range(1, count):
        acc = sum(
            math.comb(m + 1, j) * b.numerator * (lcm // b.denominator)
            for j, b in enumerate(vals)
        )
        vals.append(Fraction(-acc, (m + 1) * lcm))
        lcm = math.lcm(lcm, vals[-1].denominator)
    return tuple(vals)


# Exact-rational Bernoulli numbers B_0 .. B_32.
_TABLE = _bernoulli_fractions(33)

# Float copies of B_2, B_4, ..., B_14 used by the asymptotic series.
_B2J = tuple(float(_TABLE[2 * j]) for j in range(1, 8))

# Harmonic numbers H_1 .. H_16 (used by Stieltjes tail closures).
HARMONIC = tuple(float(h) for h in accumulate(Fraction(1, i) for i in range(1, 17)))


def bernoulli(k: int) -> float:
    """Bernoulli number B_k from the precomputed table (0 <= k <= 32)."""
    if not 0 <= k < len(_TABLE):
        raise DomainError(f"Bernoulli index {k} outside table")
    return float(_TABLE[k])


def bernoulli_table() -> Tuple[Fraction, ...]:
    """Exact-rational Bernoulli numbers B_0 .. B_32."""
    return _TABLE


def cot_pi(x: float) -> float:
    """cot(pi x), taken as -cot(pi (1 - x)) for x > 1/2.

    1 - x is exact there, while pi x next to pi carries a rounding error
    that cot magnifies (4e-13 absolute in pi cot(pi x) at x = 0.989).
    """
    t = math.pi * (1.0 - x if x > 0.5 else x)
    c = math.cos(t) / math.sin(t)
    return -c if x > 0.5 else c


def digamma(x: float) -> float:
    """Digamma psi(x) for real x > 0, error below 1e-14 max(1, |psi(x)|).

    The bound is relative to |psi| where |psi| > 1: at x = 1e-9, psi is
    about -1e9 and one ulp of it is 1.2e-7.

    Below x = 5.56e-309, psi(x) ~ -1/x leaves binary64 and this raises
    ConvergenceError.
    """
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    t = x
    while t < _SHIFT_THRESHOLD:
        shift += 1.0 / t
        t += 1.0
    inv2 = 1.0 / (t * t)
    # psi(t) ~ ln t - 1/(2t) - sum B_{2j} / (2j t^{2j})
    tail = 0.0
    p = inv2
    for j, b in enumerate(_B2J, start=1):
        tail += b / (2 * j) * p
        p *= inv2
    value = math.log(t) - 0.5 / t - tail - shift
    if not math.isfinite(value):
        raise ConvergenceError(f"digamma leaves binary64 at x = {x}")
    return value


def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0, error below 1e-14 max(1, |ln Gamma(x)|)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    t = x
    while t < _SHIFT_THRESHOLD:
        shift += math.log(t)
        t += 1.0
    inv = 1.0 / t
    inv2 = inv * inv
    tail = 0.0
    p = inv
    for j, b in enumerate(_B2J, start=1):
        tail += b / ((2 * j) * (2 * j - 1)) * p
        p *= inv2
    stirl = (t - 0.5) * math.log(t) - t + 0.5 * math.log(2.0 * math.pi)
    return stirl + tail - shift
