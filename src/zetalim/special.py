"""Foundation special functions: Bernoulli numbers, digamma, log-gamma.

Both psi and ln(Gamma) are computed by recurrence shifts up to a large
argument followed by the divergent asymptotic series truncated at its
optimal useful order.  With the shift threshold 8 and Bernoulli terms
through B_14 the error stays below 1e-14 max(1, |value|) on (0, inf),
well inside the 1e-12 target: an absolute bound where |value| <= 1 and
a relative one beyond (measured against mpmath on 5000 seeded x,
log-uniform over [1e-300, 1e3] and [1e3, 1e300]).

B_0 .. B_32 are integers over one common denominator L = 2 3 5 ... 31:
by von Staudt-Clausen the denominator of B_2k is the product of the
primes p with p - 1 dividing 2k, all at most 31 for 2k <= 32, so each
division in the defining recurrence is exact.  An int/int true division
rounds correctly, so each float B_k, and each HARMONIC entry summed over
lcm(1 .. 16) = 720720, is the double nearest the exact rational.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .result import ConvergenceError, DomainError

# Euler-Mascheroni constant, binary64-correct.
EULER_GAMMA = 0.5772156649015329

_SHIFT_THRESHOLD = 8.0

BERNOULLI_L = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31


def _bernoulli_numerators(count: int) -> tuple[int, ...]:
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, in the integers L B_j:
    # the sum over j < m is -(m + 1) L B_m, so // is exact.
    num = [BERNOULLI_L]
    for m in range(1, count):
        num.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(num)) // (m + 1))
    return tuple(num)


# L B_0, ..., L B_32.
BERNOULLI_NUM = _bernoulli_numerators(33)

# Float copies of B_2, B_4, ..., B_14 used by the asymptotic series.
_B2J = tuple(BERNOULLI_NUM[2 * j] / BERNOULLI_L for j in range(1, 8))

# Harmonic numbers H_1 .. H_16 (used by Stieltjes tail closures).
HARMONIC = tuple(h / 720720 for h in accumulate(720720 // i for i in range(1, 17)))


def bernoulli(k: int) -> float:
    """Bernoulli number B_k from the precomputed table (0 <= k <= 32)."""
    if not 0 <= k < len(BERNOULLI_NUM):
        raise DomainError(f"Bernoulli index {k} outside table")
    return BERNOULLI_NUM[k] / BERNOULLI_L


def bernoulli_table() -> tuple:
    """Exact-rational Bernoulli numbers B_0 .. B_32, as Fractions."""
    from fractions import Fraction

    return tuple(Fraction(n, BERNOULLI_L) for n in BERNOULLI_NUM)


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
    """ln Gamma(x) for real x > 0, error below 1e-14 max(1, |ln Gamma(x)|).

    Above about x = 2.56e305, and at x = inf, ln Gamma(x) leaves
    binary64 and this raises ConvergenceError.
    """
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
    if not math.isfinite(stirl):
        # (t - 1/2) ln t overflows before - t brings it back, from about
        # t = 2.5563e305; this order stays finite up to the edge.
        log_t = math.log(t)
        stirl = t * (log_t - 1.0) - 0.5 * log_t + 0.5 * math.log(2.0 * math.pi)
    value = stirl + tail - shift
    if not math.isfinite(value):
        raise ConvergenceError(f"log_gamma leaves binary64 at x = {x}")
    return value
