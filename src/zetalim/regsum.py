"""Weighted trigonometric Dirichlet series and their regularized limits.

A series here is sum_{n>=1} w(n) trig(angle_n) n^{s-1} with weight
w(n) in {1, ln n, ln 2pi n, gamma + ln 2pi n}, optionally rescaled to
the (2 pi n)^{s-1} normalization.  Parities:

    all_n        trig(2 n pi x), every n
    alternating  (-1)^{n+1} trig(n pi x)
    odd_only     trig(n pi x), odd n only (unit weight)

Everything reduces to the master sum M(y, s, w) = sum w(n) z^n n^{s-1}
with z = e^{2 pi i y}: the alternating series is -M((x+1)/2, s, w) and
the odd-index series is M(x/2, s, w) - 2^{s-1} M(x, s, w).

M is summed head-first with the tail accelerated by an iterated Euler
transform on the forward differences of the coefficient sequence; on
the unit circle away from z = 1 that converges geometrically, for s < 1
and beyond.  Next to z = 1 its ratio z/(1-z) grows like 1/(2 pi y) and
so does its rounding, so there the square relation M(y) = 2^s M(2y) -
M(y + 1/2) moves M to phases at least 1/4 from an integer.  Euler
summation is regular and its value is analytic in s (Hardy, Divergent
Series, ch. 8), so a regularized limit s -> s* in {0, 1} is the
Euler-summed series evaluated once at s = s*.  At those s, within 1/13
of an integer phase, every M is the polylogarithm's expansion about z =
1 instead (tag "series-at-one"), for the unit weight the closed form
z/(1 - z) or -ln(1 - z); a log-weighted M takes it at every phase,
where it converges too.  Away from there the unit weight stays
Euler-summed, so that the identities that compare it with a closed form
check summation.  Heads have 64 terms or more, but 8 for the unit
weight at s = 1, where the tail z^N/(1 - z) is the exact remainder: a
directly summed head plus that remainder still meets the closed form.
"""
from __future__ import annotations

import cmath
import functools
import math
from itertools import accumulate, islice
from operator import sub
from typing import Tuple

from .result import EPS, EULER_GAMMA, ConvergenceError, DomainError, EvalResult

TRIG_KINDS = ("sine", "cosine")
WEIGHT_KINDS = ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
PARITY_KINDS = ("all_n", "alternating", "odd_only")
SCALE_KINDS = ("n_power", "two_pi_n_power")

_TWO_PI = 2.0 * math.pi
_HEAD_START = 64
# The unit weight's head at s = 1, where the tail is exact (_plain_sum).
_UNIT_ONE_HEAD = 8
_HEAD_CAP = 32768
_SWEEPS = 40
_ENGINE_TARGET = 5e-12
# An adaptive master sum whose best error stays above this raises.
_EDGE_ERR = 1e-8
# The edge band: phases within 1/13 of an integer, where |z/(1-z)|
# passes 2 and a plain call's error grows with it.  It is the set where
# round(1/(2|y|)) >= 7, float for float.
_BAND = 1.0 / 13.0
_LN2 = math.log(2.0)
# Rounding of one tail offset relative to its size: 4 ulps.
_OFFSET_ROUNDING = 4.0 * EPS
# Rounding of a computed phase e^(2 pi i t), t in [0, 1): at most about
# 3 ulps, measured against mpmath.
_RATIO_ROUNDING = 8.0 * EPS
# zeta'(-k)/k!, k = 0..63, and gamma_1: float() of 50-digit mpmath; at
# s = 0 term k is zeta'(-k)/k! mu^(k+1)/(k+1).
_DZETA = (
    -0.9189385332046728, -0.16542114370045094, -0.015224228529196636, 0.0008964293929623836,
    0.00033265881042785937, -4.77488316832196e-06, -8.194109921549913e-06, -1.4457196034905568e-07,
    2.0625401750005574e-07, 8.62584137948791e-09, -5.216580229866726e-09, -3.194891494299808e-10,
    1.3208845929003786e-10, 1.0237620170560034e-11, -3.345531562149655e-12, -3.061307253578634e-13,
    8.474135956008394e-14, 8.796052615274715e-15, -2.146511416214089e-15, -2.463356907157168e-16,
    5.437169152708772e-17, 6.777537816775303e-18, -1.3772505428797003e-18, -1.8408712209370517e-19,
    3.488616067476029e-20, 4.9516489186039865e-21, -8.836767533232302e-22, -1.321865097598184e-22,
    2.238379352590015e-23, 3.5075269614869685e-24, -5.669881128203945e-25, -9.261478431781183e-26,
    1.4361976670508546e-26, 2.435530167719261e-27, -3.6379311889312843e-28, -6.382995741654425e-29,
    9.214987351596228e-30, 1.66800149915793e-30, -2.3341835642695153e-31, -4.34797618768453e-32,
    5.912556039248886e-33, 1.1309433084106164e-33, -1.4976679406203633e-34, -2.9361323926909516e-35,
    3.7936372111706175e-36, 7.610085220398393e-37, -9.609395313635403e-38, -1.9695387351505064e-38,
    2.4340882681616686e-39, 5.090611615956851e-40, -6.1656176105017e-41, -1.3142103095460972e-41,
    1.561769185455186e-42, 3.3892210911868423e-43, -3.9560075611612285e-44, -8.732102308477087e-45,
    1.002068421487234e-45, 2.2478102603331534e-46, -2.5382689638923893e-47, -5.781701256499983e-48,
    6.429510395604679e-49, 1.4860588997861486e-49, -1.6286140088084538e-50, -3.8170387386007074e-51)
_GAMMA1 = -0.07281584548367673
_DZETA_S0 = tuple([t / (j + 1) for j, t in enumerate(_DZETA)])
_S0_CONST = math.pi**2 / 12.0 + _GAMMA1
# The identity catalogue's memo: None, or while one of its cases runs,
# that catalogue's _Memo, which registry() makes once per catalogue.  A
# function looked up in it gets its own functools.cache copy: results
# keyed by the exact arguments, nothing stored for a call that raises,
# kept as long as the catalogue.  So a quantity that several cases share
# is computed once per catalogue and each report keeps its bits, while
# an engine called outside a case's points never sees the memo.  Three
# functions go through it: _series_sum's _master_sum_adaptive (the sine
# and cosine of a series share one complex sum), _master_sum's
# _head_angles (36 angle lists serve the 76 plain master sums of
# verify_all()) and identities._zeta_value (Hurwitz zeta values).  Each
# is looked up at call time, so a rebound _master_sum_adaptive takes
# effect at once under a cache of its own, while rebinding the
# hurwitz_zeta behind _zeta_value leaves the values it holds.
_memo = None


class _Memo(dict):
    """Maps a function to its functools.cache copy, made on first lookup."""

    __slots__ = ()

    def __missing__(self, fn):
        cached = self[fn] = functools.cache(fn)
        return cached


class TrigSeriesSpec:
    """One weighted trigonometric Dirichlet series at fixed real s."""

    __slots__ = ("x", "trig", "weight", "parity", "s", "scale")

    def __init__(self, x: float, trig: str, weight: str, parity: str = "all_n",
                 s: float = 0.0, scale: str = "n_power") -> None:
        if not 0.0 < x < 1.0:
            raise DomainError(f"x must lie in (0, 1), got {x}")
        if not math.isfinite(s):
            raise DomainError(f"s must be finite, got {s}")
        for name, kind, kinds in (("trig", trig, TRIG_KINDS), ("weight", weight, WEIGHT_KINDS),
                                  ("parity", parity, PARITY_KINDS), ("scale", scale, SCALE_KINDS)):
            if kind not in kinds:
                raise DomainError(f"{name} must be one of {kinds}")
        if parity == "odd_only" and weight != "unit":
            raise DomainError("odd_only parity is defined for unit weight only")
        self.x = x
        self.trig = trig
        self.weight = weight
        self.parity = parity
        self.s = s
        self.scale = scale

    def __repr__(self) -> str:
        return (f"TrigSeriesSpec(x={self.x!r}, trig={self.trig!r}, weight={self.weight!r}, "
                f"parity={self.parity!r}, s={self.s!r}, scale={self.scale!r})")


# w(n) of each log weight at a float n.
_LOG_WEIGHTS = {
    "log_n": math.log,
    "log_2pi_n": lambda n: math.log(_TWO_PI * n),
    "gamma_plus_log_2pi_n": lambda n: EULER_GAMMA + math.log(_TWO_PI * n),
}


def _differences(d):
    """Delta^k d[0] for k = 1, ..., len(d) - 1, one per step, lazily.

    Keeps the anti-diagonal D^j d[k-j], j = 0..k, and extends it by one
    entry per step, D^(j+1) d[k-j] = D^j d[k+1-j] - D^j d[k-j]: step k
    takes k subtractions, each the same subtraction of the same
    operands as in the full difference table.
    """
    diag = d[:1]
    for x in islice(d, 1, None):
        diag = list(accumulate(diag, sub, initial=x))
        yield diag[-1]


@functools.cache
def _head_ns(n_direct: int) -> Tuple[float, ...]:
    """The head's n = 1, ..., n_direct - 1 as floats."""
    return tuple([float(n) for n in range(1, n_direct)])


@functools.lru_cache(maxsize=64)
def _plain_tables(s: float, weight: str, n_direct: int):
    """The y-independent part of a plain master sum of n_direct terms:
    the head's coefficients c(n), n < N, their sum
    (every weight is >= 0 for n >= 1, so that is sum |c|), the tail's
    forward differences Delta^k d[0], k >= 1, of the offsets d(j) =
    c(N + j) - c(N), their rounding floor and c(N).

    The differences run up to and including the first sweep k at which
    |Delta^k d[0]| sinks below the floor doubled k times, where the
    transform stops whatever y is, or to sweep _SWEEPS - 1."""
    e = s - 1.0
    n0 = float(n_direct)
    ns = _head_ns(n_direct)
    # c(N + j) = p (w0 + l_j)(1 + e_j), l_j = log(1 + j/N), e_j = (1 + j/N)^(s-1) - 1.
    lj = [math.log1p(j / n0) for j in range(_SWEEPS + 2)]
    ej = [math.expm1(e * l) for l in lj]
    p = n0 ** e
    if weight == "unit":
        coeff = tuple([n ** e for n in ns])
        w0 = 1.0
        offsets, size = ej, [abs(x) for x in ej]
    else:
        w = _LOG_WEIGHTS[weight]
        coeff = tuple([w(n) * n ** e for n in ns])
        w0 = w(n0)
        a = [w0 * x for x in ej]
        b = [l * (1.0 + x) for l, x in zip(lj, ej)]
        offsets = [u + v for u, v in zip(a, b)]
        size = [abs(u) + abs(v) for u, v in zip(a, b)]
    floor = _OFFSET_ROUNDING * p * max(size)
    diffs = []
    bound = floor
    for delta in islice(_differences([p * o for o in offsets]), _SWEEPS - 1):
        diffs.append(delta)
        bound *= 2.0
        if abs(delta) <= bound:
            break
    return coeff, math.fsum(coeff), tuple(diffs), floor, p * w0


def _head_angles(y: float, n_direct: int) -> Tuple[float, ...]:
    """2 pi frac(n y) for the head's n < n_direct, y in [-1/2, 1/2].

    y is split so that n*y mod 1 is exact for n up to 2^21, and the
    formula is written out: a call per term would cost a fifth of the
    head."""
    y_hi = round(y * 2**26) / 2**26
    y_lo = y - y_hi
    return tuple([_TWO_PI * (((n * y_hi) % 1.0 + n * y_lo) % 1.0) for n in _head_ns(n_direct)])


def _master_sum(y: float, s: float, weight: str, n_direct: int) -> Tuple[complex, float]:
    """M(y, s, w) = sum_{n>=1} w(n) e^{2 pi i n y} n^{s-1}, y at least
    1/13 from an integer (_plain_sum's and _halved_sum's phases).

    A head of n_direct terms, c(n) z^n added in order of n; the remainder
    is an iterated Euler transform, which also sums the divergent series
    at s >= 1 (to the analytic continuation in s).  Returns the value
    and an error estimate: the last transform increment, the rounding
    floor of every forward difference taken, the rounding of the
    transform ratio as magnified by the transform, and the head's
    rounding floor.  The final roundings of head, tail and phases, a few
    ulps of max(1, |M|), are left to the adaptive sum that keeps it.

    Its callers keep it to its domain: phases at least 1/13 from an
    integer, where |z/(1 - z)| <= 2.09, and heads from _HEAD_START, or
    of _UNIT_ONE_HEAD terms for the unit weight at s = 1, whose one
    difference is 0.0, so the transform leaves at once by the floor with
    the exact remainder c(N) z^N/(1 - z).  The
    transform leaves by one of two exits, a difference below the
    rounding floor or an increment below 1e-17 of |tail| + 1.  Term k is
    c(N) mu^k (s - 1)(s - 2)...(s - k)/N^k to first order, so it outgrows
    term k - 1 only where (k - s)|mu| > N.  Before the floor stop that
    takes s far below 0, where c(N) = N^(s-1) is tiny: at |y| = 1/13 and
    s in [-1e6, 1] terms grew only at N = 64 and s < -40, all below
    1e-74, and there the 1e-17 stop fired at the second term.

    The coefficients c(n) come from a table built once per (s, w, N),
    the angles 2 pi frac(n y) from _head_angles, through the catalogue's
    memo while one of its cases runs.  The transform runs on c(N + j) with
    ratio mu = z/(1-z), |mu| = 1/(2 sin pi y): c(N) plus offsets from
    log1p/expm1, so their forward differences carry rounding of the
    offsets' size.  That floor doubles with each difference; once a
    difference sinks below it the transform stops, reporting the floor.
    Neither depends on y, so the table holds the differences up to that
    stop (each the same subtraction as in the full difference table,
    see _differences) and a call takes none.  Each term multiplies the
    floor's share by 2|mu|, at most 4.2 where |y| >= 1/13.
    """
    y = y - round(y)
    # Split y as _head_angles does.
    y_hi = round(y * 2**26) / 2**26
    y_lo = y - y_hi
    coeff, abs_head, diffs, floor, first = _plain_tables(s, weight, n_direct)
    angles = (_head_angles if _memo is None else _memo[_head_angles])(y, n_direct)
    head = sum(map(cmath.rect, coeff, angles))
    ratio = cmath.exp(2j * math.pi * ((y_hi % 1.0) + y_lo))
    # 1 - z from the phase itself: 1 - z would keep z's rounding, which
    # the transform's 1/|1 - z|^2 magnifies, by up to 4.4 where |y| >= 1/13.
    one_minus = -2j * math.sin(math.pi * y) * cmath.exp(1j * math.pi * y)
    z_n = cmath.exp(2j * math.pi * (((n_direct * y_hi) % 1.0 + n_direct * y_lo) % 1.0))
    mu = ratio / one_minus
    mupow = z_n / one_minus
    tail = mupow * first
    inc = abs(tail)
    noise = 0.0
    # Through 1/(1 - ratio) and mu^k, a rounding delta of the ratio moves
    # term k by about (k + 1)|term k| delta/|1 - ratio|.
    spread = inc
    for k, delta in enumerate(diffs, 1):
        mupow *= mu
        floor *= 2.0
        noise += abs(mupow) * floor
        if abs(delta) <= floor:
            # Only rounding noise is left: the floor is the error.
            inc = 0.0
            break
        term = mupow * delta
        tail += term
        inc = abs(term)
        spread += (k + 1) * inc
        if k >= 2 and inc < 1e-17 * (abs(tail) + 1.0):
            break
    drift = _RATIO_ROUNDING * spread / abs(one_minus)
    err = inc + noise + drift + 1e-16 * (abs_head + 1.0)
    return head + tail, err


def _near_one(y: float, s: float, weight: str) -> Tuple[complex, float, int]:
    """M(y, s, w) at s in {0, 1}, y in [-1/2, 1/2] past the phase guard:
    value, error, terms.

    Li_sigma(e^mu) = Gamma(1 - sigma)(-mu)^(sigma-1) + sum_k zeta(sigma - k)
    mu^k/k!, mu = 2 pi i y, sigma = 1 - s (Wood, Kent TR 15-92, 1992); ln n
    is -d/dsigma, L = ln(-mu).  At s = 1 it is (gamma + L)/mu - sum zeta'(-k)
    mu^k/k!, at s = 0 (gamma + L)^2/2 + pi^2/12 + gamma_1 - sum_{k>=1}
    zeta'(1 - k) mu^k/k!.  Unit is z/(1 - z) or -ln(1 - z), with 1 - z =
    -2i sin(pi y) e^(i pi y), and the other weights add w(1) times it.  The
    series converges for |mu| < 2 pi, so at every such y.
    As |zeta'(-k)/k!| (2 pi)^k <= 1 for 2 <= k <= 144 (at most 0.74 below
    64; past 144 it grows like ln(k)/pi, where |y|^k <= 2^-145), terms
    k >= J >= 2 sum to at most |y|^J/(1 - |y|), times |mu| at s = 0: at
    |y| = 1/2 the 2^-56 stop comes by J = 58, inside the 64-entry table.
    Each part is formed within 6 eps of its size, the worst (gamma + L)^2/2
    at 2 (4.2 u) + 2 u, u = eps/2.
    """
    ay, sin_py = abs(y), math.sin(math.pi * y)
    unit = (complex(-0.5, 0.5 * math.cos(math.pi * y) / sin_py) if s == 1.0 else
            complex(-math.log(2.0 * abs(sin_py)), math.copysign(0.5 * math.pi, y) - math.pi * y))
    if weight == "unit":
        return unit, 6.0 * EPS * abs(unit), 1
    mu = complex(0.0, _TWO_PI * y)
    g = complex(EULER_GAMMA + math.log(_TWO_PI * ay), -math.copysign(0.5 * math.pi, y))
    if s == 1.0:
        lead, size, p, table = g / mu, abs(g) / abs(mu), 1.0, _DZETA
    else:
        lead, size, p, table = 0.5 * g * g + _S0_CONST, 0.5 * abs(g) ** 2 + _S0_CONST, mu, _DZETA_S0
    tol, rest, terms = 2.0**-56 * abs(p), abs(p) / (1.0 - ay), []
    for t in table:
        terms.append(t * p)
        p, rest = p * mu, rest * ay
        if rest < tol and len(terms) > 1:
            break
    c = _LOG_WEIGHTS[weight](1.0)
    size += sum(map(abs, terms)) + c * abs(unit)
    return lead - sum(reversed(terms)) + c * unit, rest + 6.0 * EPS * size, len(terms)


def _plain_sum(y: float, s: float, weight: str) -> Tuple[complex, float, int]:
    """M(y, s, w) by _master_sum: value, error and head.  The head starts
    at _HEAD_START, or at _UNIT_ONE_HEAD for the unit weight at s = 1,
    where every offset c(N + j) - c(N) is 0 and the tail is the exact
    geometric remainder; it doubles, within _HEAD_CAP, while the error
    exceeds _ENGINE_TARGET.  The last error adds its head's phase
    rounding: each angle 2 pi frac(n y) < 2 pi rounds by u = eps/2 of
    frac, u of the product and _TWO_PI's 1.1 eps, of one sign where
    frac(n y) clusters, 7.5 eps sum |c| in all."""
    n = _UNIT_ONE_HEAD if s == 1.0 and weight == "unit" else _HEAD_START
    value, err = _master_sum(y, s, weight, n)
    while err > _ENGINE_TARGET and 2 * n <= _HEAD_CAP:
        n *= 2
        value, err = _master_sum(y, s, weight, n)
    return value, err + 7.5 * EPS * _plain_tables(s, weight, n)[1], n


def _halved_sum(y: float, s: float, weight: str) -> Tuple[complex, float, int]:
    """M(y, s, w) for 0 < |y| < _BAND: value, error and summed heads.

    Li_sigma(z) + Li_sigma(-z) = 2^(1 - sigma) Li_sigma(z^2), sigma = 1 -
    s (Lewin, Polylogarithms and Associated Functions, 1981), reads M(y)
    = 2^s M(2y) - M(y + 1/2); as w(2n) = w(n) + ln 2 for a log weight,
    its doubled phase adds ln 2 times the unit sum.  Unrolled to the
    first k with |2^k y| >= 1/4, with B_l = M_w + l ln 2 M_unit:

        M_w(y) = -sum_{l<k} 2^(ls) B_l(2^l y + 1/2) + 2^(ks) B_k(2^k y),

    every phase at least 1/4 from an integer.  Doubling is exact, and
    the 2^-54 rounding of 2^l y + 1/2 lies well inside each part's error,
    which with its final 4 ulps of max(1, |M|) is scaled by 2^(ls).  The
    rounding of 2^(ls) after l products, of B_l and of the k + 1 terms'
    sum adds (2k + 4) eps of sum 2^(ls) |B_l|.
    """
    k = 0
    while abs(math.ldexp(y, k)) < 0.25:
        k += 1
    p, c, total, err, size, terms = 2.0 ** s, 1.0, 0.0j, 0.0, 0.0, 0
    for level in range(k + 1):
        t = math.ldexp(y, level) + (0.5 if level < k else 0.0)
        parts = [(1.0, weight)]
        if level and weight != "unit":
            parts.append((level * _LN2, "unit"))
        for g, w in parts:
            value, part_err, n = _plain_sum(t, s, w)
            total += (c if level == k else -c) * g * value
            err += c * g * (part_err + 4.0 * EPS * max(1.0, abs(value)))
            size += c * g * abs(value)
            terms += n
        c *= p
    return total, err + (2 * k + 4) * EPS * size, terms


def _master_sum_adaptive(
    y: float, s: float, weight: str
) -> Tuple[complex, float, int, bool]:
    """M(y, s, w) to _ENGINE_TARGET: value, error, head (or series)
    terms, and whether _near_one took it.

    A phase point with |1 - z| < 1e-9 raises ConvergenceError before any
    sum.  At s in {0, 1} _near_one takes M in the band |y| < _BAND and a
    log-weighted M at every y; so the unit weight's limits stay
    Euler-summed in the interior, where _near_one would be its closed
    form z/(1 - z) or -ln(1 - z).  Otherwise _plain_sum takes interior y
    and _halved_sum the band.  An error above _EDGE_ERR raises
    ConvergenceError naming y; else it adds the kept sum's final
    rounding, 4 ulps of max(1, |M|) for head and tail together (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4).
    """
    t = y - round(y)
    if 2.0 * math.sin(math.pi * abs(t)) < 1e-9:
        raise ConvergenceError(f"phase point e^(2 pi i {t}) too close to 1")
    band = abs(t) < _BAND
    if s in (0.0, 1.0) and (weight != "unit" or band):
        value, err, n = _near_one(t, s, weight)
        return value, err + 4.0 * EPS * max(1.0, abs(value)), n, True
    value, err, n = (_halved_sum if band else _plain_sum)(t, s, weight)
    if err > _EDGE_ERR:
        raise ConvergenceError(f"master sum at y = {y}, s = {s} stalled at error {err:.2g}")
    return value, err + 4.0 * EPS * max(1.0, abs(value)), n, False


def _series_sum(spec: TrigSeriesSpec, method_tag: str) -> EvalResult:
    """`spec`'s series at spec.s, tagged method_tag, or "series-at-one"
    when every master sum behind it is _near_one's."""
    if spec.parity == "all_n":
        parts = [(1.0, spec.x)]
    elif spec.parity == "alternating":
        # For x >= 1/2, (x - 1)/2 = (x + 1)/2 - 1 is exact where (x + 1)/2
        # rounds, and next to x = 1 M's slope 2 pi/|1 - z|^2 would
        # magnify that rounding.
        x = spec.x
        parts = [(-1.0, (x - 1.0) / 2.0 if x >= 0.5 else (x + 1.0) / 2.0)]
    else:
        parts = [(1.0, spec.x / 2.0), (-(2.0 ** (spec.s - 1.0)), spec.x)]

    total = 0.0 + 0.0j
    err = 0.0
    terms = 0
    at_one = True
    adaptive = _master_sum_adaptive if _memo is None else _memo[_master_sum_adaptive]
    for coef, y in parts:
        val, part_err, n_used, series = adaptive(y, spec.s, spec.weight)
        total += coef * val
        err += abs(coef) * part_err
        terms += n_used
        at_one = at_one and series
    value = total.imag if spec.trig == "sine" else total.real
    if spec.scale == "two_pi_n_power":
        fac = _TWO_PI ** (spec.s - 1.0)
        value *= fac
        err *= fac
    return EvalResult(value, err, terms, "series-at-one" if at_one else method_tag)


def trig_dirichlet_sum(spec: TrigSeriesSpec) -> EvalResult:
    """Evaluate the series of `spec` inside its convergence region s < 1.

    Within 1/13 of an integer phase the master sum is taken by the
    square relation at interior phases, where each interior sum's error
    is scaled by up to 2^(ks), 2^k |y| >= 1/4.  So its reach at each
    phase the parity sums (x for all_n, (x - 1)/2 for alternating next
    to x = 1, x/2 and x for odd_only) depends on s.  Up to s = 0.3 every
    weight reaches the phase guard |1 - z| >= 1e-9, a phase of 1.6e-10.
    Above, it raises ConvergenceError where its error would pass 1e-8,
    measured at phases below 1.9e-9 (s = 0.6), 1.2e-7 (0.75), 1.9e-6
    (0.9) and 7.6e-6 (0.99) for the unit weight, and 1.5e-8 (0.5),
    3.1e-5 (0.9) and 1.2e-4 (0.999) for a log weight.  At s = 0 a log
    weight at any phase, and the unit weight within 1/13 of an integer
    phase, take the series about z = 1 instead, which reaches the phase
    guard; a result whose every master sum takes it is tagged
    "series-at-one".  err_estimate is the master sums' own.
    """
    if not spec.s < 1.0:
        raise ConvergenceError(
            f"series converges only for s < 1, got s = {spec.s}"
        )
    return _series_sum(spec, "osc-euler")


def regularized_limit(
    x: float,
    trig: str,
    weight: str,
    parity: str = "all_n",
    scale: str = "n_power",
    s_target: float = 1.0,
) -> EvalResult:
    """Limit s -> s_target of the series.

    A log weight's master sums are the series about z = 1 at s_target,
    at every phase (method tag "series-at-one").  The unit weight's are
    the Euler-summed series once at s = s_target, whose value is analytic
    in s (tag "euler-at-target"), and within 1/13 of an integer phase the
    series about z = 1.  Limits reach the phase guard |1 - z| >= 1e-9.
    A master sum that cannot reach 1e-8 raises ConvergenceError.
    """
    s_target = float(s_target)
    if s_target not in (0.0, 1.0):
        raise DomainError(f"limit target must be 0 or 1, got {s_target}")
    spec = TrigSeriesSpec(x=x, trig=trig, weight=weight, parity=parity,
                          s=s_target, scale=scale)
    return _series_sum(spec, "euler-at-target")
