"""Hurwitz zeta zeta(s, x) and its first two s-derivatives.

The primary evaluator is Euler-Maclaurin with every term differentiated
analytically in s, so the m = 1, 2 outputs carry no finite-difference
noise; at s = 0, -1, ..., -31 with m = 0 the Bernoulli polynomial
gives the value exactly.  An independent route sums the globally
convergent binomial double series; the two routes share no code beyond
float arithmetic and are used as mutual oracles.
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import sub

from .result import EPS, ConvergenceError, DomainError, EvalResult, PoleError
from .special import BERNOULLI_L, BERNOULLI_NUM, bernoulli

_POLE_RADIUS = 1e-8
_EM_CUTOFF = 6
_EM_ORDER = 12
_HASSE_MAX_TERMS = 200
# hurwitz_hasse raises x by an integer shift to x >= _HASSE_SHIFT + max(0, s - 1),
# of at most _HASSE_MAX_SHIFT.
_HASSE_SHIFT = 30.0
_HASSE_MAX_SHIFT = 400
# Bits by which hurwitz_hasse's f(_HASSE_MAX_TERMS) may lie above f(0); past
# about 210 its sum stalls at 80 digits.
_HASSE_MAX_RISE = 1024.0
# h_k = 0.25 2^-k, k = 0..4: the pole of zeta(s, x) is sampled at
# s = 1 +- h_k and extrapolated in h^2.
_LADDER = tuple(0.25 * 2.0**-k for k in range(5))

# B_{2k} / (2k)! for k = 1 .. 12
_EM_COEF = tuple(
    bernoulli(2 * k) / math.factorial(2 * k) for k in range(1, _EM_ORDER + 1)
)
# (c_k, 2k, 2k-3, 2k-2) for k = 2 .. 12: P_k(s) = P_{k-1}(s) (s+2k-3) (s+2k-2).
_EM_PAIRS = tuple((_EM_COEF[k - 1], 2 * k, 2 * k - 3, 2 * k - 2) for k in range(2, _EM_ORDER + 1))


class HurwitzQuery:
    """Evaluation request: d^m/ds^m zeta(s, x) at real s, x > 0."""

    __slots__ = ("s", "x", "m")

    def __init__(self, s: float, x: float, m: int = 0) -> None:
        if not (math.isfinite(s) and math.isfinite(x)):
            raise DomainError(
                f"zeta(s, x) requires finite s and x, got s = {s}, x = {x}"
            )
        if not x > 0.0:
            raise DomainError(f"zeta(s, x) requires x > 0, got {x}")
        if m not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {m}")
        self.s = s
        self.x = x
        self.m = m

    def __repr__(self) -> str:
        return f"HurwitzQuery(s={self.s!r}, x={self.x!r}, m={self.m!r})"


def hurwitz_zeta(q: HurwitzQuery) -> EvalResult:
    """Euler-Maclaurin evaluation of d^m/ds^m zeta(s, x).

    Direct sum to n = N-1 with N = 6; pole, boundary and 12 Bernoulli
    correction pairs appended, each differentiated in closed form.
    err_estimate is the magnitude of the final correction term for the
    requested derivative order (truncation) plus (2 + |s|/2) eps times
    the part of sum |terms| that cancels (rounding of the terms; the
    last rounding of the value is not counted).  For m = 0 and real s >
    1 - 2M = -23, M = 12 pairs, the final correction term bounds the
    truncation: the remainder -(s)_2M/(2M)! int_N^inf B~_2M(t) (t +
    x)^(-s-2M) dt has |B~_2M| <= |B_2M| and an integrand of one sign
    (Johansson, arXiv:1309.2877, sec. 2).
    At s = 0, -1, ..., -31 with m = 0 the value is the exact
    -B_{n+1}(x)/(n+1), correctly rounded, claiming half an ulp.
    A result without a significant digit, err_estimate >= max(1,
    |value|), raises ConvergenceError, and so does a sum that leaves
    the binary64 range (large |s|, e.g. s = -400 at x = 0.5, or terms
    of both signs overflowing to +-inf).
    """
    s, x, m = q.s, q.x, q.m
    if abs(s - 1.0) < _POLE_RADIUS:
        raise PoleError(
            f"s = {s} is within {_POLE_RADIUS} of the pole; "
            "use the Stieltjes expansion instead"
        )
    try:
        if m == 0 and -32.0 < s <= 0.0 and s == int(s):  # the table holds B_0 .. B_32
            return _bernoulli_polynomial(-int(s), x)
        r = _euler_maclaurin(s, x, m)
        if math.isfinite(r.value) and r.err_estimate < max(1.0, abs(r.value)):
            return r
    except (OverflowError, ValueError):  # fsum raises ValueError on -inf + inf
        pass
    raise ConvergenceError(
        f"Euler-Maclaurin sum keeps no significant digit in binary64 at s = {s}, x = {x}"
    )


def _bernoulli_polynomial(n: int, x: float) -> EvalResult:
    """zeta(-n, x) = -B_{n+1}(x)/(n+1) for 0 <= n <= 31, exactly.

    With x = p/q and B_k = M_k/L (special's integer table), L q^(n+1)
    B_{n+1}(x) is the integer sum_k C(n+1, k) M_k q^k p^(n+1-k), taken by
    Horner in p; one int/int true division rounds the value correctly.
    """
    p, q = x.as_integer_ratio()
    d = n + 1
    acc, qk = 0, 1
    for k in range(d + 1):
        acc = acc * p + math.comb(d, k) * BERNOULLI_NUM[k] * qk
        qk *= q
    value = -acc / (d * BERNOULLI_L * q**d)
    return EvalResult(value, 0.5 * math.ulp(value), d + 1, "bernoulli")


def _euler_maclaurin(s: float, x: float, m: int) -> EvalResult:
    """`hurwitz_zeta`'s sum, unchecked, bit for bit tests/oracles.py's
    `product_rule_euler_maclaurin`: equal value, err_estimate and terms_used
    under `==`, or the same exception.  It skips only work that loop did not
    read (P', P'' at m = 0; P'' at m = 1) or redid per pair (ln^2 a, 2 ln a)."""
    n_cut = _EM_CUTOFF
    ms = -s
    if m == 0:
        terms = [(n + x) ** ms for n in range(n_cut)]
    elif m == 1:
        terms = [-math.log(n + x) * (n + x) ** ms for n in range(n_cut)]
    else:
        terms = [lg * lg * (n + x) ** ms for n in range(n_cut) for lg in [math.log(n + x)]]

    a = n_cut + x
    lga = math.log(a)
    pw = a ** ms  # a^{-s}

    # Pole piece a^{1-s}/(s-1) and boundary piece a^{-s}/2.
    sm1 = s - 1.0
    if m == 0:
        terms += (pw * a / sm1, 0.5 * pw)
    else:
        # The pole piece's s-derivative is a sum whose parts alternate
        # in sign at s < 1; each is a term of its own, so that fsum
        # adds them exactly and the rounding term sees their sizes.
        pa = pw * a / sm1
        if m == 1:
            terms += (-pa * lga, -pa / sm1, -0.5 * lga * pw)
        else:
            terms += (pa * lga * lga, 2.0 * pa * lga / sm1, 2.0 * pa / sm1**2,
                      0.5 * lga * lga * pw)

    # Bernoulli corrections c_k * P_k(s) * a^{-s-2k+1}, the rising product
    # P_k(s) = s (s+1) ... (s+2k-2) and its s-derivatives taken by the
    # product rule one factor at a time; P_1 = s + 0.0 (= 1.0 (s + 0)), P_1' = 1.
    c1, e1, p = _EM_COEF[0], a ** (ms - 2 + 1), s + 0.0
    if m == 0:
        terms.append(c1 * p * e1)
        for c, k2, j, jj in _EM_PAIRS:
            p = p * (s + j) * (s + jj)
            terms.append(c * p * a ** (ms - k2 + 1))
    elif m == 1:
        dp = 1.0
        terms.append(c1 * (dp - lga * p) * e1)
        for c, k2, j, jj in _EM_PAIRS:
            f, g = s + j, s + jj
            dp, p = dp * f + p, p * f
            dp, p = dp * g + p, p * g
            terms.append(c * (dp - lga * p) * a ** (ms - k2 + 1))
    else:
        ddp, dp, lga2, lgsq = 0.0, 1.0, 2.0 * lga, lga * lga
        terms.append(c1 * (ddp - lga2 * dp + lgsq * p) * e1)
        for c, k2, j, jj in _EM_PAIRS:
            f, g = s + j, s + jj
            ddp, dp, p = ddp * f + 2.0 * dp, dp * f + p, p * f
            ddp, dp, p = ddp * g + 2.0 * dp, dp * g + p, p * g
            terms.append(c * (ddp - lga2 * dp + lgsq * p) * a ** (ms - k2 + 1))

    value = math.fsum(terms)
    # Rounding of the terms, per unit of sum |terms| that cancels in the
    # value: each term is formed within a few ulps, 2 eps, and the power
    # (n + x)^(-s) magnifies the rounding of n + x to binary64 |s| times,
    # |s|/2 eps.  Where one term dominates, the plain sum can round below
    # fsum's |value|, and then nothing cancels: max(0.0, .) as the oracle
    # has it, without the 0.1 us of a builtin call.
    cancelled = sum(map(abs, terms)) - abs(value)
    cancelled = cancelled if cancelled > 0.0 else 0.0
    err = abs(terms[-1]) + 1e-18 + (2.0 + 0.5 * abs(s)) * EPS * cancelled
    return EvalResult(value, err, n_cut + _EM_ORDER + 2, "em")


def hurwitz_hasse(s: float, x: float) -> EvalResult:
    """Globally convergent binomial double-series route for zeta(s, x).

    (s-1) zeta(s, x) = sum_{n>=0} 1/(n+1) sum_{k=0}^{n} C(n,k) (-1)^k
    (k+x)^{1-s}.  The argument is first raised by an exact integer
    shift until k + x >= 30 + max(0, s - 1), which makes the outer terms
    decay fast enough for plain truncation; with s >> x they would not
    before the cap.  At s < 1 the shift stays at 30: a larger one only
    raises f(0) against zeta: 30 + (1 - s) stalled the series at 16
    points with integer s in [-87, -33] that a shift to 20 returned.
    The shift stops at
    _HASSE_MAX_SHIFT = 400, reached only where s > x + 370; there
    (x/(x + 400))^s < e^-370, so the outer sum lies far below the
    value's last bit.  The inner sum is (-1)^n Delta^n f(0), f(k) =
    (k+x)^{1-s}, and its 2^n cancellation costs no precision: each f(n)
    is formed once at 80 digits and rounded to an integer in units of
    2^e, e fixed 300 bits below f(0) (80 digits are 269 bits), or below
    2^-1000 |(s-1) prefix| where f(0) lies lower still (s >> x; at s =
    1e8, x = 1, f(0) is 8.6e8 bits down), so at s > 0 no integer grows
    with s.
    Each f(n) is one mpmath power, on raw libmp tuples, and f(0) also
    sets e; so is each prefix term, except that at s > 0, where they fall
    with j, those 2^-400 or more below the first are not formed: they
    cannot move the 80-digit sum (terms_used still counts the shift).
    One anti-diagonal of exact integers, D[j] =
    Delta^j f(n-j), takes n subtractions per outer term and ends in
    Delta^n f(0), so each f(n)'s conversion is the only rounding in the
    difference table.

    The outer sum is accumulated in the same integers with 64 guard
    bits, q_n = ((-1)^n D[n] << 64) // (n+1) in units of 2^(e-64), and
    converted to mpf once, after the loop.  It stops after three terms
    in a row whose share of the value, q_n/(s-1), is at most 1e-23
    |zeta(s, x)|, tested in integers: 7 digits past the binary64 value
    returned, at any size of zeta (an exact zero stops too).  Weighing
    the terms against the value rather than against their own sum
    matters for s < 0, where that sum cancels a prefix many orders
    larger than zeta.  err_estimate is the last outer term's share plus
    half an ulp of the value for its final rounding, at least the
    smallest subnormal, so a value that underflows claims no exact 0.
    On 2000 seeded points (s in [-2, 3] outside 1 +- 0.02, x
    log-uniform in [0.05, 20]) the float is the one a 1e-30 stop returns and equals 50-digit mpmath
    zeta rounded to binary64, with 29-62 outer terms (a 1e-30 stop takes
    54-105), and |error| stays within 0.9998 of the estimate; stops at
    1e-20, 1e-21 and 1e-22 moved none of those floats.
    An error estimate above 1e-8 max(1, |zeta(s, x)|) after at most
    _HASSE_MAX_TERMS + 1 = 201 outer terms raises ConvergenceError: the
    check is relative where |zeta| > 1, since the estimate carries half
    an ulp of zeta (zeta(50, 0.5) rounds to 2^50).  A value outside
    binary64, as zeta(50, 1e-7) ~ 1e350, raises it too.  So does, before
    any sum, an f(_HASSE_MAX_TERMS) more than _HASSE_MAX_RISE bits above
    f(0): at s < 1 f(n)/f(0) = (1 + n/x_eff)^(1-s), and the integers grow
    with it (a 2.9e5-bit rise at s = -1e5, x = 1).
    """
    HurwitzQuery(s, x)  # checks s and x
    if abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_hasse is undefined at s = 1")
    shift = min(max(0, math.ceil(_HASSE_SHIFT + max(0.0, s - 1.0) - x)), _HASSE_MAX_SHIFT)
    rise = (1.0 - s) * math.log2(1.0 + _HASSE_MAX_TERMS / (x + shift))
    if rise > _HASSE_MAX_RISE:
        raise ConvergenceError(
            f"binomial series at s = {s}, x = {x} would need {rise:.3g}-bit differences"
        )
    import mpmath as mp
    from mpmath.libmp import from_int, mpf_add, mpf_pow, mpf_shift, mpf_sum, to_int

    with mp.workdps(80):
        # The kernel and rounding of mpf.__pow__, on raw tuples.
        prec, rnd = mp.mp._prec_rounding
        ss, xx = mp.mpf(s), mp.mpf(x)
        x_eff, a = (xx + shift)._mpf_, (1 - ss)._mpf_
        ms, xt = (-ss)._mpf_, xx._mpf_
        prefix = mp.make_mpf(mpf_sum(
            [mpf_pow(mpf_add(from_int(j), xt, prec, rnd), ms, prec, rnd) for j in range(shift)
             if s <= 0 or s * (math.log2(j + x) - math.log2(x)) <= 400],
            prec, rnd,
        ))
        f0 = mpf_pow(x_eff, a, prec, rnd)
        scaled = prefix * (ss - 1)
        e = max(f0[2] + f0[3], mp.mag(scaled) - 1000) - 300
        # In units of 2^(e-64), pre + acc is (s-1) zeta(s, x): each outer
        # term is weighed against |(s-1) zeta(s, x)|.
        pre = int(mp.ldexp(scaled, 64 - e))
        diag: list[int] = []
        acc = last = outer_used = small_run = 0
        for n in range(_HASSE_MAX_TERMS + 1):
            fn = mpf_pow(mpf_add(from_int(n), x_eff, prec, rnd), a, prec, rnd) if n else f0
            diag = list(accumulate(diag, sub, initial=to_int(mpf_shift(fn, -e))))
            q = ((diag[-1] if n % 2 == 0 else -diag[-1]) << 64) // (n + 1)
            acc += q
            outer_used = n + 1
            last = abs(q)
            small_run = small_run + 1 if last * 10**23 <= abs(pre + acc) else 0
            if small_run >= 3:
                break
        value = float(prefix + mp.ldexp(acc, e - 64) / (ss - 1))
        # Below 2^-1021 half an ulp rounds to 0: the smallest subnormal
        # covers a subnormal or underflowed value's rounding.
        err = float(mp.ldexp(last, e - 64) / abs(ss - 1)) + max(
            0.5 * math.ulp(value), math.ulp(0.0))
    if not math.isfinite(value):
        raise ConvergenceError(
            f"hurwitz_hasse value leaves binary64 at s = {s}, x = {x}"
        )
    if not err <= 1e-8 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"binomial series stalled at {outer_used} outer terms "
            f"(err_estimate {err:.2e})"
        )
    return EvalResult(
        value=value,
        err_estimate=err,
        terms_used=shift + outer_used,
        method_tag="hasse",
    )


def _neville(hs: list[float], vs: list[float]) -> tuple[float, float]:
    """Neville's tableau through (h_i, v_i), h_i distinct, at h = 0: the top
    estimate and its last correction |p_n - p_(n-1)|, the error estimate."""
    n = len(hs)
    p = list(vs)
    last = 0.0
    for k in range(1, n):
        prev = p[-1]
        for i in range(n - 1, k - 1, -1):
            p[i] = (hs[i - k] * p[i] - hs[i] * p[i - 1]) / (hs[i - k] - hs[i])
        last = abs(p[-1] - prev)
    return p[-1], last


def _pole_limit(x: float, part: str) -> EvalResult:
    """Limit at h = 0 of one part of zeta(1 +- h, x), h = _LADDER[k], k = 0..4.

    zeta(1 + h, x) = 1/h + sum_n (-1)^n gamma_n(x) h^n / n!, so with the
    even part E(h) = [zeta(1+h, x) + zeta(1-h, x)]/2 and the odd part
    O(h) = [zeta(1+h, x) - zeta(1-h, x)]/2 each part is a series in h^2:

        "gamma0"   E(h)              = gamma_0(x) + gamma_2(x) h^2/2 + ...
        "residue"  h O(h)            = 1 - gamma_1(x) h^2 - ...
        "gamma1"   (1 - h O(h))/h^2  = gamma_1(x) + gamma_3(x) h^2/6 + ...

    The samples are taken at x + 1: zeta(s, x) = x^-s + zeta(s, x + 1),
    and the n = 0 term x^(-1-h) = (1/x) e^(-h ln x) would put (ln x)^(2k)/x
    into the h-series, which at small x the tableau resolves slowly.  Its
    exact Laurent parts are added instead:
    gamma_n(x) = gamma_n(x + 1) + (ln x)^n/x, so 1/x to gamma0, ln(x)/x to
    gamma1 and nothing to the residue.

    Neville extrapolates the part asked for in h^2, over the same ten
    samples for every part.  Returns the limit, tagged part + "-fd", with
    terms_used the 10 samples, two per _LADDER offset, and err_estimate
    the tableau's last correction plus rounding.  A sample carries a few
    ulps of (|zeta(1+h, x + 1)| + |zeta(1-h, x + 1)|)/2, which E(h) keeps,
    h O(h) scales by h and the gamma1 quotient by 1/h; the tableau's
    weights add about 1.6, so the estimate adds 4 ulps of the largest.
    The Laurent part and the sum each round by an ulp or two, 4 ulps of
    |part| + |value| (an ulp of 1/x at x = 1e-5 is 1.5e-11).  A limit
    without a significant digit, err_estimate >= max(1, |value|), raises
    ConvergenceError, as `hurwitz_zeta` does: above about x = 3e31 for
    the residue, 2.5e39 for gamma0 and 2e46 for gamma1.
    """
    nodes, vals = [], []
    noise = 0.0
    for h in _LADDER:
        up = hurwitz_zeta(HurwitzQuery(1.0 + h, x + 1.0)).value
        down = hurwitz_zeta(HurwitzQuery(1.0 - h, x + 1.0)).value
        even, odd = 0.5 * (up + down), 0.5 * h * (up - down)
        val, gain = {"gamma0": (even, 1.0), "residue": (odd, h),
                     "gamma1": ((1.0 - odd) / (h * h), 1.0 / h)}[part]
        nodes.append(h * h)
        vals.append(val)
        noise = max(noise, gain * 0.5 * (abs(up) + abs(down)))
    value, correction = _neville(nodes, vals)
    laurent = {"gamma0": 1.0 / x, "residue": 0.0, "gamma1": math.log(x) / x}[part]
    value += laurent
    err = correction + 4.0 * EPS * (noise + abs(laurent) + abs(value))
    if not (math.isfinite(value) and err < max(1.0, abs(value))):
        raise ConvergenceError(
            f"pole ladder keeps no significant digit of {part} at x = {x}"
        )
    return EvalResult(value, err, 2 * len(_LADDER), part + "-fd")


def pole_residue_check(x: float) -> float:
    """Residue of zeta(s, x) at s = 1: the limit of h O(h) as h -> 0.

    The "residue" part of `_pole_limit`'s ten samples zeta(1 +- h, x),
    extrapolated in h^2; the exact residue is 1 for every x > 0.  Raises
    ConvergenceError where the ladder keeps no significant digit.
    """
    return _pole_limit(x, "residue").value
