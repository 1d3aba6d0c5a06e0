"""Independent reference routes used by the tests.

Everything here is computed by mpmath (or plain quadrature) through
representations that share no code with the package: the package sums
real series with Euler-Maclaurin closures and Euler transforms, while
these oracles go through mpmath's zeta, polylog and high-precision
finite differences, or a 70-digit direct sum (`em_zeta`).  The
exceptions are `full_table_master_sum`, `product_rule_euler_maclaurin`,
`loop_stieltjes_gamma1`, `loop_gamma1_reflection_diff` and
`mpf_pow_hasse`, engines as
they were before rewrites that had to keep their output bit for bit;
they are kept to check exactly that.  `regsum._master_sum` matches
`full_table_master_sum` bit for bit on its domain, phases at least 1/13
from an integer and heads from `regsum._HEAD_START`, or of
`regsum._UNIT_ONE_HEAD` terms for the unit weight at s = 1, where the
oracle never takes its "diverge" and "sweeps" exits.
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


def em_zeta(s: float, x: float, terms: int = 300, pairs: int = 24, dps: int = 70):
    """zeta(s, x) as an mpf at `dps` digits: the direct sum of its first
    `terms` terms plus the Euler-Maclaurin tail at a = terms + x,
    a^(1-s)/(s-1) + a^(-s)/2 + sum_k B_2k/(2k)! s (s+1) ... (s+2k-2)
    a^(-s-2k+1) for k = 1 .. `pairs`.

    The reference for `hurwitz_hasse` where mpmath's zeta is not one: at
    large s it loses digits, ζ(50, 1000) reading 2.0912329775e-149,
    2.0912329753e-149 and 2.0912329748e-149 at 30, 60 and 100 digits,
    where this sum gives 2.09123297478187e-149.  For s in [-12, 60] and x
    in [0.01, 2000] the defaults agree with 400 terms and 30 pairs at 90
    digits to 1e-70 of the value, or of the largest term where they cancel.
    """
    with mp.workdps(dps):
        s, x = mp.mpf(s), mp.mpf(x)
        a = terms + x
        total = mp.fsum((n + x) ** -s for n in range(terms))
        total += a ** (1 - s) / (s - 1) + a ** -s / 2
        rising = s  # s (s+1) ... (s+2k-2)
        for k in range(1, pairs + 1):
            total += mp.bernoulli(2 * k) / mp.factorial(2 * k) * rising * a ** (1 - s - 2 * k)
            rising *= (s + 2 * k - 1) * (s + 2 * k)
        return +total


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


def mp_stieltjes0(x: float) -> float:
    """gamma0(x) = -psi(x) from mpmath's digamma at 40 digits."""
    return float(-mp.digamma(x))


def _mp_gamma1(t):
    """gamma1(t), t an mpf, from mpmath's Stieltjes constant; below 1
    through the recurrence gamma1(t) = gamma1(t + 1) + ln(t)/t, since
    mpmath's routine slows down near t = 0: at t = 1e-12 it takes about
    seven times as long as this route, which agrees with it to 1e-26."""
    if t < 1:
        return mp.stieltjes(1, t + 1) + mp.log(t) / t
    return mp.stieltjes(1, t)


def mp_stieltjes1(x: float) -> float:
    """gamma1(x) from mpmath's Stieltjes constant at 30 digits."""
    with mp.workdps(30):
        return float(_mp_gamma1(mp.mpf(x)))


def mp_gamma1_reflection_diff(x: float) -> float:
    """gamma1(1-x) - gamma1(x) from mpmath's Stieltjes constants at 30
    digits, with 1 - x taken exactly."""
    with mp.workdps(30):
        return float(_mp_gamma1(1 - mp.mpf(x)) - _mp_gamma1(mp.mpf(x)))


def mp_weighted_sum(x: float, s: float, weight: str, trig: str) -> float:
    """sum_{n>=1} w(n) trig(2 n pi x) n^(s-1) through mpmath polylog.

    With sigma = 1 - s and z = e^(2 pi i x) the unit-weight sum is the
    polylog Li_sigma(z); a ln(n) factor is minus the order-derivative.
    """
    total = _mp_master(x, s, weight)
    return float(mp.im(total) if trig == "sine" else mp.re(total))


def mp_trig_series(x: float, trig: str, weight: str, parity: str = "all_n",
                   s: float = 0.0, scale: str = "n_power") -> float:
    """A TrigSeriesSpec's series through mpmath: (-1)^(n+1) = -e^(i pi n)
    makes the alternating series -M((x + 1)/2), and the odd terms are
    M(x/2) - 2^(s-1) M(x), each phase taken exactly at 40 digits."""
    t = mp.mpf(x)
    if parity == "all_n":
        total = _mp_master(t, s, weight)
    elif parity == "alternating":
        total = -_mp_master((t + 1) / 2, s, weight)
    else:
        total = _mp_master(t / 2, s, weight) - mp.mpf(2) ** (s - 1) * _mp_master(t, s, weight)
    if scale == "two_pi_n_power":
        total *= (2 * mp.pi) ** (s - 1)
    return float(mp.im(total) if trig == "sine" else mp.re(total))


def _mp_master(x, s: float, weight: str):
    """M(x, s, w) = sum w(n) e^(2 pi i n x) n^(s-1), x a float or an mpf."""
    unit = _mp_polylog(x, s)
    if weight == "unit":
        return unit
    logn = _mp_log_weighted_polylog(x, s)
    if weight == "log_n":
        return logn
    if weight == "log_2pi_n":
        return mp.log(2 * mp.pi) * unit + logn
    return (mp.euler + mp.log(2 * mp.pi)) * unit + logn


@functools.lru_cache(maxsize=None)
def _mp_polylog(x: float, s: float):
    """Li_sigma(e^(2 pi i x)), sigma = 1 - s; cached like the log weight."""
    sigma = mp.mpf(1) - mp.mpf(s)
    return _mp_li(sigma, mp.exp(2j * mp.pi * mp.mpf(x)))


def _mp_li(sigma, z):
    """Li_sigma(z).  Next to z = -1, where mpmath's polylog is slowest
    (about 100 ms), through Li(z) = 2^(1 - sigma) Li(z^2) - Li(-z),
    whose arguments lie next to 1 (about 20 ms).  Not within 1e-8 of
    z = -1: there they reach 1, where Li diverges for sigma <= 1, and
    their large parts would cancel."""
    if -1.0 + 1e-8 < mp.re(z) < -0.9:
        return 2 ** (1 - sigma) * mp.polylog(sigma, z * z) - mp.polylog(sigma, -z)
    return mp.polylog(sigma, z)


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
        return -(_mp_li(sigma + h, z) - _mp_li(sigma - h, z)) / (2 * h)


def mp_integral_gamma(n: int, u: float) -> float:
    """integral_1^u gamma_n(x) dx = (-1)^(n+1)/(n+1) [zeta^(n+1)(0, u) -
    zeta^(n+1)(0, 1)], from mpmath's s-derivatives of zeta."""
    diff = mp.zeta(0, u, derivative=n + 1) - mp.zeta(0, 1, derivative=n + 1)
    return float((-1) ** (n + 1) * diff / (n + 1))


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


def _scalar_weight(n: float, weight: str) -> float:
    from zetalim import regsum

    if weight == "unit":
        return 1.0
    if weight == "log_n":
        return math.log(n)
    if weight == "log_2pi_n":
        return math.log(2.0 * math.pi * n)
    return regsum.EULER_GAMMA + math.log(2.0 * math.pi * n)


def plain_tail_offsets(s: float, weight: str, n_direct: int):
    """The plain route's tail as `full_table_master_sum` forms it: the
    offsets d(j) = c(N + j) - c(N), j = 0.._SWEEPS + 1, their rounding
    floor and c(N)."""
    from zetalim import regsum

    n0 = float(n_direct)
    lj = [math.log1p(j / n0) for j in range(regsum._SWEEPS + 2)]
    ej = [math.expm1((s - 1.0) * v) for v in lj]
    p = n0 ** (s - 1.0)
    w0 = _scalar_weight(n0, weight)
    if weight == "unit":
        offsets, size = ej, [abs(e) for e in ej]
    else:
        a = [w0 * e for e in ej]
        b = [v * (1.0 + e) for v, e in zip(lj, ej)]
        offsets = [u + v for u, v in zip(a, b)]
        size = [abs(u) + abs(v) for u, v in zip(a, b)]
    d = [p * o for o in offsets]
    return d, regsum._OFFSET_ROUNDING * p * max(size), p * w0


def _difference_rows(d):
    """The rows d, Delta d, Delta^2 d, ... of the full forward-difference
    table, each rebuilt whole from the one before."""
    while d:
        yield d
        d = [d[i + 1] - d[i] for i in range(len(d) - 1)]


def difference_column(d, count: int):
    """Delta^k d[0] for k < count: the first column of the table that
    `full_table_master_sum` rebuilds row by row."""
    return [row[0] for row, _ in zip(_difference_rows(d), range(count))]


def full_table_master_sum(y: float, s: float, weight: str, n_direct: int):
    """`regsum._master_sum` as it was before its differences moved to one
    anti-diagonal: every sweep rebuilds the whole forward-difference
    table.  The head follows the engine's scalar order, c(n) rotated by
    cmath.rect and added in order of n, and 1 - z is -2i sin(pi y)
    e^(i pi y), the same as the engine.  Tests compare the two with
    `==`, value and error.  The third item names the loop's exit:
    "floor" (a difference sank below the rounding floor), "small" (an
    increment below 1e-17 of the tail), "diverge" (three growing
    increments) or "sweeps" (all sweeps taken).  The engine has kept only
    the first two since its divergence exit was dropped: on its domain,
    phases at least 1/13 from an integer and heads from
    `regsum._HEAD_START`, or of `regsum._UNIT_ONE_HEAD` terms for the
    unit weight at s = 1, it matches this function bit for bit and the
    last two exits are never taken."""
    import cmath

    from zetalim import regsum

    sweeps = regsum._SWEEPS
    y = y - round(y)
    y_hi = round(y * 2**26) / 2**26
    y_lo = y - y_hi

    n0 = float(n_direct)
    ns = [float(n) for n in range(1, n_direct)]
    coeff = [_scalar_weight(n, weight) * n ** (s - 1.0) for n in ns]
    angles = [2.0 * math.pi * (((n * y_hi) % 1.0 + n * y_lo) % 1.0) for n in ns]
    head = sum(cmath.rect(c, t) for c, t in zip(coeff, angles))
    abs_head = math.fsum(abs(c) for c in coeff)
    d, floor, first = plain_tail_offsets(s, weight, n_direct)
    ratio = cmath.exp(2j * math.pi * ((y_hi % 1.0) + y_lo))
    one_minus = -2j * math.sin(math.pi * y) * cmath.exp(1j * math.pi * y)

    z_n = cmath.exp(2j * math.pi * (((n0 * y_hi) % 1.0 + n0 * y_lo) % 1.0))
    mu = ratio / one_minus
    mupow = z_n / one_minus
    tail = mupow * first
    incs = [abs(tail)]
    noise = 0.0
    spread = incs[0]
    exit_kind = "sweeps"
    rows = _difference_rows(d)
    next(rows)
    for k, d in zip(range(1, sweeps), rows):
        mupow *= mu
        floor *= 2.0
        noise += abs(mupow) * floor
        if abs(d[0]) <= floor:
            incs.append(0.0)
            exit_kind = "floor"
            break
        term = mupow * d[0]
        tail += term
        incs.append(abs(term))
        spread += (k + 1) * incs[-1]
        if len(incs) >= 3 and incs[-1] < 1e-17 * (abs(tail) + 1.0):
            exit_kind = "small"
            break
        if len(incs) >= 6 and incs[-1] > incs[-2] > incs[-3]:
            tail -= term
            incs.pop()
            exit_kind = "diverge"
            break
    drift = regsum._RATIO_ROUNDING * spread / abs(one_minus)
    err = incs[-1] + noise + drift + 1e-16 * (abs_head + 1.0)
    return head + tail, err, exit_kind


def product_rule_euler_maclaurin(s: float, x: float, m: int):
    """`hurwitz._euler_maclaurin` as it was before its m = 0 route
    dropped the derivative chain: one loop for every m, the head term by
    term, and the rising product P_k(s) with its s-derivatives always
    propagated by the product rule.  Its pole piece and error estimate
    follow the engine's, line for line.  Returns value, error estimate
    and terms used, which tests compare with the engine's under `==`."""
    from zetalim import hurwitz
    from zetalim.result import EPS

    n_cut = hurwitz._EM_CUTOFF
    order = hurwitz._EM_ORDER
    terms = []
    for n in range(n_cut):
        t = (n + x) ** (-s)
        if m == 0:
            terms.append(t)
        else:
            lg = math.log(n + x)
            terms.append(-lg * t if m == 1 else lg * lg * t)

    a = n_cut + x
    lga = math.log(a)
    pw = a ** (-s)
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

    p, dp, ddp = 1.0, 0.0, 0.0
    j = 0
    for k in range(1, order + 1):
        while j <= 2 * k - 2:
            f = s + j
            ddp = ddp * f + 2.0 * dp
            dp = dp * f + p
            p = p * f
            j += 1
        e = a ** (-s - 2 * k + 1)
        c = hurwitz._EM_COEF[k - 1]
        if m == 0:
            terms.append(c * p * e)
        elif m == 1:
            terms.append(c * (dp - lga * p) * e)
        else:
            terms.append(c * (ddp - 2.0 * lga * dp + lga * lga * p) * e)

    value = math.fsum(terms)
    cancelled = max(0.0, sum(map(abs, terms)) - abs(value))
    err = abs(terms[-1]) + 1e-18 + (2.0 + 0.5 * abs(s)) * EPS * cancelled
    return value, err, n_cut + order + 2


def _loop_tail_closure(a: float):
    """`stieltjes._tail_closure` as it was before it iterated a
    (c_k, H_{2k-1}) table: the harmonic number indexed at every k."""
    from zetalim import stieltjes
    from zetalim.special import HARMONIC, bernoulli

    order = stieltjes._G1_ORDER
    coef = [bernoulli(2 * k) / (2 * k) for k in range(1, order + 1)]
    lga = math.log(a)
    pieces = [-0.5 * lga * lga, -0.5 * (math.log(a) / a)]
    inv2 = 1.0 / (a * a)
    p = 1.0
    for k, c in enumerate(coef, 1):
        p *= inv2
        pieces.append(c * (lga - HARMONIC[2 * k - 2]) * p)
    trunc = abs(coef[-1]) * (abs(lga) + HARMONIC[2 * order - 2]) * p
    return math.fsum(pieces), trunc


def loop_stieltjes_gamma1(x: float):
    """`stieltjes_gamma(StieltjesQuery(1, x))` as it was before its head
    inlined ln(t)/t and its tail iterated a (c_k, H_{2k-1}) table.
    Returns value, error estimate and terms used, or raises the same
    ConvergenceError; tests compare the two with `==`."""
    from zetalim import stieltjes
    from zetalim.result import EPS, ConvergenceError

    head = [math.log(n + x) / (n + x) for n in range(stieltjes._G1_CUTOFF + 1)]
    tail, trunc = _loop_tail_closure(stieltjes._G1_CUTOFF + x)
    value = math.fsum(head) + tail
    if not math.isfinite(value):
        raise ConvergenceError(f"gamma_1 leaves binary64 at x = {x}")
    err = trunc + EPS * (1.0 + math.fsum(abs(t) for t in head) + abs(tail))
    return value, err, stieltjes._G1_CUTOFF + 1 + stieltjes._G1_ORDER


def loop_gamma1_reflection_diff(x: float):
    """`stieltjes.gamma1_reflection_diff` as it was before the same
    rewrite, for 0 < x < 1; compared like `loop_stieltjes_gamma1`."""
    from zetalim import stieltjes
    from zetalim.result import EPS, ConvergenceError

    head = []
    size = 0.0
    for n in range(stieltjes._G1_CUTOFF + 1):
        hi, lo = math.log(n + 1.0 - x) / (n + 1.0 - x), math.log(n + x) / (n + x)
        head.append(hi - lo)
        size += abs(hi) + abs(lo)
    tail_hi, trunc_hi = _loop_tail_closure(stieltjes._G1_CUTOFF + 1.0 - x)
    tail_lo, trunc_lo = _loop_tail_closure(stieltjes._G1_CUTOFF + x)
    value = math.fsum(head + [tail_hi, -tail_lo])
    if not math.isfinite(value):
        raise ConvergenceError(
            f"gamma_1 reflection difference leaves binary64 at x = {x}"
        )
    size += abs(tail_hi) + abs(tail_lo)
    err = trunc_hi + trunc_lo + EPS * (1.0 + size)
    return value, err, stieltjes._G1_CUTOFF + 1 + stieltjes._G1_ORDER


def mpf_pow_hasse(s: float, x: float):
    """`hurwitz.hurwitz_hasse` as it was before it formed its powers in
    fixed point: every prefix term and every f(n) one `mpf_pow` of a
    base rounded to 80 digits.  The shift, stop rule, term cap, rise
    budget and error estimate follow the engine's, line for line.
    Returns value, error estimate and terms used, or raises the same
    errors; tests compare the two with `==`."""
    from itertools import accumulate
    from operator import sub

    from mpmath.libmp import from_int, mpf_add, mpf_pow, mpf_shift, mpf_sum, to_int

    from zetalim import hurwitz
    from zetalim.result import ConvergenceError, PoleError

    hurwitz.HurwitzQuery(s, x)
    if abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_hasse is undefined at s = 1")
    shift = min(max(0, math.ceil(hurwitz._HASSE_SHIFT + max(0.0, s - 1.0) - x)),
                hurwitz._HASSE_MAX_SHIFT)
    rise = (1.0 - s) * math.log2(1.0 + hurwitz._HASSE_MAX_TERMS / (x + shift))
    if rise > hurwitz._HASSE_MAX_RISE:
        raise ConvergenceError(
            f"binomial series at s = {s}, x = {x} would need {rise:.3g}-bit differences"
        )
    with mp.workdps(80):
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
        pre = int(mp.ldexp(scaled, 64 - e))
        diag = []
        acc = last = outer_used = small_run = 0
        for n in range(hurwitz._HASSE_MAX_TERMS + 1):
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
    return value, err, shift + outer_used


def outcome(f, *args):
    """What `f(*args)` gives, for the `==` tests of an engine against its
    loop above: (value, err_estimate, terms_used) from an EvalResult or a
    loop's tuple, or the type and text of the exception raised."""
    try:
        r = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return r if isinstance(r, tuple) else (r.value, r.err_estimate, r.terms_used)
