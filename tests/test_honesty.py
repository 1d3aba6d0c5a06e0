"""Error estimates that must cover the true error.

Each check asserts |value - ref| <= err_estimate + 4 ulp * max(1, |ref|)
against an independent high-precision reference: the few ulps allow for
the final rounding of the value, not for an estimate that leaves out a
source of error.  `hurwitz_hasse` counts that rounding in its estimate,
so its rows get no allowance.
"""
import math
import random

import pytest

from oracles import (
    em_zeta,
    mp_gamma1_reflection_diff,
    mp_integral_gamma,
    mp_stieltjes0,
    mp_stieltjes1,
    mp_trig_series,
    mp_zeta,
)
from zetalim import (
    HurwitzQuery,
    TrigSeriesSpec,
    hurwitz_hasse,
    hurwitz_zeta,
    quadrature_zeta2_integral,
    regularized_limit,
    trig_dirichlet_sum,
)
from zetalim.result import ConvergenceError
from zetalim.stieltjes import (
    StieltjesQuery,
    gamma1_finite_difference,
    gamma1_reflection_diff,
    integral_gamma,
    stieltjes_gamma,
)

ULP = 2.0 ** -52

# The band where the difference passes through zero (near x = 0.5) and
# its head pairs cancel most, plus both ends of (0, 1), and seeded x
# log-uniform within [1e-12, 1e-9] of each end, where ln(x)/x dominates.
# mpmath's Stieltjes constant slows down near x = 0, and did not
# finish in minutes at x = 1e-300, so the oracle takes gamma_1 below 1
# from gamma_1(t + 1) + ln(t)/t, and the points stop at 1e-12.
_rng_refl = random.Random(1709)
_edge = [10.0 ** _rng_refl.uniform(-12.0, -9.0) for _ in range(80)]
REFLECTION_X = (
    [round(0.400 + 0.005 * k, 3) for k in range(45)] + [0.001, 0.01, 0.99, 0.999]
    + _edge[:40] + [1.0 - d for d in _edge[40:]]
)


@pytest.mark.parametrize("x", REFLECTION_X)
def test_gamma1_reflection_diff_error_estimate_is_honest(x):
    res = gamma1_reflection_diff(x)
    ref = mp_gamma1_reflection_diff(x)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# gamma_1's head and tail closure cancel (2.5 and -3.9 at x = 5.8 with
# the ten-term head); with the 50-term head a rounding floor that left
# out the tail missed 18 of the 151 points of the band x in [5, 6.5].
# That band in steps of 0.01; seeded x log-uniform over [1e-3, 100];
# the band x in [17, 18.2], where the last tail correction changes sign
# (ln(10 + x) = H_15 at x = 17.6); and seeded x log-uniform over
# [1e-12, 1e6].
_rng = random.Random(2026)
GAMMA1_X = [round(5.0 + 0.01 * k, 2) for k in range(151)] + [
    10.0 ** _rng.uniform(-3.0, 2.0) for _ in range(150)
]
_rng_wide = random.Random(1710)
GAMMA1_X += [round(17.0 + 0.01 * k, 2) for k in range(121)] + [
    10.0 ** _rng_wide.uniform(-12.0, 6.0) for _ in range(240)
]


@pytest.mark.parametrize("x", GAMMA1_X)
def test_stieltjes_gamma1_error_estimate_is_honest(x):
    res = stieltjes_gamma(StieltjesQuery(1, x))
    ref = mp_stieltjes1(x)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# Log-spaced over [1e-9, 1e12], four points a decade: where |psi| > 1,
# digamma's error is relative, about 7e-8 at x = 1e-9.
GAMMA0_X = [10.0 ** (k / 4.0) for k in range(-36, 49)]


@pytest.mark.parametrize("x", GAMMA0_X)
def test_stieltjes_gamma0_error_estimate_is_honest(x):
    res = stieltjes_gamma(StieltjesQuery(0, x))
    ref = mp_stieltjes0(x)
    assert abs(res.value - ref) <= res.err_estimate, (res.value, ref, res.err_estimate)


# The pole-ladder route divides 1 - h O(h) by h^2 as small as 1/4096, so its
# error is mostly magnified rounding: up to 1.3e-12 here, 0.34 of err.
_rng_fd = random.Random(1901)
GAMMA1_FD_X = [10.0 ** _rng_fd.uniform(-1.0, 1.0) for _ in range(40)]


@pytest.mark.parametrize("x", GAMMA1_FD_X)
def test_gamma1_finite_difference_error_estimate_is_honest(x):
    res = gamma1_finite_difference(x)
    ref = mp_stieltjes1(x)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# The pole ladder samples zeta(1 +- h, x + 1) and adds the n = 0 term's
# Laurent parts exactly, 1/x to gamma_0 and ln(x)/x to gamma_1: all three
# parts at x log-spaced over [1e-6, 10], two points a decade.
LADDER_POINTS = [(part, 10.0 ** (k / 2.0)) for k in range(-12, 3)
                 for part in ("residue", "gamma0", "gamma1")]


@pytest.mark.parametrize("part, x", LADDER_POINTS)
def test_pole_ladder_error_estimate_is_honest(part, x):
    from zetalim.hurwitz import _pole_limit

    res = _pole_limit(x, part)
    ref = {"residue": lambda t: 1.0, "gamma0": mp_stieltjes0, "gamma1": mp_stieltjes1}[part](x)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# Seeded s in [-2, 12] (outside 1 +- 1e-6), x log-uniform over [0.01, 50],
# m cycling through 0, 1, 2; then the grid below s = -2, where the terms
# grow like (N + x)^(1-s) and cancel, so points may raise instead.
_rng_zeta = random.Random(1601)
HURWITZ_POINTS = []
while len(HURWITZ_POINTS) < 300:
    _s = _rng_zeta.uniform(-2.0, 12.0)
    if abs(_s - 1.0) >= 1e-6:
        _x = math.exp(_rng_zeta.uniform(math.log(0.01), math.log(50.0)))
        HURWITZ_POINTS.append((_s, _x, len(HURWITZ_POINTS) % 3))
HURWITZ_POINTS += [
    (s, x, m)
    for s in (-3.3, -5.0, -5.5, -10.0, -20.0, -20.5, -30.5)
    for x in (0.05, 0.3, 1.0, 10.0)
    for m in (0, 1, 2)
]

# Next to the pole, where one term dominates and nothing cancels.
HURWITZ_POINTS += [
    (1.0 + d, x, m)
    for d in (-1e-6, -1e-7, 1e-7, 1e-6)
    for x in (0.05, 0.5, 20.0)
    for m in (0, 1, 2)
]

# Where the first Bernoulli correction's parts cancel inside the term:
# d/ds [s a^(-s-1)] = (1 - s ln a) a^(-s-1) is 0 at s = 1/ln(6 + x), and
# d^2/ds^2 = ln a (s ln a - 2) a^(-s-1) is 0 at s = 2/ln(6 + x); 40
# seeded x log-uniform over [0.01, 50] for each (m = 2 skips s within
# 1e-6 of the pole).
_rng_cancel = random.Random(2003)
for _m in (1, 2):
    _xs = [math.exp(_rng_cancel.uniform(math.log(0.01), math.log(50.0))) for _ in range(40)]
    HURWITZ_POINTS += [(_m / math.log(6.0 + _x), _x, _m) for _x in _xs
                       if abs(_m / math.log(6.0 + _x) - 1.0) >= 1e-6]


@pytest.mark.parametrize("s, x, m", HURWITZ_POINTS)
def test_hurwitz_zeta_error_estimate_is_honest(s, x, m):
    try:
        res = hurwitz_zeta(HurwitzQuery(s, x, m))
    except ConvergenceError:
        assert s < -2.0, "only the grid below s = -2 may find no significant digit"
        return
    ref = mp_zeta(s, x, m)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# For m = 0 and real s > 1 - 2M = -23 the Euler-Maclaurin remainder after
# M = 12 pairs is at most the last pair's term, the truncation part of
# hurwitz_zeta's estimate.  Checked on the engine's N = 6 and M = 12,
# seeded s in (-23, 60] and x log-uniform over [1e-3, 1e3] (worst ratio
# 0.82).  The head sum n < N is the same on both sides, so the check
# takes the tails zeta(s, N + x) alone, at 100 digits: with the head,
# up to 1e88 at x = 0.0137, rounding would swamp a remainder of 1e-33.
_rng_em = random.Random(3501)
EM_BOUND_POINTS = [(_rng_em.uniform(-23.0, 60.0), 10.0 ** _rng_em.uniform(-3.0, 3.0))
                   for _ in range(60)]


@pytest.mark.parametrize("s, x", EM_BOUND_POINTS)
def test_m0_last_correction_bounds_the_euler_maclaurin_remainder(s, x):
    import mpmath as mp

    from zetalim import hurwitz

    a, pairs = mp.mpf(x) + hurwitz._EM_CUTOFF, hurwitz._EM_ORDER
    value = em_zeta(s, a, 0, pairs, 100)
    last = abs(value - em_zeta(s, a, 0, pairs - 1, 100))
    assert abs(value - em_zeta(s, a, 300, 24, 100)) <= last, (s, x)


# Named points: a correctly rounded value that a 1e-16 |value| rounding
# term under-claimed by 1.065x; small zeta, where a stop weighed against
# 1 + |zeta| fired after a few terms, (50, 20) returning 6.27e-66 for
# 9.74e-66; s >> x, where the series ran to its cap, (50, 30).  Then x on
# both sides of the shift to 30 + max(0, s - 1) at s = -11.5 and 50,
# past the shift's cap at s = 500, and seeded s in [-12, 60] with x
# log-uniform over [0.01, 2000].  Then values that are subnormal or
# underflow to 0, where half an ulp rounds to 0 and only the smallest
# subnormal covers the final rounding.  The reference is a 70-digit
# direct sum: mpmath's zeta loses digits at large s.
HASSE_POINTS = [(1.2689908026027177, 9.154871074106332), (50.0, 20.0), (10.0, 25.0),
                (50.0, 30.0), (50.0, 1000.0), (50.0, 0.5), (500.0, 0.9), (500.0, 1.5)]
HASSE_POINTS += [(s, x) for s, t in ((-11.5, 30.0), (50.0, 79.0))
                 for x in (0.01, 0.3, 1.0, 20.0, t - 0.5, t + 0.5, 2000.0)]
_rng_hasse = random.Random(2801)
HASSE_POINTS += [(_rng_hasse.uniform(-12.0, 60.0),
                  math.exp(_rng_hasse.uniform(math.log(0.01), math.log(2000.0))))
                 for _ in range(100)]
HASSE_POINTS += [(s, x) for s in (100.0, 105.0, 108.0, 110.0, 112.0)
                 for x in (700.0, 750.0, 800.0, 900.0, 1000.0, 1200.0)]
HASSE_POINTS += [(200.0, 2000.0), (1000.0, 5000.0)]


@pytest.mark.parametrize("s, x", HASSE_POINTS)
def test_hurwitz_hasse_error_estimate_is_honest(s, x):
    res = hurwitz_hasse(s, x)
    ref = em_zeta(s, x)
    assert abs(res.value - ref) <= res.err_estimate, (res.value, float(ref), res.err_estimate)


def test_quadrature_zeta2_integral_error_estimate_is_honest():
    # The exact value is 0.  Each of the 16 nodes is a zeta''(0, u) whose
    # Euler-Maclaurin terms cancel, so the claim is mostly their rounding.
    res = quadrature_zeta2_integral()
    assert abs(res.value) <= res.err_estimate + 4 * ULP, (res.value, res.err_estimate)


# n in {0, 1} alternately, u log-uniform over [0.05, 20].
_rng_int = random.Random(1801)
INTEGRAL_POINTS = [(k % 2, 10.0 ** _rng_int.uniform(math.log10(0.05), math.log10(20.0)))
                   for k in range(120)]


@pytest.mark.parametrize("n, u", INTEGRAL_POINTS)
def test_integral_gamma_error_estimate_is_honest(n, u):
    res = integral_gamma(n, u)
    ref = mp_integral_gamma(n, u)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


def _edge_or_interior_x(rng):
    # Two thirds of the points within [8e-4, 0.01] of 0 or 1, in the edge
    # band; the rest uniform over [0.01, 0.99].
    if rng.random() < 2.0 / 3.0:
        d = 10.0 ** rng.uniform(math.log10(8e-4), -2.0)
        return d if rng.random() < 0.5 else 1.0 - d
    return rng.uniform(0.01, 0.99)


_LOG_WEIGHTS = ("log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
_PARITIES = ("all_n", "alternating", "odd_only")

# Parities in turn; unit weight but for two points in nine, which take
# a log weight (its oracle costs about 5 times a unit one); s in
# [-1.5, 0.95].
_rng_series = random.Random(1802)
SERIES_POINTS = [
    (_edge_or_interior_x(_rng_series), _rng_series.choice(("sine", "cosine")),
     _LOG_WEIGHTS[k % 3] if k % 9 in (0, 4) else "unit", _PARITIES[k % 3],
     _rng_series.uniform(-1.5, 0.95))
    for k in range(90)
] + [
    # Edge series where the master sums' estimate without their final
    # rounding, 4 ulps of max(1, |M|), missed this bound by up to 1.21x.
    (0.9967066758043867, "sine", "gamma_plus_log_2pi_n", "all_n", -1.0924026079437947),
    (0.9994826021190722, "sine", "gamma_plus_log_2pi_n", "all_n", -0.8825225935672315),
    (0.9994392229816098, "sine", "gamma_plus_log_2pi_n", "all_n", -0.5808610847677322),
] + [
    # Edge-band phases y from 1/14 down to 1/2730: y next to 0 or -y
    # next to 1; alternating x = 1 - 2y and odd_only x = 2y put y among
    # their phases.
    (1.0 / 14.0, "sine", "unit", "all_n", -1.5),
    (13.0 / 14.0, "cosine", "log_n", "all_n", 0.5),
    (0.01, "cosine", "log_2pi_n", "all_n", 0.9),
    (0.99, "sine", "gamma_plus_log_2pi_n", "all_n", -1.5),
    (0.98, "sine", "unit", "alternating", 0.5),
    (0.001, "sine", "gamma_plus_log_2pi_n", "all_n", 0.5),
    (0.999, "cosine", "unit", "all_n", 0.9),
    (0.002, "cosine", "unit", "odd_only", -1.5),
    (1.0 / 2730.0, "cosine", "log_n", "all_n", -1.5),
    (1.0 / 2730.0, "sine", "unit", "all_n", 0.9),
    (1.0 - 1.0 / 2730.0, "sine", "log_2pi_n", "all_n", 0.5),
    (1.0 - 1.0 / 1365.0, "cosine", "gamma_plus_log_2pi_n", "alternating", 0.9),
]


@pytest.mark.parametrize("x, trig, weight, parity, s", SERIES_POINTS)
def test_trig_dirichlet_sum_error_estimate_is_honest(x, trig, weight, parity, s):
    res = trig_dirichlet_sum(TrigSeriesSpec(x, trig, weight, parity, s))
    ref = mp_trig_series(x, trig, weight, parity, s)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


def _band_points():
    """Series in the edge band, where the square relation takes each
    master sum to interior phases: s at 0, -1 and -2 and within 1e-9 to
    1e-3 of them, phases from the guard (a phase of 1.59e-10) to 0.07,
    next to 0 and to 1, weights in turn.  Then phases 3.67e-4 from an
    integer, where the earlier blocked route stopped, at s up to 0.99999
    and every weight."""
    phases = (1.6e-10, 1.0 - 1e-8, 1e-6, 1.0 - 1e-4, 3.67e-4, 1.0 - 0.01, 0.07)
    weights = ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
    points, k = [], 0
    for j in (0.0, -1.0, -2.0):
        for d in (0.0, -1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3):
            if d == 0.0 and j == 0.0:
                continue
            for w in weights:
                points.append((phases[k % 7], ("sine", "cosine")[k % 2], w, "all_n", j + d))
                k += 1
    for s in (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999):
        for x in (3.67e-4, 1.0 - 3.67e-4):
            for w in weights:
                points.append((x, ("sine", "cosine")[k % 2], w, "all_n", s))
                k += 1
    return points


@pytest.mark.parametrize("x, trig, weight, parity, s", _band_points())
def test_edge_band_series_error_estimate_is_honest(x, trig, weight, parity, s):
    res = trig_dirichlet_sum(TrigSeriesSpec(x, trig, weight, parity, s))
    ref = mp_trig_series(x, trig, weight, parity, s)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


# Limits at both targets and scales, parities in turn, a third of them
# with a log weight.  The log weights at s* = 1 and n_power scale have
# 138 more points in test_regsum.test_limit_error_estimate_is_honest.
_rng_limit = random.Random(1803)
LIMIT_POINTS = [
    (_edge_or_interior_x(_rng_limit), _rng_limit.choice(("sine", "cosine")),
     _LOG_WEIGHTS[k % 3] if k % 6 in (0, 1) else "unit", _PARITIES[k % 3],
     ("n_power", "two_pi_n_power")[k % 2], float(k % 4 < 2))
    for k in range(36)
] + [
    # An alternating limit whose phase, next to 1/2, puts the plain
    # head's odd-n angles next to pi, each rounded the same way: off by
    # 3.35e-14 against a claim of 2.51e-14 before the head's phase
    # rounding was counted.
    (2.8736701911716408e-08, "sine", "log_n", "alternating", "two_pi_n_power", 1.0),
]


def _edge_limit_points():
    """Limits at a phase d from an integer, d log-spaced over [1e-9,
    0.077], for every weight, parity and scale at s* in {0, 1}.

    all_n takes x = d and 1 - d in turn, odd_only x = 2d (phases d and
    2d) and 1 - d; alternating reaches the edge band only next to
    x = 1, at x = 1 - 2d.  Each (parity, s*) pair has eight x, shared
    by unit weight at both scales and by two of the six (log weight,
    scale) pairs in turn, whose mpmath sum is one per x.
    """
    scales = ("n_power", "two_pi_n_power")
    log_pairs = [(w, sc) for w in _LOG_WEIGHTS for sc in scales]
    points = []
    for s_target in (0.0, 1.0):
        for parity in _PARITIES:
            for j in range(8):
                d = 1e-9 * (0.077 / 1e-9) ** (j / 7)
                if parity == "alternating":
                    x = 1.0 - 2.0 * d
                elif j % 2:
                    x = 1.0 - d
                else:
                    x = 2.0 * d if parity == "odd_only" else d
                trig = ("sine", "cosine")[j // 2 % 2]
                pairs = [("unit", sc) for sc in scales]
                if parity != "odd_only":
                    pairs += log_pairs[2 * j % 6: 2 * j % 6 + 2]
                points += [(x, trig, w, parity, sc, s_target) for w, sc in pairs]
    return points


EDGE_LIMIT_POINTS = _edge_limit_points()


@pytest.mark.parametrize("x, trig, weight, parity, scale, s_target", EDGE_LIMIT_POINTS)
def test_edge_limit_error_estimate_is_honest(x, trig, weight, parity, scale, s_target):
    res = regularized_limit(x, trig, weight, parity, scale, s_target)
    ref = mp_trig_series(x, trig, weight, parity, s_target, scale)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


@pytest.mark.parametrize("x, trig, weight, parity, scale, s_target", LIMIT_POINTS)
def test_regularized_limit_error_estimate_is_honest(x, trig, weight, parity, scale, s_target):
    res = regularized_limit(x, trig, weight, parity, scale, s_target)
    ref = mp_trig_series(x, trig, weight, parity, s_target, scale)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )


def _whole_circle_points():
    """Log-weighted limits whose master sums' phase y runs over (-1/2,
    1/2]: at every phase each is the series about z = 1.

    Per s* and parity: y = 1/2 (ALTLOG's point), y next to +-1/13 on
    both sides (the edge of the band that series once kept to) and six
    seeded y, shared by the six (log weight, scale) pairs so that one
    mpmath sum serves six rows.  all_n takes x = y mod 1, whose phase is
    y; alternating takes x = 1 - 2|y|, whose phase is -|y|, and x = 2^-30
    (phase -1/2 + 2^-31) for y = 1/2, as x = 0 lies outside (0, 1).
    """
    rng = random.Random(3101)
    band = 1.0 / 13.0
    ys = [0.5] + [sign * band * f for sign in (1.0, -1.0) for f in (1.0 - 1e-3, 1.0 + 1e-3)]
    pairs = [(w, sc) for w in _LOG_WEIGHTS for sc in ("n_power", "two_pi_n_power")]
    points = []
    for s_target in (0.0, 1.0):
        for parity in ("all_n", "alternating"):
            for j, y in enumerate(ys + [rng.uniform(-0.5, 0.5) for _ in range(6)]):
                if parity == "all_n":
                    x = y % 1.0
                else:
                    x = max(1.0 - 2.0 * abs(y), 2.0**-30)
                trig = ("sine", "cosine")[j % 2]
                points += [(x, trig, w, parity, sc, s_target) for w, sc in pairs]
    return points


@pytest.mark.parametrize("x, trig, weight, parity, scale, s_target", _whole_circle_points())
def test_log_weighted_limit_over_the_whole_circle_is_honest(x, trig, weight, parity, scale,
                                                            s_target):
    res = regularized_limit(x, trig, weight, parity, scale, s_target)
    assert res.method_tag == "series-at-one"
    ref = mp_trig_series(x, trig, weight, parity, s_target, scale)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )



def _band_switch_pairs():
    """Unit limits at s* = 1 on both sides of the band's edge, |y| =
    0.0768 (B = 7, the series about z = 1) and 0.0770 (B = 6, the
    Euler-summed plain sum), for the phase that crosses it next to
    x = 0 and next to x = 1: all_n at x = d and 1 - d, alternating at
    1 - 2d (its phase is -d; next to x = 0 it lies at 1/2), odd_only
    at x = d, 2d (its x/2 part crosses) and 1 - d."""
    sides = (0.0768, 0.0770)
    xs = {
        "all_n": (lambda d: d, lambda d: 1.0 - d),
        "alternating": (lambda d: 1.0 - 2.0 * d,),
        "odd_only": (lambda d: d, lambda d: 2.0 * d, lambda d: 1.0 - d),
    }
    return [(tuple(f(d) for d in sides), trig, parity, scale)
            for parity, fs in xs.items() for f in fs
            for trig in ("sine", "cosine") for scale in ("n_power", "two_pi_n_power")]


@pytest.mark.parametrize("xs, trig, parity, scale", _band_switch_pairs())
def test_unit_limit_at_one_is_honest_on_both_sides_of_the_band(xs, trig, parity, scale):
    got, refs = [], []
    for x in xs:
        res = regularized_limit(x, trig, "unit", parity, scale, 1.0)
        ref = mp_trig_series(x, trig, "unit", parity, 1.0, scale)
        assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
            x, res.value, ref, res.err_estimate
        )
        got.append(res)
        refs.append(ref)
    # The two routes' errors differ by no more than their two estimates:
    # no step at the switch that either side's claim leaves out.
    inside, outside = got
    step = abs((inside.value - refs[0]) - (outside.value - refs[1]))
    assert step <= inside.err_estimate + outside.err_estimate + 8 * ULP * max(
        1.0, abs(refs[0]), abs(refs[1])), (step, inside.err_estimate, outside.err_estimate)


# Seeded interior phases, some outside [0, 1): the unit weight's master
# sum at s = 1 there is Euler-summed behind a _UNIT_ONE_HEAD-term head.
_rng_unit_one = random.Random(3601)
UNIT_ONE_Y = [_rng_unit_one.uniform(1.0 / 13.0, 12.0 / 13.0) + _rng_unit_one.choice((-1.0, 0.0, 1.0))
              for _ in range(120)]


def _unit_one_parts(y, monkeypatch):
    """The master sum at (y, 1, unit), the same with the 64-term head it
    had before, and z/(1 - z) at 30 digits."""
    import mpmath as mp

    from zetalim import regsum

    short = regsum._master_sum_adaptive(y, 1.0, "unit")
    with monkeypatch.context() as m:
        m.setattr(regsum, "_UNIT_ONE_HEAD", regsum._HEAD_START)
        long = regsum._master_sum_adaptive(y, 1.0, "unit")
    with mp.workdps(30):
        z = mp.exp(2j * mp.pi * mp.mpf(y))
        ref = complex(z / (1 - z))
    return short, long, ref


@pytest.mark.parametrize("y", UNIT_ONE_Y)
def test_unit_master_sum_at_one_is_honest_with_its_short_head(y, monkeypatch):
    from zetalim import regsum

    (value, err, head, series), (_, err64, head64, _), ref = _unit_one_parts(y, monkeypatch)
    assert (head, head64, series) == (regsum._UNIT_ONE_HEAD, regsum._HEAD_START, False)
    assert abs(value - ref) <= err + 4 * ULP * max(1.0, abs(ref)), (value, ref, err)
    # The short head claims no more than the 64-term head did.
    assert err <= err64, (err, err64)


def test_unit_master_sum_at_one_is_no_less_accurate_than_the_64_term_head(monkeypatch):
    # Over the seeded phases the short head's worst relative error is at
    # most the 64-term head's: 2.3e-15 against 9.3e-15 here, and 3.1e-15
    # against 1.2e-14 on 1,500 other seeded phases, at 5 of which the
    # short head was the less accurate.
    worst = [0.0, 0.0]
    for y in UNIT_ONE_Y:
        (value, *_), (value64, *_), ref = _unit_one_parts(y, monkeypatch)
        worst[0] = max(worst[0], abs(value - ref) / abs(ref))
        worst[1] = max(worst[1], abs(value64 - ref) / abs(ref))
    assert worst[0] <= worst[1], worst
