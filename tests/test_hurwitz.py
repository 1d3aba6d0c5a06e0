"""Hurwitz zeta: Euler-Maclaurin and Hasse routes against references."""
import math
import random

import mpmath as mp
import pytest

from oracles import (
    ZETA2_AT_HALF,
    mp_zeta,
    mpf_pow_hasse,
    outcome,
    product_rule_euler_maclaurin,
)
from zetalim import (
    DomainError,
    EvalResult,
    HurwitzQuery,
    PoleError,
    gamma1_finite_difference,
    hurwitz_hasse,
    hurwitz_zeta,
    pole_residue_check,
    registry,
)
from zetalim import hurwitz
from zetalim.result import ConvergenceError

S_ORACLE = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
X_ORACLE = (0.1, 0.25, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("s", S_ORACLE)
@pytest.mark.parametrize("x", X_ORACLE)
def test_em_matches_reference(s, x):
    got = hurwitz_zeta(HurwitzQuery(s, x)).value
    want = mp_zeta(s, x, 0)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("s", S_ORACLE)
@pytest.mark.parametrize("x", X_ORACLE)
def test_em_derivatives_match_reference(m, s, x):
    # Negative s with m = 2 cancels ~1e4-magnitude terms down to ~1e-2,
    # so a few 1e-11 of term-formation rounding is the binary64 floor.
    got = hurwitz_zeta(HurwitzQuery(s, x, m)).value
    want = mp_zeta(s, x, m)
    assert got == pytest.approx(want, abs=5e-11, rel=5e-11)


def test_basel_value():
    got = hurwitz_zeta(HurwitzQuery(2.0, 1.0)).value
    assert got == pytest.approx(math.pi**2 / 6.0, abs=1e-14)


def test_linear_form_at_s_zero():
    # zeta(0, x) = 1/2 - x must emerge from the continuation.
    for x in (0.3, 0.5, 1.0, 2.7):
        assert hurwitz_zeta(HurwitzQuery(0.0, x)).value == pytest.approx(
            0.5 - x, abs=1e-12
        )
        assert hurwitz_hasse(0.0, x).value == pytest.approx(0.5 - x, abs=1e-12)


def test_error_estimate_band():
    # err_estimate <= 1e-10 over s in [-5, 5], x in [0.01, 10].
    for s in (-5.0, -2.5, -0.5, 0.5, 1.5, 3.0, 5.0):
        for x in (0.01, 0.1, 0.5, 1.0, 5.0, 10.0):
            r = hurwitz_zeta(HurwitzQuery(s, x))
            assert r.err_estimate <= 1e-10, (s, x, r.err_estimate)


def test_derivative_at_zero_is_stirling_constant():
    got = hurwitz_zeta(HurwitzQuery(0.0, 1.0, 1)).value
    assert got == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-13)


def test_second_derivative_at_half():
    got = hurwitz_zeta(HurwitzQuery(0.0, 0.5, 2)).value
    assert got == pytest.approx(ZETA2_AT_HALF, abs=1e-12)


def test_hasse_agrees_with_em_on_grid():
    ss = (-2.5, -1.0, -0.25, 0.5, 1.5, 3.0)
    xs = (0.1, 0.5, 1.0, 2.5, 10.0)
    for s in ss:
        for x in xs:
            a = hurwitz_zeta(HurwitzQuery(s, x)).value
            b = hurwitz_hasse(s, x).value
            assert a == pytest.approx(b, abs=1e-9, rel=1e-9), (s, x)


@pytest.mark.parametrize("s,x", [(-1.5, 0.3), (0.5, 1.0), (2.0, 0.25)])
def test_hasse_matches_reference(s, x):
    got = hurwitz_hasse(s, x).value
    want = mp_zeta(s, x, 0)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_hasse_classic_values():
    assert hurwitz_hasse(2.0, 1.0).value == pytest.approx(
        math.pi**2 / 6.0, abs=1e-9
    )
    assert hurwitz_hasse(-1.0, 1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-12)


@pytest.mark.parametrize("s", [-2.0, -0.5, 0.5, 3.0])
@pytest.mark.parametrize("x", [0.25, 1.0, 2.0])
def test_derivatives_consistent_with_central_differences(s, x):
    # Step-1e-4 central differences of order m track order m+1.  The
    # scheme's own h^2/6 truncation reaches 1.3e-6 at s = 0.5, where
    # the pole makes the fourth derivative ~770, hence the 2e-6 band.
    h = 1e-4
    for m in (0, 1):
        hi = hurwitz_zeta(HurwitzQuery(s + h, x, m)).value
        lo = hurwitz_zeta(HurwitzQuery(s - h, x, m)).value
        analytic = hurwitz_zeta(HurwitzQuery(s, x, m + 1)).value
        assert (hi - lo) / (2.0 * h) == pytest.approx(analytic, abs=2e-6)


def test_pole_raises_in_both_routes():
    with pytest.raises(PoleError):
        hurwitz_zeta(HurwitzQuery(1.0, 0.7))
    with pytest.raises(PoleError):
        hurwitz_zeta(HurwitzQuery(1.0 + 1e-9, 0.7))
    with pytest.raises(PoleError):
        hurwitz_hasse(1.0, 0.7)


def test_em_next_to_the_pole_returns_a_dominant_term():
    # At s - 1 = 1.9e-7 the pole piece's -a^(1-s)/(s-1)^2 dominates the
    # m = 1 sum, and the plain sum of |terms| rounds below fsum's |value|.
    # The rounding term must then be 0: EvalResult refuses a negative
    # one, and hurwitz_zeta would raise ConvergenceError.
    s, x = 1.000000189341476, 2.1147074799201824
    res = hurwitz_zeta(HurwitzQuery(s, x, 1))
    assert res.method_tag == "em" and res.err_estimate >= 0.0
    assert res.value == pytest.approx(mp_zeta(s, x, 1), rel=4 * 2.0**-52)


def test_query_validation():
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, 0.0)
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, -1.0)
    with pytest.raises(DomainError):
        HurwitzQuery(2.0, 1.0, 3)
    with pytest.raises(DomainError):
        hurwitz_hasse(2.0, -0.5)


def test_query_holds_its_fields_and_reprs_them():
    q = HurwitzQuery(s=0.5, x=0.3)
    assert (q.s, q.x, q.m) == (0.5, 0.3, 0)
    assert repr(q) == "HurwitzQuery(s=0.5, x=0.3, m=0)"


def test_hasse_reports_nonconvergence_when_starved(monkeypatch):
    monkeypatch.setattr(hurwitz, "_HASSE_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError):
        hurwitz_hasse(0.5, 0.3)


@pytest.mark.parametrize(
    "s, x",
    [(50.0, 0.5), (30.0, 0.5), (1.0 + 1e-9, 1.0), (1.0 - 1e-9, 1.0),
     (2.0, 1e-5), (3.0, 1e-3), (1.5, 1e-6), (0.5, 1e-17)],
)
def test_hasse_returns_large_values_correctly_rounded(s, x):
    # The estimate carries 1e-16 |zeta| of rounding, so the stall check
    # is relative: an absolute 1e-8 refused every |zeta| above about 1e8.
    # zeta(50, 0.5) rounds to 2^50 = 1125899906842624.
    r = hurwitz_hasse(s, x)
    with mp.workdps(40):
        ref = mp.zeta(s, x)
        assert r.value == float(ref)
        assert abs(r.value - ref) <= r.err_estimate


@pytest.mark.parametrize("s, x", [(50.0, 1e-7), (400.0, 0.1), (1e20, 0.5)])
def test_hasse_value_outside_binary64_is_a_convergence_error(s, x):
    # zeta(50, 1e-7) is about 1e350: float() of it is inf, which the
    # relative stall check alone would let through.
    with pytest.raises(ConvergenceError, match="leaves binary64"):
        hurwitz_hasse(s, x)


@pytest.mark.parametrize("s, x", [(-1e5, 1.0), (-1e6, 1.0), (-1e300, 1e3)])
def test_hasse_raises_before_its_integers_outgrow_the_budget(monkeypatch, s, x):
    # f(200)/f(0) = (1 + 200/x_eff)^(1-s) is 2.9e5 bits at s = -1e5, x = 1,
    # where the sum took 0.2 s and 33 MB before its value left binary64.
    # The budget raises before the first 80-digit power.
    calls = _count_powers(monkeypatch)
    with pytest.raises(ConvergenceError, match="bit differences"):
        hurwitz_hasse(s, x)
    assert calls == []


def test_hasse_rise_budget_is_far_above_every_returned_value():
    # The largest rise among 3,500 seeded points that return (s in
    # [-400, 0], x log-uniform in [0.05, 1e3]) is 210 bits, here; the sum
    # stalls past it at 80 digits.
    s, x = -88.69164587433306, 49.27539464749718
    rise = (1.0 - s) * math.log2(1.0 + hurwitz._HASSE_MAX_TERMS / x)
    assert 200.0 < rise < hurwitz._HASSE_MAX_RISE / 4
    r = hurwitz_hasse(s, x)
    assert abs(r.value - mp_zeta(s, x, 0)) <= r.err_estimate


@pytest.mark.parametrize("x", [0.5, 1.0, 3.7])
def test_pole_residue_is_one(x):
    assert pole_residue_check(x) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "quantity",
    [
        pole_residue_check,
        lambda x: next(c for c in registry() if c.id == "EQ3.2").lhs({"x": x}),
        gamma1_finite_difference,
    ],
    ids=["residue", "EQ3.2-gamma0", "gamma1"],
)
def test_pole_quantities_share_one_ten_sample_ladder(monkeypatch, quantity):
    # Residue, gamma_0 and gamma_1 each take zeta(1 +- h, x) at
    # h = 0.25 2^-k, k = 0..4, and nothing else.
    seen = []
    original = hurwitz.hurwitz_zeta

    def counted(q):
        seen.append(q.s)
        return original(q)

    monkeypatch.setattr(hurwitz, "hurwitz_zeta", counted)
    quantity(0.3)
    steps = [0.25 * 2.0**-k for k in range(5)]
    assert sorted(seen) == sorted([1.0 + h for h in steps] + [1.0 - h for h in steps])


@pytest.mark.parametrize(
    "quantity",
    [
        pole_residue_check,
        lambda x: hurwitz._pole_limit(x, "gamma0"),
        gamma1_finite_difference,
    ],
    ids=["residue", "gamma0", "gamma1"],
)
def test_pole_ladder_without_a_significant_digit_raises(quantity):
    # Unchecked, x = 1e300 gave a residue of 6.9e68 (the exact one is 1) and
    # gamma_1 = -1.1e70 +- 1.1e70.
    with pytest.raises(ConvergenceError, match="no significant digit"):
        quantity(1e300)


@pytest.mark.parametrize("part", ["residue", "gamma0", "gamma1"])
def test_pole_ladder_at_large_x_stays_within_its_estimate(part):
    x = 1e20
    with mp.workdps(30):
        want = {"residue": mp.mpf(1), "gamma0": -mp.digamma(x),
                "gamma1": mp.stieltjes(1, x)}[part]
        r = hurwitz._pole_limit(x, part)
        assert abs(r.value - want) <= r.err_estimate


def test_result_invariants():
    r = hurwitz_zeta(HurwitzQuery(2.0, 1.0))
    assert isinstance(r, EvalResult)
    assert r.err_estimate >= 0.0
    assert r.terms_used >= 1
    assert r.method_tag
    assert r.err_estimate < 1e-12
    with pytest.raises(ValueError):
        EvalResult(1.0, -1.0, 3, "x")
    with pytest.raises(ValueError):
        EvalResult(1.0, 0.0, 0, "x")


@pytest.mark.parametrize(
    "s, x",
    [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (2.0, math.inf), (2.0, math.nan)],
)
def test_query_rejects_non_finite_input(s, x):
    with pytest.raises(DomainError):
        HurwitzQuery(s, x)


@pytest.mark.parametrize(
    "s, x",
    [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (2.0, math.inf), (2.0, math.nan)],
)
def test_hasse_rejects_non_finite_input(s, x):
    with pytest.raises(DomainError):
        hurwitz_hasse(s, x)


@pytest.mark.parametrize("s", [-1e4, -400.0, 1e4])
def test_em_overflow_is_a_convergence_error(s):
    # (n + x)^(-s) leaves the binary64 range in the direct head sum.
    with pytest.raises(ConvergenceError, match=r"s = .*x = 0\.5"):
        hurwitz_zeta(HurwitzQuery(s, 0.5))


@pytest.mark.parametrize(
    "s, x, terms, value",
    [
        (0.5, 0.25, 76, 0.23996352449563096),
        (-1.5, 3.0, 69, -3.8539123266360233),
        (1.8, 1.0, 72, 1.882229618102822),
        (3.0, 1.0, 71, 1.2020569031595942),
    ],
)
def test_hasse_term_count_and_value_are_pinned(s, x, terms, value):
    # The series stops after three outer terms in a row whose share of
    # the value is at most 1e-23 |zeta|, tested in fixed-point integers.
    # The values are the floats an 80-digit mpf sum stopped at 1e-30
    # returns: the earlier stop must round to the same float.
    r = hurwitz_hasse(s, x)
    assert r.terms_used == terms
    assert r.value == value


def _count_powers(monkeypatch):
    """Make every power that `hurwitz._hasse_power` hands out, on either of
    its routes, append its base (k, q) to the list returned."""
    calls = []
    factory = hurwitz._hasse_power

    def counted_factory(t, prec, rnd):
        power = factory(t, prec, rnd)

        def counted(k, q):
            calls.append((k, q))
            return power(k, q)
        return counted

    monkeypatch.setattr(hurwitz, "_hasse_power", counted_factory)
    return calls


@pytest.mark.parametrize(
    "s, x",
    [(50.0, 0.5), (0.5, 0.25), (-11.5, 0.3), (2.0, 40.0), (50.0, 1000.0),
     (0.3, 0.7), (2.7, 12.0), (-5.3, 0.02), (1100.0, 1200.0)],
)
def test_hasse_takes_one_power_per_term(monkeypatch, s, x):
    # Deterministic cost guard: one 80-digit power per prefix term and
    # per outer term, f(0) = x_eff^(1-s) serving the scale exponent too.
    # The first five points take mpf_pow's exact route, the rest the
    # fixed-point one.
    calls = _count_powers(monkeypatch)
    r = hurwitz_hasse(s, x)
    assert len(calls) == r.terms_used


@pytest.mark.parametrize("s", [1.6, 1.8, 2.5, 3.0])
@pytest.mark.parametrize("x", [0.05, 1.0, 19.0])
def test_hasse_within_its_error_estimate_past_160_terms(s, x):
    # Slow points: 28-51 outer terms after the shift to x >= 30 + (s - 1)
    # (160-175 under a 1e-30 stop and a shift to x >= 20, hence the name).
    r = hurwitz_hasse(s, x)
    ref = mp_zeta(s, x, 0)
    assert abs(r.value - ref) <= r.err_estimate + 1e-15 * max(1.0, abs(ref))


def _hasse_grid(count=40, seed=9):
    # s in [-2, 3] outside 1 +- 0.02, x log-uniform in [0.05, 20].
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        s = rng.uniform(-2.0, 3.0)
        if abs(s - 1.0) >= 0.02:
            pts.append((s, math.exp(rng.uniform(math.log(0.05), math.log(20.0)))))
    return pts


def test_hasse_is_correctly_rounded_on_a_seeded_grid():
    with mp.workdps(50):
        misses = [
            (s, x) for s, x in _hasse_grid()
            if hurwitz_hasse(s, x).value != float(mp.zeta(s, x))
        ]
    assert misses == []


def test_hasse_outer_terms_stay_bounded_on_a_seeded_grid():
    # Deterministic cost guard: outer terms after the shift to
    # x >= 30 + max(0, s - 1) (30-52 on this grid).
    outer = [
        hurwitz_hasse(s, x).terms_used
        - max(0, math.ceil(hurwitz._HASSE_SHIFT + max(0.0, s - 1.0) - x))
        for s, x in _hasse_grid()
    ]
    assert max(outer) <= 60


@pytest.mark.parametrize("s, x", [(500.0, 0.9), (1e4, 1.0), (1e6, 1.0)])
def test_hasse_shift_stops_at_its_cap(s, x):
    # Past a shift of 400 the outer sum lies below the value's last bit,
    # so s = 1e6 stops at the same 400-term shift as s = 500.
    r = hurwitz_hasse(s, x)
    assert r.terms_used == hurwitz._HASSE_MAX_SHIFT + 3
    with mp.workdps(40):
        assert r.value == float(mp.fsum((n + mp.mpf(x)) ** -s for n in range(10)))


@pytest.mark.parametrize("s", [1e8, 1e20, 1e300])
def test_hasse_at_huge_s_returns_one_within_its_estimate(monkeypatch, s):
    # f(0) = 401^(1-s) lies s log2(401) bits below the prefix: fixed-point
    # units tied to it alone make a 108 MB integer at s = 1e8 and raise
    # OverflowError from about s = 1e18.  Only the prefix's first term
    # and three outer terms are powers.
    calls = _count_powers(monkeypatch)
    r = hurwitz_hasse(s, 1.0)
    assert (r.value, r.terms_used, len(calls)) == (1.0, hurwitz._HASSE_MAX_SHIFT + 3, 4)
    with mp.workdps(40):
        assert abs(r.value - (1 + mp.mpf(2) ** -s)) <= r.err_estimate


@pytest.mark.parametrize("s, x", [(1e-3, 1e-310), (0.1, 5e-324), (0.36, 2e-308)])
def test_hasse_keeps_every_prefix_term_at_subnormal_x(s, x):
    # Prefix terms fall by s log2((j + x)/x) bits; formed as 1 + j/x that
    # ratio overflowed to inf below x ~ 1.6e-307 and every term past j = 0
    # was dropped: (1e-3, 1e-310) returned -27.39 for 1.5408.
    r = hurwitz_hasse(s, x)
    with mp.workdps(50):
        ref = mp.zeta(s, x)
        assert r.value == float(ref)
        assert abs(r.value - ref) <= r.err_estimate


@pytest.mark.parametrize("s", [-5.5, -9.5, -11.5])
@pytest.mark.parametrize("x", [0.05, 0.3, 1.0])
def test_hasse_keeps_its_digits_where_the_prefix_cancels(s, x):
    # zeta is ~1e-2 here while the prefix and the outer sum / (s-1) are
    # ~20^(1-s); a stop weighed against the outer sum alone loses up to
    # 7 digits (9e-14 relative at s = -5.5, 1.1e-7 at -11.5).
    with mp.workdps(50):
        ref = mp.zeta(s, x)
        assert abs(hurwitz_hasse(s, x).value - ref) <= 1e-15 * abs(ref)


def _hasse_points(seed):
    # s in [-12, 60] with x log-uniform over [0.01, 2000], then the cli
    # range: s in [-2, 1.5] outside 1 +- 0.05, x log-uniform over [0.05, 20].
    rng = random.Random(seed)
    pts = [(rng.uniform(-12.0, 60.0), math.exp(rng.uniform(math.log(0.01), math.log(2000.0))))
           for _ in range(200)]
    while len(pts) < 400:
        s = rng.uniform(-2.0, 1.5)
        if abs(s - 1.0) >= 0.05:
            pts.append((s, math.exp(rng.uniform(math.log(0.05), math.log(20.0)))))
    return pts


# Subnormal and tiny x (exact bases of up to 1,100 bits, on both routes),
# the cancelling prefix at s = -11.5, the 400-term shift, huge s, and
# s = 1e-300, whose 1 - s rounds to 1 at 80 digits.
_HASSE_EDGES = [(1e-3, 1e-310), (0.1, 5e-324), (0.36, 2e-308), (-2.3, 5e-324),
                (2.5, 1e-70), (-1.5, 1e-40), (2.0, 1e-300), (-11.5, 1e-100),
                (-11.5, 0.3), (-11.5, 30.0), (500.0, 0.9),
                (1e6, 1.0), (1e8, 1.0), (1e20, 1.0), (1e300, 1.0), (1e-300, 0.7)]


@pytest.mark.parametrize("seed", [3801, 3802])
def test_hasse_matches_the_mpf_pow_loop_bit_for_bit(seed):
    # The fixed-point powers differ from mpf_pow's in their last bits
    # only, far below what the value or the error estimate keep.
    pts = _hasse_points(seed) + (_HASSE_EDGES if seed == 3801 else [])
    misses = [(s, x) for s, x in pts
              if outcome(hurwitz_hasse, s, x) != outcome(mpf_pow_hasse, s, x)]
    assert misses == []


def test_hasse_at_its_rise_budget_matches_the_mpf_pow_loop_but_the_estimate():
    # The largest rise that returns (see the test above on the budget):
    # its last outer term lies at the powers' rounding floor, so its share,
    # the error estimate, moves in the ninth digit (2.271371013489255e133
    # against 2.271371023764211e133).
    s, x = -88.69164587433306, 49.27539464749718
    got, want = outcome(hurwitz_hasse, s, x), outcome(mpf_pow_hasse, s, x)
    assert (got[0], got[2]) == (want[0], want[2])
    assert got[1] == pytest.approx(want[1], rel=1e-6)


@pytest.mark.parametrize("s", [2.0, 3.0, 50.0, 0.0, -1.0, 0.5, -1.5])
def test_hasse_leaves_exact_exponents_to_mpf_pow(monkeypatch, s):
    # Integer and half-integer exponents below 2^10 are cheaper as mpf_pow's
    # squarings and square root than as a fixed-point exponential, and
    # return the loop's bits.
    import mpmath.libmp.libelefun as libelefun

    calls = []
    kernel = libelefun.exp_basecase
    monkeypatch.setattr(libelefun, "exp_basecase", lambda *a: calls.append(a) or kernel(*a))
    for x in (0.01, 0.3, 1.0, 20.0, 2000.0):
        got = outcome(hurwitz_hasse, s, x)
        assert calls == []
        assert got == outcome(mpf_pow_hasse, s, x)


def test_hasse_fixed_point_power_is_within_its_precision():
    # The fixed-point route rests on two private mpmath kernels,
    # log_taylor_cached and exp_basecase; each (k + x)^t, t = -s or 1 - s,
    # must lie within 2^-prec of 120-digit mpmath.  x is subnormal (its
    # 1,000-bit k + x is cut to the logarithm's width), tiny or up to 2000,
    # s in [-400, 60] or 1e300.
    from mpmath.libmp import from_man_exp

    rng = random.Random(3803)
    draws = []
    for i in range(240):
        if i % 4 == 0:
            x = math.ulp(0.0) * rng.randrange(1, 1 << 20)
        elif i % 4 == 1:
            x = math.exp(rng.uniform(math.log(1e-300), math.log(1e-20)))
        else:
            x = math.exp(rng.uniform(math.log(0.01), math.log(2000.0)))
        s = 1e300 if i % 15 == 14 else rng.uniform(-400.0, 60.0)
        draws.append((rng.randrange(0, 401), x, s))
    misses = []
    for k, x, s in draws:
        xm, den = x.as_integer_ratio()
        q = den.bit_length() - 1
        base = mp.make_mpf(from_man_exp((k << q) + xm, -q))  # exact
        with mp.workdps(80):
            prec, rnd = mp.mp._prec_rounding
            for t in ((-mp.mpf(s))._mpf_, (1 - mp.mpf(s))._mpf_):
                man, exp = hurwitz._hasse_power(t, prec, rnd)((k << q) + xm, q)
                with mp.workdps(120):
                    ref = base ** mp.make_mpf(t)
                    if not abs(mp.ldexp(man, exp) / ref - 1) <= mp.ldexp(1, -prec):
                        misses.append((k, x, s, t))
    assert misses == []


@pytest.mark.parametrize(
    "s, x",
    [(-185.93208121661354, 15.219553722904008), (-207.89101520727104, 0.05403002853975402)],
)
def test_em_terms_of_both_signs_overflowing_are_a_convergence_error(s, x):
    # With a 30-term head the m = 2 terms reached +inf and -inf, which
    # fsum refuses to add.  The six-term head keeps them finite, but
    # their cancellation leaves an error estimate larger than the value:
    # no significant digit, so still a ConvergenceError.
    with pytest.raises(ConvergenceError, match=rf"s = {s!r}, x = {x!r}"):
        hurwitz_zeta(HurwitzQuery(s, x, 2))


@pytest.mark.parametrize("seed", [21, 22])
def test_em_matches_the_product_rule_loop_bit_for_bit(seed):
    # The m = 0 route drops the derivative chain and builds its head and
    # corrections in comprehensions; no output may move a bit, at any m.
    rng = random.Random(seed)
    log_x = (math.log(1e-3), math.log(60.0))
    points = [(float(s), x) for s in range(-30, 13) if s != 1 for x in (0.5, 0.05, 20.0)]
    points += [(s, x) for s in (-0.0, 1.0 - 1e-7, 1.0 + 1e-7) for x in (0.05, 0.5, 20.0)]
    points.append((1.000000189341476, 2.1147074799201824))  # nothing cancels at m = 1
    points += [(rng.uniform(-30.0, 12.0), math.exp(rng.uniform(*log_x))) for _ in range(1000)]
    for s, x in points:
        for m in (0, 1, 2):
            r = hurwitz._euler_maclaurin(s, x, m)
            got = (r.value, r.err_estimate, r.terms_used)
            assert got == product_rule_euler_maclaurin(s, x, m), (s, x, m)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize(
    "s, x",
    [(-1e4, 0.5), (-400.0, 0.5), (1e4, 0.5),
     (-185.93208121661354, 15.219553722904008), (-207.89101520727104, 0.05403002853975402)],
)
def test_em_overflows_like_the_product_rule_loop(s, x, m):
    # The points of the two overflow tests above: the engine and the
    # loop raise the same exception, or return the same numbers.
    got = outcome(hurwitz._euler_maclaurin, s, x, m)
    assert got == outcome(product_rule_euler_maclaurin, s, x, m)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("s", [-2.5, 0.5, 3.0])
def test_em_sums_twenty_terms(s, m):
    # Deterministic cost guard: a six-term head, the pole and boundary
    # pieces and 12 Bernoulli pairs.
    assert hurwitz_zeta(HurwitzQuery(s, 0.3, m)).terms_used == 20


@pytest.mark.parametrize("n", range(32))
def test_nonpositive_integer_s_is_exact(n):
    # zeta(-n, x) = -B_{n+1}(x)/(n+1), correctly rounded, claiming at most
    # half an ulp.  200 digits carry the cancellation of B_{n+1}(x)'s
    # terms (up to 60^32) down to its value.
    rng = random.Random(3100 + n)
    xs = [0.25, 0.3, 0.5, 1.0, 2.0, 10.0] + [
        math.exp(rng.uniform(math.log(1e-3), math.log(60.0))) for _ in range(10)
    ]
    for x in xs:
        r = hurwitz_zeta(HurwitzQuery(float(-n), x))
        with mp.workdps(200):
            want = float(-mp.bernpoly(n + 1, x) / (n + 1))
        assert r.value == want, (x, r.value, want)
        assert r.err_estimate <= 0.5 * math.ulp(r.value)
