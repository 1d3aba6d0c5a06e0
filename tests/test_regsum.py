"""Weighted trigonometric Dirichlet series and their regularized limits."""
import math

import pytest

from oracles import (
    CATALAN,
    ETA_PRIME_AT_1,
    HALF_LOG_HALF_PI,
    K_LOG_COS_LIMIT_AT_03,
    brute_partial_trig,
    mp_weighted_sum,
    psi_formula_target,
)
from zetalim import (
    ConvergenceError,
    DomainError,
    ExtrapolationPath,
    TrigSeriesSpec,
    alternating_log_limit,
    closed_form,
    deninger_cos_log_sum,
    kummer_sine_series,
    log_sine_fourier,
    log_sine_fourier_target,
    regularized_limit,
    trig_dirichlet_sum,
)


def test_spec_validation():
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.0, "sine", "unit")
    with pytest.raises(DomainError):
        TrigSeriesSpec(1.0, "sine", "unit")
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "tan", "unit")
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "sqrt")
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "unit", parity="even")
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "unit", scale="pi_n")
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "log_n", parity="odd_only")


def test_path_offsets():
    p = ExtrapolationPath(target=1.0)
    assert len(p.offsets) == 9
    assert p.offsets[0] == 0.25
    assert p.offsets[-1] == 0.25 * 2.0**-8
    with pytest.raises(DomainError):
        ExtrapolationPath(target=0.5)
    with pytest.raises(DomainError):
        ExtrapolationPath(target=1.0, h0=0.3)
    with pytest.raises(DomainError):
        ExtrapolationPath(target=1.0, depth=4)


@pytest.mark.parametrize("s", [-1.0, 0.25, 0.5])
@pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_unit_weight_matches_reference(s, x, trig):
    got = trig_dirichlet_sum(TrigSeriesSpec(x, trig, "unit", s=s))
    want = mp_weighted_sum(x, s, "unit", trig)
    assert got.value == pytest.approx(want, abs=1e-10)
    assert got.err_estimate < 1e-9


@pytest.mark.parametrize("s", [0.0, -0.5])
@pytest.mark.parametrize("x", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("weight", ["log_n", "log_2pi_n", "gamma_plus_log_2pi_n"])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_log_weights_match_reference(s, x, weight, trig):
    got = trig_dirichlet_sum(TrigSeriesSpec(x, trig, weight, s=s)).value
    want = mp_weighted_sum(x, s, weight, trig)
    assert got == pytest.approx(want, abs=1e-10)


def test_catalan_value():
    # All-n phase 2 pi n x at x = 1/4: sum sin(pi n / 2)/n^2, the even
    # terms vanish and the odd ones alternate, Catalan's constant.
    got = trig_dirichlet_sum(TrigSeriesSpec(0.25, "sine", "unit", s=-1.0)).value
    assert got == pytest.approx(CATALAN, abs=1e-12)
    # Alternating and odd parities use the half phase trig(pi n x), so
    # at x = 1/2, s = -1 the odd sine series is again 1 - 1/9 + ...
    odd = trig_dirichlet_sum(
        TrigSeriesSpec(0.5, "sine", "unit", parity="odd_only", s=-1.0)
    ).value
    assert odd == pytest.approx(CATALAN, abs=1e-12)
    alt = trig_dirichlet_sum(
        TrigSeriesSpec(0.5, "sine", "unit", parity="alternating", s=-1.0)
    ).value
    assert alt == pytest.approx(CATALAN, abs=1e-12)


def test_alternating_basel_value():
    # cos(2 pi n / 2) = (-1)^n, so the all-n cosine series at x = 1/2,
    # s = -1 is sum (-1)^n / n^2 = -pi^2/12.
    got = trig_dirichlet_sum(TrigSeriesSpec(0.5, "cosine", "unit", s=-1.0)).value
    assert got == pytest.approx(-math.pi**2 / 12.0, abs=1e-12)


def test_alternating_cosine_value():
    got = trig_dirichlet_sum(
        TrigSeriesSpec(0.5, "cosine", "unit", parity="alternating", s=-1.0)
    ).value
    # sum (-1)^(n+1) cos(pi n / 2) / n^2 keeps only n = 2m with value
    # -(-1)^m / (4 m^2), i.e. (1/4) eta(2) = pi^2/48.
    assert got == pytest.approx(math.pi**2 / 48.0, abs=1e-12)


def test_sine_vanishes_at_half():
    got = trig_dirichlet_sum(TrigSeriesSpec(0.5, "sine", "unit", s=0.5)).value
    assert got == pytest.approx(0.0, abs=1e-12)


def test_rejects_s_at_or_above_one():
    with pytest.raises(ConvergenceError):
        trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=1.0))
    with pytest.raises(ConvergenceError):
        trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=1.5))


@pytest.mark.parametrize("x", [0.15, 0.35, 0.45])
@pytest.mark.parametrize("s", [-0.5, 0.25])
def test_alternating_decomposition_unit(x, s):
    # sum (-1)^(n+1) trig(pi n x) n^{s-1}
    #   = sum trig(pi n x) n^{s-1} - 2 sum over even n
    #   = full(x/2) - 2^s full(x) in the all-n 2 pi phase convention.
    for trig in ("sine", "cosine"):
        alt = trig_dirichlet_sum(
            TrigSeriesSpec(x, trig, "unit", parity="alternating", s=s)
        ).value
        half = trig_dirichlet_sum(TrigSeriesSpec(x / 2.0, trig, "unit", s=s)).value
        full = trig_dirichlet_sum(TrigSeriesSpec(x, trig, "unit", s=s)).value
        assert alt == pytest.approx(half - 2.0**s * full, abs=1e-9), (trig, x, s)


@pytest.mark.parametrize("x", [0.2, 0.45])
def test_odd_decomposition_unit(x):
    # sum over odd n of trig(pi n x) n^{s-1} = full(x/2) - 2^{s-1} full(x).
    s = 0.25
    odd = trig_dirichlet_sum(
        TrigSeriesSpec(x, "sine", "unit", parity="odd_only", s=s)
    ).value
    half = trig_dirichlet_sum(TrigSeriesSpec(x / 2.0, "sine", "unit", s=s)).value
    full = trig_dirichlet_sum(TrigSeriesSpec(x, "sine", "unit", s=s)).value
    assert odd == pytest.approx(half - 2.0 ** (s - 1.0) * full, abs=1e-9)


def test_two_pi_scale_multiplies_value():
    spec_n = TrigSeriesSpec(0.3, "cosine", "log_n", s=-0.5)
    spec_2pin = TrigSeriesSpec(0.3, "cosine", "log_n", s=-0.5, scale="two_pi_n_power")
    a = trig_dirichlet_sum(spec_n)
    b = trig_dirichlet_sum(spec_2pin)
    factor = (2.0 * math.pi) ** (-1.5)
    assert b.value == pytest.approx(a.value * factor, rel=1e-13)
    assert b.err_estimate < 1e-9


def test_alternating_log_intermediate_is_tight():
    r = trig_dirichlet_sum(
        TrigSeriesSpec(0.5, "cosine", "log_n", s=-0.5, scale="two_pi_n_power")
    )
    assert math.isfinite(r.value)
    assert r.err_estimate < 1e-9


def test_edge_band_inflates_error_estimate():
    interior = trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=0.5))
    assert interior.err_estimate <= 1e-10
    edge = trig_dirichlet_sum(TrigSeriesSpec(0.005, "sine", "unit", s=0.5))
    assert edge.err_estimate >= 1e-8


def test_scale_is_immaterial_in_the_limit():
    # (2 pi n)^{s-1} -> n^{s-1} as s -> 1, so regularized limits agree
    # across the whole default grid.
    from zetalim import default_x_grid

    for x in default_x_grid(9):
        a = regularized_limit(x, "sine", "unit").value
        b = regularized_limit(x, "sine", "unit", scale="two_pi_n_power").value
        assert a == pytest.approx(b, abs=2e-7), x


def test_neville_corrections_shrink_along_the_ladder():
    from zetalim.extrapolate import neville_zero

    path = ExtrapolationPath(target=1.0)
    hs = list(path.offsets)
    vs = [
        trig_dirichlet_sum(
            TrigSeriesSpec(0.5, "cosine", "log_n", s=1.0 - h,
                           scale="two_pi_n_power")
        ).value
        for h in hs
    ]
    _, corrections = neville_zero(hs, vs)
    for k in range(2, len(corrections) - 1):
        assert corrections[k + 1] < corrections[k], corrections


@pytest.mark.parametrize("x", [0.2, 0.45])
def test_complex_combination(x):
    # cosine limit + i sine limit = z / (1 - z) with z = e^{2 pi i x}.
    re = regularized_limit(x, "cosine", "unit").value
    im = regularized_limit(x, "sine", "unit").value
    z = complex(math.cos(2.0 * math.pi * x), math.sin(2.0 * math.pi * x))
    target = z / (1.0 - z)
    assert re == pytest.approx(target.real, abs=1e-7)
    assert im == pytest.approx(target.imag, abs=1e-7)


@pytest.mark.parametrize("x", [0.15, 0.35])
def test_alternating_decomposition_log_weight(x):
    # With the log weight the even half contributes ln(2m) = ln 2 +
    # ln m, so the unit series re-enters the decomposition.
    s = -0.5
    alt = trig_dirichlet_sum(
        TrigSeriesSpec(x, "sine", "log_n", parity="alternating", s=s)
    ).value
    half = trig_dirichlet_sum(TrigSeriesSpec(x / 2.0, "sine", "log_n", s=s)).value
    unit = trig_dirichlet_sum(TrigSeriesSpec(x, "sine", "unit", s=s)).value
    logn = trig_dirichlet_sum(TrigSeriesSpec(x, "sine", "log_n", s=s)).value
    even = 2.0**s * (math.log(2.0) * unit + logn)
    assert alt == pytest.approx(half - even, abs=1e-9)


def test_partial_sums_stay_consistent():
    # Direct 10^5-term partial sums at convergent s anchor the engine
    # against sign or phase slips.
    for trig in ("sine", "cosine"):
        got = trig_dirichlet_sum(TrigSeriesSpec(0.37, trig, "unit", s=-1.0)).value
        brute = brute_partial_trig(0.37, -1.0, trig, 100000)
        assert got == pytest.approx(brute, abs=1e-8), trig


def test_vanishing_weighted_tail():
    # (1 - s) sum n^{s-1} sin(2 pi n x) -> 0 as s -> 1: the series has
    # a finite limit there, so the prefactor kills the product.
    from zetalim.extrapolate import neville_zero

    hs = [0.25 * 2.0**-k for k in range(9)]
    vs = [
        h * trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=1.0 - h)).value
        for h in hs
    ]
    limit, _ = neville_zero(hs, vs)
    assert abs(limit) < 1e-7
    lim = regularized_limit(0.3, "sine", "unit")
    assert abs(lim.value - 0.5 * _cot_pi(0.3)) < 1e-7


def _cot_pi(x: float) -> float:
    return math.cos(math.pi * x) / math.sin(math.pi * x)


@pytest.mark.parametrize("x", [0.2, 0.3, 0.5, 0.7])
def test_closed_forms_match_limits(x):
    pairs = [
        ("4.1", regularized_limit(x, "sine", "unit").value),
        ("4.14", regularized_limit(x, "cosine", "unit").value),
        ("4.21", regularized_limit(x, "sine", "unit", parity="alternating").value),
        ("4.22", regularized_limit(x, "cosine", "unit", parity="alternating").value),
        ("4.23", regularized_limit(x, "sine", "unit", parity="odd_only").value),
    ]
    for cid, got in pairs:
        assert got == pytest.approx(closed_form(x, cid), abs=1e-7), cid


def test_closed_form_values_at_quarter():
    assert closed_form(0.25, "4.1") == pytest.approx(0.5, abs=1e-15)
    assert closed_form(0.25, "4.14") == pytest.approx(-0.5, abs=1e-15)
    assert closed_form(0.25, "4.21") == pytest.approx(
        0.5 * math.tan(math.pi / 8.0), abs=1e-15
    )
    assert closed_form(0.25, "4.22") == pytest.approx(0.5, abs=1e-15)
    assert closed_form(0.25, "4.23") == pytest.approx(
        0.5 / math.sin(math.pi / 4.0), abs=1e-15
    )
    assert closed_form(0.5, "4.23") == pytest.approx(0.5, abs=1e-15)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form(0.3, "nope")
    with pytest.raises(DomainError):
        closed_form(0.0, "4.1")
    with pytest.raises(DomainError):
        closed_form(1.0, "4.1")


def test_limit_with_custom_path():
    path = ExtrapolationPath(target=1.0, h0=0.125, depth=7)
    got = regularized_limit(0.25, "sine", "unit", path=path).value
    assert got == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(DomainError):
        regularized_limit(0.25, "sine", "unit", s_target=0.0, path=path)


def test_limit_domain_guard():
    with pytest.raises(DomainError):
        regularized_limit(0.005, "sine", "unit")
    with pytest.raises(DomainError):
        regularized_limit(0.999, "sine", "unit")


def test_deninger_series():
    got = deninger_cos_log_sum(0.5)
    assert got.value == pytest.approx(ETA_PRIME_AT_1, abs=1e-9)
    a = deninger_cos_log_sum(0.3).value
    b = deninger_cos_log_sum(0.7).value
    assert a == pytest.approx(b, abs=1e-9)
    with pytest.raises(DomainError):
        deninger_cos_log_sum(0.005)


def test_kummer_series():
    assert kummer_sine_series(0.5).value == pytest.approx(0.0, abs=1e-9)
    a = kummer_sine_series(0.25).value
    b = kummer_sine_series(0.75).value
    assert a == pytest.approx(-b, abs=1e-8)
    from zetalim.special import EULER_GAMMA, log_gamma

    want = (
        log_gamma(0.25)
        - log_gamma(0.75)
        + 2.0 * EULER_GAMMA * (0.25 - 0.5)
    )
    assert a == pytest.approx(want, abs=1e-7)


def test_log_sine_fourier():
    assert log_sine_fourier(0.5).value == pytest.approx(0.0, abs=1e-9)
    a = log_sine_fourier(0.25).value
    b = log_sine_fourier(0.75).value
    assert a == pytest.approx(-b, abs=1e-8)
    assert a == pytest.approx(log_sine_fourier_target(0.25), abs=1e-7)


def test_alternating_log_limit():
    got = alternating_log_limit()
    assert got.value == pytest.approx(HALF_LOG_HALF_PI, abs=1e-7)


def test_double_cos_log_limit_is_psi_combination():
    got = regularized_limit(0.3, "cosine", "log_n").value
    assert got == pytest.approx(K_LOG_COS_LIMIT_AT_03, abs=1e-7)
    assert 2.0 * got == pytest.approx(psi_formula_target(0.3), abs=1e-7)


@pytest.mark.parametrize(
    "x, case_id, trig, parity",
    [
        (0.01635, "4.23", "sine", "odd_only"),
        (0.01807, "4.23", "sine", "odd_only"),
        (0.98825, "4.21", "sine", "alternating"),
    ],
)
def test_edge_band_limits_do_not_raise(x, case_id, trig, parity):
    # The Neville ladder used to raise "extrapolation unstable" here:
    # rounding noise in the Euler tail moved its samples.
    got = regularized_limit(x, trig, "unit", parity)
    assert abs(got.value - closed_form(x, case_id)) <= got.err_estimate + 1e-13
    ladder = regularized_limit(x, trig, "unit", parity, path=ExtrapolationPath(1.0))
    assert math.isfinite(ladder.value)


@pytest.mark.parametrize("x", [0.0101, 0.011, 0.05, 0.3, 0.95, 0.9899])
@pytest.mark.parametrize("parity", ["all_n", "alternating"])
@pytest.mark.parametrize("weight", ["log_n", "log_2pi_n", "gamma_plus_log_2pi_n"])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_limit_error_estimate_is_honest(x, parity, weight, trig):
    # At s = 1 the log-weighted tails have forward differences far below
    # the rounding of ln N; the estimate has to cover that floor.
    got = regularized_limit(x, trig, weight, parity)
    if parity == "all_n":
        want = mp_weighted_sum(x, 1.0, weight, trig)
    else:
        want = -mp_weighted_sum((x + 1.0) / 2.0, 1.0, weight, trig)
    assert abs(got.value - want) <= 2.0 * got.err_estimate + 1e-13
    assert got.method_tag == "euler-at-target"


@pytest.mark.parametrize("s_target", [0.0, 1.0])
@pytest.mark.parametrize("scale", ["n_power", "two_pi_n_power"])
@pytest.mark.parametrize(
    "weight, parity",
    [(w, p) for w in ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
     for p in ("all_n", "alternating")] + [("unit", "odd_only")],
)
def test_direct_limit_agrees_with_ladder(weight, parity, scale, s_target):
    from zetalim import default_x_grid

    path = ExtrapolationPath(target=s_target)
    for x in default_x_grid(9):
        for trig in ("sine", "cosine"):
            direct = regularized_limit(x, trig, weight, parity, scale, s_target)
            ladder = regularized_limit(x, trig, weight, parity, scale, s_target, path=path)
            assert ladder.method_tag == "neville-osc"
            bound = 2.0 * (direct.err_estimate + ladder.err_estimate) + 1e-12
            assert abs(direct.value - ladder.value) <= bound, (x, trig)


_GRID_Y = (0.0051, 0.0101, 0.02, 0.05, 0.1, 0.16)


@pytest.mark.parametrize("y", _GRID_Y + tuple(1.0 - y for y in _GRID_Y))
@pytest.mark.parametrize("s", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("weight", ["unit", "log_n"])
def test_master_sum_error_estimate_is_honest(y, s, weight):
    # Next to y = 0 and 1 the plain Euler ratio z/(1-z) is large and the
    # engine sums in blocks of about 1/(2y) terms instead.
    from zetalim import regsum

    value, err, _ = regsum._master_sum_adaptive(y, s, weight)
    for trig, part in (("sine", value.imag), ("cosine", value.real)):
        want = mp_weighted_sum(y, s, weight, trig)
        assert abs(part - want) <= 2.0 * err + 1e-13, trig


def test_limits_never_reach_the_head_cap(monkeypatch):
    from zetalim import default_x_grid, regsum

    heads = []
    master = regsum._master_sum

    def recording(y, s, weight, n_direct, *rest):
        heads.append(n_direct)
        return master(y, s, weight, n_direct, *rest)

    monkeypatch.setattr(regsum, "_master_sum", recording)
    combos = [(w, p) for w in ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
              for p in ("all_n", "alternating")] + [("unit", "odd_only")]
    for x in list(default_x_grid(9)) + [0.0101, 0.9899]:
        for weight, parity in combos:
            for s_target in (0.0, 1.0):
                regularized_limit(x, "sine", weight, parity, s_target=s_target)
    assert heads and max(heads) < regsum._HEAD_CAP


def test_edge_series_raises_beyond_the_blocked_range():
    # Blocks of 1/(2x) terms need a 12/x-term head; at x = 1e-4 that
    # exceeds the head cap and no attempt reaches the edge-band level.
    with pytest.raises(ConvergenceError):
        trig_dirichlet_sum(TrigSeriesSpec(1e-4, "sine", "log_n", s=0.5))
    got = trig_dirichlet_sum(TrigSeriesSpec(1e-3, "sine", "log_n", s=0.5))
    want = mp_weighted_sum(1e-3, 0.5, "log_n", "sine")
    assert abs(got.value - want) <= 2.0 * got.err_estimate


@pytest.mark.parametrize("s", [-math.inf, math.inf, math.nan])
def test_spec_rejects_non_finite_s(s):
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "unit", s=s)


@pytest.mark.parametrize("x", [0.989, 0.9899])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_alternating_unit_limit_is_honest_at_the_edge(x, trig):
    # The rounding of z = e^(2 pi i y) is magnified by 1/|1 - z|^2 here.
    import mpmath as mp

    got = regularized_limit(x, trig, "unit", "alternating")
    if trig == "sine":
        want = float(0.5 * mp.tan(mp.pi * mp.mpf(x) / 2))
    else:
        want = 0.5
    assert abs(got.value - want) <= 2.0 * got.err_estimate + 1e-14


def _mp_closed_form(x: float, case_id: str):
    import mpmath as mp

    with mp.workdps(50):
        t, pi = mp.mpf(x), mp.pi
        cot = mp.cot(pi * t)
        if case_id in ("4.1", "4.3im"):
            return cot / 2
        if case_id == "4.8":
            diff = mp.stieltjes(1, 1 - t) - mp.stieltjes(1, t)
            return (diff - pi * (mp.euler + mp.log(2 * pi)) * cot) / (2 * pi)
        if case_id == "4.18":
            return mp.digamma(t) + pi / 2 * cot + mp.euler + mp.log(2 * pi)
        if case_id == "4.21":
            return mp.tan(pi * t / 2) / 2
        return 1 / (2 * mp.sin(pi * t))


_EDGE_X = (0.95, 0.989, 0.9899, 0.9988)


@pytest.mark.parametrize("x", _EDGE_X + tuple(round(1.0 - x, 4) for x in _EDGE_X))
@pytest.mark.parametrize(
    "case_id, rtol",
    # Bare trig factors to a few ulps; 4.8 and 4.18 add gamma_1 and psi.
    [("4.1", 1e-15), ("4.3im", 1e-15), ("4.21", 1e-15), ("4.23", 1e-15),
     ("4.8", 1e-14), ("4.18", 1e-14)],
)
def test_closed_form_trig_factors_near_the_edges(x, case_id, rtol):
    # Next to x = 1, pi*x rounds by up to half an ulp of pi, which cot,
    # 1/sin and tan(./2) magnify (4.7e-15 relative at x = 0.989, 7.4e-14
    # at 0.9988) unless they are taken at pi*(1 - x).
    exact = float(_mp_closed_form(x, case_id))
    assert abs(closed_form(x, case_id) - exact) <= rtol * abs(exact)
