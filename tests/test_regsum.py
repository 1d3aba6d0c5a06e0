"""Weighted trigonometric Dirichlet series and their regularized limits."""
import math

import pytest

from oracles import (
    CATALAN,
    ETA_PRIME_AT_1,
    HALF_LOG_HALF_PI,
    K_LOG_COS_LIMIT_AT_03,
    brute_partial_trig,
    difference_column,
    full_table_master_sum,
    mp_trig_series,
    mp_weighted_sum,
    plain_tail_offsets,
    psi_formula_target,
)
from zetalim import (
    ConvergenceError,
    DomainError,
    TrigSeriesSpec,
    registry,
    regularized_limit,
    trig_dirichlet_sum,
)

ULP = 2.0**-52
_ROWS = {case.id: case for case in registry()}
# The paper's equation -> the registry row that holds its closed form.
_CLOSED_FORM_ROW = {
    "4.1": "EQ4.1", "4.3im": "EQ4.14C", "4.8": "EQ4.8", "4.14": "EQ4.14",
    "4.18": "EQ4.18", "4.21": "EQ4.21", "4.22": "EQ4.22", "4.23": "EQ4.23",
}


def _closed_form(x: float, case_id: str) -> float:
    """The closed-form side of the row: the rhs, but for EQ4.8, whose
    lhs is the closed form gamma_1(1 - x) - gamma_1(x)."""
    row = _ROWS[_CLOSED_FORM_ROW[case_id]]
    if case_id == "4.8":
        return row.lhs({"x": x})
    rhs = row.rhs({"x": x})
    return rhs.imag if case_id == "4.3im" else rhs


def _lhs(row_id: str, **pt: float) -> float:
    return _ROWS[row_id].lhs(pt)


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


def test_spec_defaults_repr_and_messages():
    spec = TrigSeriesSpec(0.3, "sine", "unit")
    assert repr(spec) == (
        "TrigSeriesSpec(x=0.3, trig='sine', weight='unit', parity='all_n', s=0.0, "
        "scale='n_power')"
    )
    with pytest.raises(DomainError, match=r"^weight must be one of \('unit', 'log_n', "):
        TrigSeriesSpec(0.3, "sine", "sqrt")
    with pytest.raises(DomainError, match=r"^scale must be one of \('n_power', "):
        TrigSeriesSpec(0.3, "sine", "unit", scale="pi_n")


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


def test_edge_band_error_estimate_has_no_floor():
    # Edge band and interior report the master sums' own estimate; the
    # edge one is about 7e-13 here.
    interior = trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=0.5))
    assert interior.err_estimate <= 1e-10
    edge = trig_dirichlet_sum(TrigSeriesSpec(0.005, "sine", "unit", s=0.5))
    assert edge.err_estimate <= 1e-10


def test_scale_is_immaterial_in_the_limit():
    # (2 pi n)^{s-1} -> n^{s-1} as s -> 1, so regularized limits agree
    # across the whole default grid.
    from zetalim import default_x_grid

    for x in default_x_grid(9):
        a = regularized_limit(x, "sine", "unit").value
        b = regularized_limit(x, "sine", "unit", scale="two_pi_n_power").value
        assert a == pytest.approx(b, abs=2e-7), x


def test_neville_corrections_shrink_along_the_ladder():
    from zetalim.hurwitz import _neville

    hs = [0.25 * 2.0**-k for k in range(9)]
    vs = [
        trig_dirichlet_sum(
            TrigSeriesSpec(0.5, "cosine", "log_n", s=1.0 - h,
                           scale="two_pi_n_power")
        ).value
        for h in hs
    ]
    # The tableau's diagonal, bit for bit: its estimate at level j - 1 is
    # the one from the last j samples alone.
    diagonal = [_neville(hs[-j:], vs[-j:])[0] for j in range(1, len(hs) + 1)]
    corrections = [abs(b - a) for a, b in zip(diagonal, diagonal[1:])]
    for k in range(2, len(corrections) - 1):
        assert corrections[k + 1] < corrections[k], corrections


@pytest.mark.parametrize(
    "parity, x, works",
    [
        ("all_n", 1.5e-10, False), ("all_n", 1.6e-10, True),
        ("all_n", 1.0 - 1.5e-10, False), ("all_n", 1.0 - 1.6e-10, True),
        ("alternating", 1e-9, True),
        ("alternating", 1.0 - 3.0e-10, False), ("alternating", 1.0 - 3.2e-10, True),
        ("odd_only", 3.0e-10, False), ("odd_only", 3.2e-10, True),
        ("odd_only", 1.0 - 1.5e-10, False), ("odd_only", 1.0 - 1.6e-10, True),
    ],
)
def test_series_range_per_parity(parity, x, works):
    # At s = 0.25 every phase the parity sums reaches the phase guard,
    # |1 - z| >= 1e-9 (a phase of 1.59e-10): x for all_n, (x - 1)/2 for
    # alternating next to x = 1 (none next to x = 0), x/2 and x for
    # odd_only.
    spec = TrigSeriesSpec(x, "sine", "unit", parity=parity, s=0.25)
    if not works:
        with pytest.raises(ConvergenceError, match="too close to 1"):
            trig_dirichlet_sum(spec)
        return
    got = trig_dirichlet_sum(spec)
    want = mp_trig_series(x, "sine", "unit", parity, 0.25)
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))


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
    from zetalim.hurwitz import _neville

    hs = [0.25 * 2.0**-k for k in range(9)]
    vs = [
        h * trig_dirichlet_sum(TrigSeriesSpec(0.3, "sine", "unit", s=1.0 - h)).value
        for h in hs
    ]
    limit, _ = _neville(hs, vs)
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
        assert got == pytest.approx(_closed_form(x, cid), abs=1e-7), cid


def test_closed_form_values_at_quarter():
    assert _closed_form(0.25, "4.1") == pytest.approx(0.5, abs=1e-15)
    assert _closed_form(0.25, "4.14") == pytest.approx(-0.5, abs=1e-15)
    assert _closed_form(0.25, "4.21") == pytest.approx(
        0.5 * math.tan(math.pi / 8.0), abs=1e-15
    )
    assert _closed_form(0.25, "4.22") == pytest.approx(0.5, abs=1e-15)
    assert _closed_form(0.25, "4.23") == pytest.approx(
        0.5 / math.sin(math.pi / 4.0), abs=1e-15
    )
    assert _closed_form(0.5, "4.23") == pytest.approx(0.5, abs=1e-15)


def test_limit_target_must_be_zero_or_one():
    with pytest.raises(DomainError):
        regularized_limit(0.25, "sine", "unit", s_target=0.5)


def test_limit_domain_guard():
    # x outside (0, 1) is a domain error.  Next to x = 0 a log-weight
    # limit is a short series about z = 1, which returns a value up to
    # the phase guard, |1 - z| >= 1e-9, and raises past it.
    for x in (0.0, 1.0):
        with pytest.raises(DomainError):
            regularized_limit(x, "sine", "unit")
    got = regularized_limit(1e-4, "sine", "log_n")
    want = mp_trig_series(1e-4, "sine", "log_n", "all_n", 1.0)
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))
    with pytest.raises(ConvergenceError, match="too close to 1"):
        regularized_limit(1e-10, "sine", "log_n")


@pytest.mark.parametrize(
    "call, masters",
    [
        (lambda: regularized_limit(1e-10, "sine", "unit"), 0),
        (lambda: regularized_limit(1.0 - 1e-12, "cosine", "unit"), 0),
        (lambda: trig_dirichlet_sum(TrigSeriesSpec(1e-12, "sine", "unit", s=0.5)), 0),
    ],
    ids=["limit-next-to-0", "limit-next-to-1", "series-next-to-0"],
)
def test_phase_next_to_one_fails_on_the_first_master_sum(monkeypatch, call, masters):
    # The phase guard comes before any master sum, in a limit and in a
    # series alike: halving a phase never brings it next to an integer.
    from zetalim import regsum

    calls = []
    original = regsum._master_sum

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(regsum, "_master_sum", counting)
    with pytest.raises(ConvergenceError, match="too close to 1"):
        call()
    assert len(calls) == masters


def test_deninger_series():
    assert _lhs("EQ4.12", u=0.5) == pytest.approx(ETA_PRIME_AT_1, abs=1e-9)
    a = _lhs("EQ4.12", u=0.3)
    b = _lhs("EQ4.12", u=0.7)
    assert a == pytest.approx(b, abs=1e-9)
    # Inside the edge band the log-weighted sum at s = 0 is the series
    # about z = 1.
    want = mp_weighted_sum(0.005, 0.0, "log_n", "cosine")
    assert _lhs("EQ4.12", u=0.005) == pytest.approx(want, abs=1e-8)


def test_kummer_series():
    assert _lhs("KUMMER", x=0.5) == pytest.approx(0.0, abs=1e-9)
    a = _lhs("KUMMER", x=0.25)
    b = _lhs("KUMMER", x=0.75)
    assert a == pytest.approx(-b, abs=1e-8)
    from zetalim.special import EULER_GAMMA, log_gamma

    want = (
        log_gamma(0.25)
        - log_gamma(0.75)
        + 2.0 * EULER_GAMMA * (0.25 - 0.5)
    )
    assert a == pytest.approx(want, abs=1e-7)


def test_log_sine_fourier():
    assert _lhs("LOGSINE", u=0.5) == pytest.approx(0.0, abs=1e-9)
    a = _lhs("LOGSINE", u=0.25)
    b = _lhs("LOGSINE", u=0.75)
    assert a == pytest.approx(-b, abs=1e-8)
    assert a == pytest.approx(_ROWS["LOGSINE"].rhs({"u": 0.25}), abs=1e-7)


def test_alternating_log_limit():
    assert _lhs("ALTLOG") == pytest.approx(HALF_LOG_HALF_PI, abs=1e-7)


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
    got = regularized_limit(x, trig, "unit", parity)
    assert abs(got.value - _closed_form(x, case_id)) <= got.err_estimate + 1e-13


@pytest.mark.parametrize(
    "x", [5e-4, 1e-3, 5e-3, 0.0101, 0.011, 0.05, 0.3, 0.95, 0.9899, 0.995, 0.999, 0.9995]
)
@pytest.mark.parametrize("parity", ["all_n", "alternating"])
@pytest.mark.parametrize("weight", ["log_n", "log_2pi_n", "gamma_plus_log_2pi_n"])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_limit_error_estimate_is_honest(x, parity, weight, trig):
    # A log-weighted limit is the series about z = 1 at every phase, and
    # carries that route's tag.  The alternating oracle takes the
    # engine's own phase: for x >= 1/2 that is (x - 1)/2, exact where
    # (x + 1)/2 rounds (by up to 3e-10 in the sum at x = 0.999).
    if parity == "all_n":
        y, sign = x, 1.0
    else:
        y, sign = (x - 1.0) / 2.0 if x >= 0.5 else (x + 1.0) / 2.0, -1.0
    got = regularized_limit(x, trig, weight, parity)
    want = sign * mp_weighted_sum(y, 1.0, weight, trig)
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))
    assert got.method_tag == "series-at-one"


@pytest.mark.parametrize("s_target", [0.0, 1.0])
@pytest.mark.parametrize("scale", ["n_power", "two_pi_n_power"])
@pytest.mark.parametrize(
    "weight, parity",
    [(w, p) for w in ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
     for p in ("all_n", "alternating")] + [("unit", "odd_only")],
)
def test_limit_matches_mpmath(weight, parity, scale, s_target):
    # Against the 40-digit mpmath series at s_target, at the honesty
    # bound, over the default grid and next to both edges.
    from zetalim import default_x_grid

    for x in list(default_x_grid(9)) + [1e-5, 0.011, 0.03, 0.97, 0.989, 1.0 - 1e-5]:
        for trig in ("sine", "cosine"):
            got = regularized_limit(x, trig, weight, parity, scale, s_target)
            ref = mp_trig_series(x, trig, weight, parity, s_target, scale)
            bound = got.err_estimate + 4 * ULP * max(1.0, abs(ref))
            assert abs(got.value - ref) <= bound, (x, trig, got.value, ref)


# At s = 0.9, y = 0.08 and 0.92 take the log weights' 512-term plain
# heads, the longest any interior y reaches.
_GRID_Y = (0.0051, 0.0101, 0.02, 0.05, 0.08, 0.1, 0.16, 0.3, 0.5)


# y = -1/2, like 1/2 the farthest phase from z = 1, is reached only by
# the master sum itself.
@pytest.mark.parametrize("y", sorted({*_GRID_Y, *(1.0 - y for y in _GRID_Y), -0.5}))
@pytest.mark.parametrize("s", [-1.5, -1.0, -0.5, 0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("weight", ["unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n"])
def test_master_sum_error_estimate_is_honest(y, s, weight):
    # Next to y = 0 and 1 the plain Euler ratio z/(1-z) is large and the
    # engine halves the phase away by the square relation.  err covers
    # the final roundings of the sum, 4 ulps of max(1, |M|); the check
    # allows the 4 ulps of each part that every honesty check allows.
    from zetalim import regsum

    value, err, _, _ = regsum._master_sum_adaptive(y, s, weight)
    for trig, part in (("sine", value.imag), ("cosine", value.real)):
        want = mp_weighted_sum(y, s, weight, trig)
        assert abs(part - want) <= err + 4 * ULP * max(1.0, abs(want)), trig


@pytest.mark.parametrize("x", [0.0101, 0.03, 0.97, 0.9899])
def test_edge_limits_make_no_master_call(monkeypatch, x):
    # Next to x = 0 and 1 every limit is the series about z = 1 and makes
    # no master sum.
    from zetalim import regsum

    calls = []
    master = regsum._master_sum

    def recording(*args):
        calls.append(args)
        return master(*args)

    monkeypatch.setattr(regsum, "_master_sum", recording)
    regularized_limit(x, "sine", "log_n")
    regularized_limit(x, "sine", "unit", s_target=0.0)
    regularized_limit(x, "sine", "unit")
    assert calls == []


@pytest.mark.parametrize("y", [2.99e-3, 3.01e-3, 0.0769])
@pytest.mark.parametrize("edge", [0.0, 1.0])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_unit_limit_at_one_is_the_series_in_the_band(monkeypatch, y, edge, trig):
    # Within 1/13 of an integer phase (0.0769 is just inside) a unit
    # limit at s* = 1 is the series about z = 1, here its closed form,
    # on both sides of the 3.0e-3 where a plain call's estimate would
    # pass the engine's 5e-12, and makes no master sum.
    from zetalim import regsum

    calls = []
    master = regsum._master_sum

    def recording(*args):
        calls.append(args)
        return master(*args)

    monkeypatch.setattr(regsum, "_master_sum", recording)
    x = abs(edge - y)
    got = regularized_limit(x, trig, "unit")
    assert calls == []
    assert got.method_tag == "series-at-one"
    want = mp_trig_series(x, trig, "unit", "all_n", 1.0)
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))
    # Odd-only parity's interior part x/2 = 0.485 keeps its one plain sum,
    # whose head at s = 1 has _UNIT_ONE_HEAD terms.
    got = regularized_limit(0.97, trig, "unit", "odd_only")
    assert len(calls) == 1 and calls[0][3] == regsum._UNIT_ONE_HEAD == 8
    assert got.method_tag == "euler-at-target"


def test_series_about_one_table_is_40_digit_mpmath():
    # On a mismatch the message is the regenerated literal.
    import mpmath as mp

    from zetalim import regsum

    with mp.workdps(40):
        exact = [mp.zeta(-k, derivative=1) / mp.factorial(k) for k in range(64)]
        dzeta = tuple(float(t) for t in exact)
        gamma1 = float(mp.stieltjes(1))
        # The tail bound |y|^J/(1 - |y|) takes term k >= 2 at most |y|^k.
        assert all(abs(t) * (2 * mp.pi) ** k <= 1 for k, t in enumerate(exact) if k >= 2)
    assert regsum._DZETA == dzeta, f"_DZETA = {dzeta!r}"
    assert regsum._GAMMA1 == gamma1, f"_GAMMA1 = {gamma1!r}"
    # The table reaches the truncation target at |y| = 1/2, the farthest
    # phase from z = 1, and _near_one stops inside it.
    assert len(dzeta) == 64 and 0.5 ** len(regsum._DZETA) / (1.0 - 0.5) < 2.0**-56
    for y in (0.5, -0.5, 0.49):
        for s in (0.0, 1.0):
            assert regsum._near_one(y, s, "log_n")[2] < len(regsum._DZETA)
    # The unit weight keeps the series to the band |y| < 1/13, the set
    # of phases where round(1/(2|y|)) >= 7.
    y = 1.0 / 13.0
    inside = math.nextafter(y, 0.0)
    assert round(0.5 / y) < 7 <= round(0.5 / inside)
    for t in (y, -y):
        assert not regsum._master_sum_adaptive(t, 1.0, "unit")[3]
    for t in (inside, -inside):
        assert regsum._master_sum_adaptive(t, 1.0, "unit")[3]


def test_master_sums_run_only_on_their_domain(monkeypatch):
    # _master_sum keeps only the floor and 1e-17 exits of its transform,
    # which is sound at phases at least 1/13 from an integer and heads
    # from _HEAD_START, or of _UNIT_ONE_HEAD terms for the unit weight at
    # s = 1; every production route must stay there, and no limit may
    # need the head cap.
    import random

    from zetalim import default_x_grid, regsum, verify_all

    calls = []
    master = regsum._master_sum

    def recording(y, s, weight, n_direct):
        calls.append((y, s, weight, n_direct))
        return master(y, s, weight, n_direct)

    monkeypatch.setattr(regsum, "_master_sum", recording)
    combos = [(w, p) for w in regsum.WEIGHT_KINDS for p in ("all_n", "alternating")]
    combos.append(("unit", "odd_only"))
    for x in list(default_x_grid(9)) + [0.0101, 0.9899]:
        for weight, parity in combos:
            for s_target in (0.0, 1.0):
                regularized_limit(x, "sine", weight, parity, s_target=s_target)
    for grid in (9, 99):
        verify_all(grid)
    rng = random.Random(35)
    for weight, parity in combos:
        for _ in range(12):
            x = rng.choice((10.0 ** rng.uniform(-6.0, math.log10(1.0 / 13.0)),
                            rng.uniform(1.0 / 13.0, 12.0 / 13.0)))
            trig_dirichlet_sum(TrigSeriesSpec(rng.choice((x, 1.0 - x)), "cosine", weight,
                                              parity, s=rng.uniform(-60.0, 1.0)))
    assert len(calls) > 1000
    assert sum(n_direct == regsum._UNIT_ONE_HEAD for *_, n_direct in calls) > 100
    for y, s, weight, n_direct in calls:
        assert abs(y - round(y)) >= regsum._BAND, y
        if weight == "unit" and s == 1.0:
            assert n_direct == regsum._UNIT_ONE_HEAD, (y, n_direct)
        else:
            assert regsum._HEAD_START <= n_direct < regsum._HEAD_CAP, (y, s, weight, n_direct)


def _seeded_master_calls(seed: int):
    """(y, s, weight, n_direct) on _master_sum's domain: phases at least
    1/13 from an integer, some outside [0, 1), heads _HEAD_START to 16
    times it, every weight and s in {-60, -2, 0, 1/2, 1}; then the unit
    weight's _UNIT_ONE_HEAD-term heads at s = 1."""
    import random

    from zetalim import regsum

    rng = random.Random(seed)
    calls = []

    def phase():
        return rng.uniform(regsum._BAND, 1.0 - regsum._BAND) + rng.choice((-1.0, 0.0, 1.0))

    for weight in regsum.WEIGHT_KINDS:
        for s in (-60.0, -2.0, 0.0, 0.5, 1.0):
            for _ in range(10):
                calls.append((phase(), s, weight, regsum._HEAD_START * 2 ** rng.randrange(5)))
    calls += [(phase(), 1.0, "unit", regsum._UNIT_ONE_HEAD) for _ in range(50)]
    return calls


@pytest.mark.parametrize("seed", [11, 12])
def test_master_sum_matches_the_full_difference_table(seed):
    # The anti-diagonal differences and cmath phases must not move a bit.
    # On the engine's domain the full table leaves only by its floor and
    # 1e-17 exits, the two the engine keeps.
    from zetalim import regsum

    exits = set()
    calls = _seeded_master_calls(seed)
    assert len(calls) >= 200
    for y, s, weight, n_direct in calls:
        value, err, exit_kind = full_table_master_sum(y, s, weight, n_direct)
        assert regsum._master_sum(y, s, weight, n_direct) == (value, err), (
            y, s, weight, n_direct,
        )
        exits.add(exit_kind)
    assert exits == {"floor", "small"}, exits


@pytest.mark.parametrize(
    "s, weight, n_direct",
    [(0.0, "unit", 64), (1.0, "unit", 64), (0.5, "log_n", 64), (1.0, "log_n", 128),
     (-2.0, "log_2pi_n", 16), (0.0, "gamma_plus_log_2pi_n", 256)],
)
def test_plain_master_sum_takes_its_differences_once_per_key(monkeypatch, s, weight, n_direct):
    # The tail's differences do not depend on y: a call on a warm key
    # takes none, and the table holds the full table's first column up
    # to the sweep at which the loop's floor test stops it.
    from zetalim import regsum

    regsum._master_sum(0.3, s, weight, n_direct)
    calls = []
    real = regsum.accumulate

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(regsum, "accumulate", counted)
    for y in (0.3, 0.41, 0.77):
        regsum._master_sum(y, s, weight, n_direct)
    assert calls == []

    diffs = regsum._plain_tables(s, weight, n_direct)[2]
    d, floor, _ = plain_tail_offsets(s, weight, n_direct)
    column = difference_column(d, regsum._SWEEPS)
    stop = next(
        (k for k in range(1, regsum._SWEEPS) if abs(column[k]) <= floor * 2.0**k),
        regsum._SWEEPS - 1,
    )
    assert list(diffs) == column[1 : stop + 1]


# Both sides of 1/2 and of the edge band's boundary at y = 1/13, and
# phases that reduce to the same y.
@pytest.mark.parametrize("y", [0.3, 0.49, 0.51, 0.0768, 0.0771, 0.9229, 0.9232, 1.3, -0.7])
@pytest.mark.parametrize("n_direct", [64, 128])
def test_plain_master_sum_is_bit_identical_under_a_primed_memo(monkeypatch, y, n_direct):
    # A catalogue's memo supplies a plain head's angles; the sum must not
    # move a bit from the one taken without a memo.
    from zetalim import regsum

    calls = [(s, weight) for s in (-2.0, 0.0, 0.5, 1.0) for weight in regsum.WEIGHT_KINDS]
    want = [regsum._master_sum(y, s, weight, n_direct) for s, weight in calls]
    memo = regsum._Memo()
    monkeypatch.setattr(regsum, "_memo", memo)
    regsum._master_sum(y, 0.25, "unit", n_direct)
    assert list(memo) == [regsum._head_angles]
    cached = memo[regsum._head_angles]
    # The primed list sits under (y reduced to [-1/2, 1/2], N): a hit.
    angles = cached(y - round(y), n_direct)
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert [regsum._master_sum(y, s, weight, n_direct) for s, weight in calls] == want
    assert list(memo) == [regsum._head_angles]
    info = cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1 + len(calls), 1, 1)
    assert cached(y - round(y), n_direct) is angles


@pytest.mark.parametrize(
    "x, weight, s",
    [(1e-7, "unit", 0.99), (1e-5, "log_n", 0.9), (2e-10, "log_n", 0.5), (1.0 - 1e-6, "unit", 0.9)],
)
def test_edge_series_raises_where_its_error_passes_1e_8(x, weight, s):
    # The square relation scales each interior sum's error by up to
    # 2^(ks), 2^k x >= 1/4; next to s = 1 that passes 1e-8 before the
    # phase guard, and the error names the caller's phase.
    with pytest.raises(ConvergenceError, match=f"master sum at y = {x}, s = {s} stalled"):
        trig_dirichlet_sum(TrigSeriesSpec(x, "sine", weight, s=s))


@pytest.mark.parametrize("x, weight, s", [(1e-4, "log_n", 0.5), (2e-5, "unit", 0.99),
                                          (2e-10, "log_n", 0.25), (1e-8, "unit", 0.5)])
def test_edge_series_returns_up_to_its_error_bound(x, weight, s):
    got = trig_dirichlet_sum(TrigSeriesSpec(x, "sine", weight, s=s))
    want = mp_weighted_sum(x, s, weight, "sine")
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))
    assert got.err_estimate <= 1e-8


@pytest.mark.parametrize("s", [-math.inf, math.inf, math.nan])
def test_spec_rejects_non_finite_s(s):
    with pytest.raises(DomainError):
        TrigSeriesSpec(0.3, "sine", "unit", s=s)


@pytest.mark.parametrize("x", [0.989, 0.9899])
@pytest.mark.parametrize("trig", ["sine", "cosine"])
def test_alternating_unit_limit_is_honest_at_the_edge(x, trig):
    # A plain sum at y = (x - 1)/2, where 1/|1 - z|^2 would magnify the
    # rounding of z = e^(2 pi i y) in 1 - z: off by 5.0e-13 at x = 0.989
    # (cosine, exact 0.5) until 1 - z came from the phase itself.
    import mpmath as mp

    got = regularized_limit(x, trig, "unit", "alternating")
    if trig == "sine":
        want = float(0.5 * mp.tan(mp.pi * mp.mpf(x) / 2))
    else:
        want = 0.5
    assert abs(got.value - want) <= got.err_estimate + 4 * ULP * max(1.0, abs(want))
    assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want))


def _mp_closed_form(x: float, case_id: str):
    import mpmath as mp

    with mp.workdps(50):
        t, pi = mp.mpf(x), mp.pi
        cot = mp.cot(pi * t)
        if case_id in ("4.1", "4.3im"):
            return cot / 2
        if case_id == "4.8":
            return mp.stieltjes(1, 1 - t) - mp.stieltjes(1, t)
        if case_id == "4.18":
            return mp.digamma(t) + pi / 2 * cot + mp.euler + mp.log(2 * pi)
        if case_id == "4.21":
            return mp.tan(pi * t / 2) / 2
        return 1 / (2 * mp.sin(pi * t))


_EDGE_X = (0.95, 0.989, 0.9899, 0.9988)


@pytest.mark.parametrize("x", _EDGE_X + tuple(round(1.0 - x, 4) for x in _EDGE_X))
@pytest.mark.parametrize(
    "case_id, rtol",
    # Bare trig factors to a few ulps; 4.18 adds psi, and 4.8 is the
    # gamma_1 reflection difference.
    [("4.1", 1e-15), ("4.3im", 1e-15), ("4.21", 1e-15), ("4.23", 1e-15),
     ("4.8", 1e-14), ("4.18", 1e-14)],
)
def test_closed_form_trig_factors_near_the_edges(x, case_id, rtol):
    # Next to x = 1, pi*x rounds by up to half an ulp of pi, which cot,
    # 1/sin and tan(./2) magnify (4.7e-15 relative at x = 0.989, 7.4e-14
    # at 0.9988) unless they are taken at pi*(1 - x).
    exact = float(_mp_closed_form(x, case_id))
    assert abs(_closed_form(x, case_id) - exact) <= rtol * abs(exact)
