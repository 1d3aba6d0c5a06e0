"""Identity registry, verification runner and report integrity."""
import math
from collections import Counter

import pytest

from zetalim import (
    DomainError,
    IdentityCase,
    VerificationReport,
    default_x_grid,
    quadrature_zeta2_integral,
    registry,
    uniform_x,
    verify,
    verify_all,
)
from zetalim import identities
from zetalim.identities import CaseResult, PointRecord
from zetalim.result import EvalResult


def _by_id(cid):
    matches = [c for c in registry() if c.id == cid]
    assert len(matches) == 1, cid
    return matches[0]


def _single(case, **kwargs):
    report = verify(case, **kwargs)
    assert report.cases_run == 1
    return report.cases[0]


def test_registry_shape():
    cases = registry()
    assert len(cases) >= 18
    ids = [c.id for c in cases]
    assert len(set(ids)) == len(ids)
    for c in cases:
        assert 1e-12 <= c.tol <= 1e-5, c.id
        assert c.notes, c.id


def test_registry_specific_cases():
    assert _by_id("EQ4.1").tol == 1e-6
    assert _by_id("EQ3.20").axes == (("u", (2.0,)),)
    assert _by_id("HALFARG").axes == (("s", identities.S_ORACLE), ("m", (0, 1, 2)))
    assert _by_id("EQ4.13").axes == ()


def _grid(*axes):
    return IdentityCase(id="GRID", lhs=lambda pt: 0.0, rhs=lambda pt: 0.0, axes=axes,
                        tol=1e-9, notes="grid only")


def test_domain_points_are_the_product_of_named_axes():
    sm = _grid(("s", (-1.0, 0.5)), ("m", (0, 1, 2)))
    assert sm.points(3) == (
        (("s", -1.0), ("m", 0)), (("s", -1.0), ("m", 1)), (("s", -1.0), ("m", 2)),
        (("s", 0.5), ("m", 0)), (("s", 0.5), ("m", 1)), (("s", 0.5), ("m", 2)),
    )
    assert all(type(dict(coords)["m"]) is int for coords in sm.points(3))
    assert sm.points(5) == sm.points(3)
    assert _grid().points(3) == _grid().points(9) == ((),)
    sx = _grid(("s", (2.0,)), ("x", uniform_x))
    for density in (3, 5, 9):
        assert sx.points(density) == tuple((("s", 2.0), ("x", x)) for x in uniform_x(density))


# Points per case at grid densities 3, 5 and 9.
_POINT_COUNTS = {
    "EQ2.3": (3, 3, 3), "EQ3.9": (30, 30, 30), "EQ3.10": (15, 15, 15),
    "EQ3.11": (14, 14, 14), "EQ3.18": (3, 5, 12), "EQ3.20": (1, 1, 1),
    "EQ3.21": (1, 1, 1), "EQ3.2": (3, 5, 12), "EQ4.4": (15, 25, 45),
    "EQ4.5": (15, 25, 45), "EQ4.1": (3, 5, 12), "EQ4.14": (3, 5, 12),
    "EQ4.14C": (3, 5, 12), "EQ4.8": (3, 5, 12), "EQ4.10.1": (3, 5, 12),
    "EQ4.12": (3, 5, 12), "EQ4.12.1": (3, 5, 12), "EQ4.13": (1, 1, 1),
    "EQ4.18": (3, 5, 12), "EQ4.19": (3, 5, 12), "EQ4.20": (3, 5, 12),
    "KUMMER": (3, 5, 12), "LOGSINE": (3, 5, 12), "EQ4.21": (3, 5, 12),
    "EQ4.22": (3, 5, 12), "EQ4.23": (3, 5, 12), "ALTLOG": (1, 1, 1),
    "PSIREFL": (3, 5, 12), "HALFARG": (18, 18, 18),
}


@pytest.mark.parametrize("column, density", [(0, 3), (1, 5), (2, 9)])
def test_registry_point_counts(column, density):
    got = {c.id: len(c.points(density)) for c in registry()}
    assert got == {cid: counts[column] for cid, counts in _POINT_COUNTS.items()}


@pytest.mark.parametrize("density", [3, 5, 9])
def test_grids_avoid_singular_points(density):
    for c in registry():
        for coords in c.points(density):
            for label, value in coords:
                if label in ("x", "u"):
                    assert 0.0 < value, (c.id, coords)
                    if callable(dict(c.axes)[label]):
                        assert 0.0 < value < 1.0
                if label == "s":
                    assert abs(value - 1.0) > 1e-3, (c.id, coords)


def test_default_grid_contents():
    g = default_x_grid(9)
    assert len(g) == 12
    assert g == tuple(sorted(g))
    for special in (0.25, 1.0 / 3.0, 0.75):
        assert special in g
    assert default_x_grid(5) == uniform_x(5)
    assert uniform_x(5) == tuple((k + 1) / 6.0 for k in range(5))
    with pytest.raises(DomainError):
        uniform_x(2)
    with pytest.raises(DomainError):
        default_x_grid(0)


def test_cosine_limit_case_all_points():
    res = _single(_by_id("EQ4.14"))
    assert res.passed
    assert len(res.points) == 12
    for p in res.points:
        assert p.passed
        assert p.rhs == pytest.approx(-0.5, abs=1e-15)


def test_sine_limit_vanishes_at_half():
    res = _single(_by_id("EQ4.1"))
    at_half = [p for p in res.points if p.coords[0][1] == 0.5]
    assert len(at_half) == 1
    assert at_half[0].lhs == pytest.approx(0.0, abs=1e-7)
    assert at_half[0].rhs == pytest.approx(0.0, abs=1e-15)


def test_eq412_point_residual():
    res = _single(_by_id("EQ4.12"))
    at_third = [p for p in res.points if abs(p.coords[0][1] - 1.0 / 3.0) < 1e-12]
    assert len(at_third) == 1
    assert at_third[0].residual <= 1e-6


def test_verify_all_coarse_grid():
    report = verify_all(grid_density=3)
    assert report.cases_run == len(registry())
    assert report.cases_passed == report.cases_run
    case_max = max(c.max_residual for c in report.cases)
    point_max = max(
        p.residual
        for c in report.cases
        for p in c.points
        if p.residual is not None
    )
    assert report.max_residual == case_max == point_max
    assert report.wall_time >= 0.0
    fine = _single(_by_id("EQ4.14"), grid_density=9)
    coarse = next(c for c in report.cases if c.case_id == "EQ4.14")
    assert len(coarse.points) < len(fine.points)


@pytest.mark.parametrize("density", [99, 120, 300, 3000])
def test_dense_grids_pass_every_case(density):
    # These grids put the regularized limits at x = 0.01, 0.99 and
    # 1/121, 120/121, and at 300 and 3,000 the pole ladder (EQ3.2) and
    # the Fourier sides (EQ4.4, EQ4.5) at 1/301 and 1/3001 (3.3e-4) from
    # x = 0 and 1.
    report = verify_all(grid_density=density)
    assert report.cases_run == len(registry()) == 29
    assert report.cases_passed == report.cases_run


def test_reports_are_sorted_by_case_id():
    report = verify_all(grid_density=3)
    ids = [c.case_id for c in report.cases]
    assert ids == sorted(ids)


def test_tol_scale_loosens():
    report = verify_all(grid_density=3, tol_scale=1e-3)
    assert report.cases_passed == report.cases_run


def test_tol_scale_tightens_to_failure_without_raising():
    res = _single(_by_id("EQ2.3"), tol_scale=1e12)
    assert not res.passed
    assert any(not p.passed for p in res.points)
    assert res.max_residual is not None


def test_reflection_residuals_close():
    case = _by_id("EQ4.8")
    res = _single(case)
    def residual_at(x):
        pts = [p for p in res.points if abs(p.coords[0][1] - x) < 1e-12]
        assert len(pts) == 1, x
        return pts[0].residual
    assert abs(residual_at(0.3) - residual_at(0.7)) <= 1e-9


def test_point_errors_are_captured_not_raised():
    def boom(pt):
        raise ValueError("synthetic failure for the runner")

    case = IdentityCase(
        id="SYNTH",
        lhs=boom,
        rhs=lambda pt: 0.0,
        axes=(("x", default_x_grid),),
        tol=1e-6,
        notes="runner error-capture check",
    )
    res = _single(case)
    assert not res.passed
    assert all(not p.passed for p in res.points)
    assert all(p.residual is None for p in res.points)
    assert all("synthetic failure" in p.note for p in res.points)


def test_case_validation():
    with pytest.raises(ValueError):
        IdentityCase(
            id="BAD",
            lhs=lambda pt: 0.0,
            rhs=lambda pt: 0.0,
            axes=(("x", default_x_grid),),
            tol=1e-4,
            notes="tolerance outside the allowed band",
        )


def test_report_records_are_tuples_in_field_order():
    # Records may be built by position, as the benchmark's self-tests do.
    point = PointRecord((("x", 0.5),), 1.0, 1.0, 0.0, True)
    assert point == ((("x", 0.5),), 1.0, 1.0, 0.0, True, "")
    assert repr(point) == (
        "PointRecord(coords=(('x', 0.5),), lhs=1.0, rhs=1.0, residual=0.0, passed=True, note='')"
    )
    assert CaseResult._fields == ("case_id", "points", "max_residual", "passed", "tol")
    assert VerificationReport._fields == (
        "cases", "cases_run", "cases_passed", "max_residual", "wall_time"
    )


def test_runner_argument_validation():
    with pytest.raises(DomainError):
        verify_all(grid_density=2)
    with pytest.raises(DomainError):
        verify_all(tol_scale=0.0)
    with pytest.raises(DomainError):
        verify(_by_id("EQ2.3"), grid_density=1)


def test_quadrature_vanishes():
    r = quadrature_zeta2_integral()
    assert abs(r.value) <= 1e-6
    assert r.err_estimate >= 0.0
    assert r.terms_used >= 1


def test_quadrature_uses_one_sixteen_node_rule():
    assert quadrature_zeta2_integral().terms_used == 16


@pytest.mark.parametrize("n, table", [(16, "_GL16"), (24, "_GL24")])
def test_gauss_legendre_literals_equal_leggauss(n, table):
    # The literal tables must keep EQ3.21's and EQ4.13's bits.
    np = pytest.importorskip("numpy")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert getattr(identities, table) == tuple(zip(nodes.tolist(), weights.tolist()))


_NEAR_ONE = (0.95, 0.989, 0.9988)


@pytest.mark.parametrize("x", _NEAR_ONE + tuple(1.0 - x for x in _NEAR_ONE))
def test_cot_factors_are_taken_at_the_reduced_argument(monkeypatch, x):
    # With the regularized limits stubbed to 0, each right-hand side is
    # its cot(pi x) factor times a constant.  pi*x next to pi would put
    # up to 4e-12 relative error in that factor at x = 0.9988.
    import mpmath as mp

    monkeypatch.setattr(
        identities, "regularized_limit", lambda *a, **k: EvalResult(0.0, 0.0, 1, "stub")
    )
    g = identities.EULER_GAMMA
    factors = (
        _by_id("EQ4.8").rhs({"x": x}) / (math.pi * (g + identities.LN_2PI)),
        (identities._psi_via_series(x) + g) / (-0.5 * math.pi),
        _by_id("PSIREFL").rhs({"x": x}) / math.pi,
    )
    with mp.workdps(50):
        want = mp.cot(mp.pi * mp.mpf(x))
        for got in factors:
            assert abs(float((got - want) / want)) <= 1e-15, (x, got)


def test_complex_limit_pair_is_evaluated_once_per_point(monkeypatch):
    # Two regularized limits per point, cosine and sine, over 12 points.
    calls = []
    limit = identities.regularized_limit

    def counting(*args, **kwargs):
        calls.append(args)
        return limit(*args, **kwargs)

    monkeypatch.setattr(identities, "regularized_limit", counting)
    res = _single(_by_id("EQ4.14C"))
    assert res.passed
    assert len(res.points) == 12
    assert len(calls) == 24


def test_verify_all_makes_76_master_sums(monkeypatch):
    # Deterministic cost guard: one catalogue sums each distinct master
    # sum once, 150 adaptive sums.  The 76 log-weighted ones, at s in
    # {0, 1}, and 2 unit-weight limits within 1/13 of an integer phase
    # are the series about z = 1 and make no master sum.  Of the other
    # 72 unit-weight ones, 27 limits at s = 1 stop at their 8-term head,
    # and 41 of EQ4.4/4.5's 45 Fourier sides at the 64-term head while
    # 4 double it to 128: 72 + 4 = 76 calls.
    from zetalim import regsum

    calls = []
    master = regsum._master_sum

    def counting(*args):
        calls.append(args)
        return master(*args)

    monkeypatch.setattr(regsum, "_master_sum", counting)
    verify_all()
    assert len(calls) == 76
    assert Counter(args[3] for args in calls) == {8: 27, 64: 45, 128: 4}


def test_one_catalogue_computes_each_head_angle_list_once(monkeypatch):
    # Deterministic cost guard: the 76 plain master sums of one catalogue
    # take their head angles at 36 phase points (y, N), 25 of them 8-term
    # heads, each list computed once: the memo's cache of _head_angles
    # misses 36 times and serves the other 40 sums, 996 angles in all.
    from zetalim import regsum

    angles = {}
    head_angles = regsum._head_angles

    def counting(y, n_direct):
        assert (y, n_direct) not in angles
        angles[y, n_direct] = head_angles(y, n_direct)
        return angles[y, n_direct]

    monkeypatch.setattr(regsum, "_head_angles", counting)
    calls = _record_engine_calls(monkeypatch)
    catalogue = registry()
    for case in catalogue:
        verify(case)
    masters = [args for name, args in calls if name == "master"]
    assert len(masters) == 76
    info = catalogue[0].memo[counting].cache_info()
    assert (info.misses, info.hits, info.currsize) == (36, 40, 36)
    assert set(angles) == {(args[0] - round(args[0]), args[3]) for args in masters}
    assert all(len(v) == n - 1 for (_, n), v in angles.items())
    assert Counter(n for _, n in angles) == {8: 25, 64: 9, 128: 2}
    assert sum(map(len, angles.values())) == 996


def test_one_catalogue_takes_every_log_weighted_limit_from_the_series(monkeypatch):
    # Deterministic cost guard: the 76 log-weighted master sums at s in
    # {0, 1} (EQ4.8 and ten more rows) are _near_one's, at every phase,
    # and so are the 2 unit-weight limits at y = +-0.05 (EQ4.21-4.23
    # next to x = 0 and 1), inside the band |y| < 1/13.  No such sum
    # reaches the Euler-summed master sum.
    from zetalim import regsum

    near = []
    near_one = regsum._near_one

    def counting(*args):
        near.append(args)
        return near_one(*args)

    monkeypatch.setattr(regsum, "_near_one", counting)
    calls = _record_engine_calls(monkeypatch)
    verify_all()
    assert len(near) == 78
    unit = [(y, s) for y, s, weight in near if weight == "unit"]
    assert len(unit) == 2 and all(abs(y) < 1.0 / 13.0 and s == 1.0 for y, s in unit)
    assert {weight for _, _, weight in near} == {"unit", "log_n", "log_2pi_n",
                                                "gamma_plus_log_2pi_n"}
    assert not [args for name, args in calls if name == "master" and args[1] in (0.0, 1.0)
                and (args[2] != "unit" or abs(args[0] - round(args[0])) < 1.0 / 13.0)]


def _record_engine_calls(monkeypatch):
    """A list that gains (name, args) for each master sum and each
    Hurwitz zeta call, under every name that binds hurwitz_zeta."""
    import sys

    from zetalim import hurwitz, regsum

    calls = []
    master = regsum._master_sum
    zeta = hurwitz.hurwitz_zeta

    def counting_master(*args):
        calls.append(("master", args))
        return master(*args)

    def counting_zeta(q):
        calls.append(("zeta", (q.s, q.x, q.m)))
        return zeta(q)

    monkeypatch.setattr(regsum, "_master_sum", counting_master)
    for name, mod in list(sys.modules.items()):
        if name.startswith("zetalim.") and getattr(mod, "hurwitz_zeta", None) is zeta:
            monkeypatch.setattr(mod, "hurwitz_zeta", counting_zeta)
    return calls


def test_verify_all_makes_328_hurwitz_zeta_calls(monkeypatch):
    # Deterministic cost guard: 256 at m = 0, 24 at m = 1 and 48 at m = 2.
    # The memo serves _zeta's repeats; quadrature, stieltjes and the pole
    # routes call hurwitz_zeta themselves.
    calls = _record_engine_calls(monkeypatch)
    verify_all()
    orders = [args[2] for name, args in calls if name == "zeta"]
    assert (orders.count(0), orders.count(1), orders.count(2)) == (256, 24, 48)


def test_second_verify_all_makes_the_same_engine_calls(monkeypatch):
    # Each verify_all() builds its own catalogue and memo: nothing
    # summed by the first run serves the second.
    calls = _record_engine_calls(monkeypatch)
    first = verify_all()
    n = len(calls)
    second = verify_all()
    assert n > 0
    assert calls[n:] == calls[:n]
    assert second.cases == first.cases


def test_repeated_cli_verify_makes_equal_engine_calls(monkeypatch, capsys):
    from zetalim import cli

    calls = _record_engine_calls(monkeypatch)
    assert cli.main(["verify", "--id", "EQ4.12", "--grid", "5"]) == 0
    out = capsys.readouterr().out
    n = len(calls)
    assert cli.main(["verify", "--id", "EQ4.12", "--grid", "5"]) == 0
    assert capsys.readouterr().out == out
    assert n > 0
    assert calls[n:] == calls[:n]


def test_memo_lives_only_while_a_case_runs(monkeypatch):
    from zetalim import regsum
    from zetalim.regsum import regularized_limit

    def fails(exc):
        def evaluator(pt):
            raise exc("synthetic failure for the memo scope")
        return evaluator

    case = _by_id("EQ4.1")
    assert case.memo == {}
    verify(case)
    assert case.memo
    assert regsum._memo is None
    captured = registry()[0]
    captured.lhs = fails(ValueError)
    assert not _single(captured).passed
    assert regsum._memo is None
    escaping = registry()[0]
    escaping.lhs = fails(RuntimeError)
    with pytest.raises(RuntimeError):
        verify(escaping)
    assert regsum._memo is None

    calls = _record_engine_calls(monkeypatch)
    for k in range(1, 4):
        regularized_limit(0.3, "sine", "unit")
        assert len(calls) == k


def test_memo_keeps_only_successful_results(monkeypatch):
    # A Hurwitz zeta value (EQ3.9, through _zeta) and a master sum (EQ4.1,
    # through regsum._series_sum) each fail on their first call.  The
    # failed arguments leave no entry (each cache holds one result fewer
    # than it missed), so a second verify sums them again and keeps them.
    from zetalim import regsum
    from zetalim.result import ConvergenceError

    calls = {}

    def failing_once(original, key):
        def engine(*args):
            seen = calls.setdefault(engine, [])
            seen.append(key(*args))
            if len(seen) == 1:
                raise ConvergenceError("synthetic failure for the memo")
            return original(*args)

        return engine

    monkeypatch.setattr(identities, "hurwitz_zeta",
                        failing_once(identities.hurwitz_zeta, lambda q: (q.s, q.x, q.m)))
    monkeypatch.setattr(regsum, "_master_sum_adaptive",
                        failing_once(regsum._master_sum_adaptive, lambda *args: args))
    catalogue = {c.id: c for c in registry()}
    cases = (catalogue["EQ3.9"], catalogue["EQ4.1"])
    memo = cases[0].memo
    caches = (memo[identities._zeta_value], memo[regsum._master_sum_adaptive])
    for case in cases:
        bad = [p for p in _single(case).points if not p.passed]
        assert len(bad) == 1, case.id
        assert bad[0].note.startswith("ConvergenceError: synthetic"), case.id
    first = {engine: list(seen) for engine, seen in calls.items()}
    assert len(first) == 2
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize + 1
    for case in cases:
        assert _single(case).passed, case.id
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize + 1
    for engine, seen in calls.items():
        failed, *kept = first[engine]
        again = seen[len(kept) + 1:]
        assert failed in again and not set(again) & set(kept)


def test_rebinding_an_engine_while_a_catalogue_lives(monkeypatch):
    # A rebound regsum._master_sum_adaptive takes effect at once, under a
    # cache of its own.  A rebound hurwitz_zeta leaves the values _zeta
    # already holds, because the memo caches _zeta_value, which reaches
    # hurwitz_zeta only on a miss.
    from zetalim import regsum
    from zetalim.regsum import regularized_limit

    memo = registry()[0].memo
    monkeypatch.setattr(regsum, "_memo", memo)
    limit = regularized_limit(0.3, "sine", "unit").value
    zeta = identities._zeta(0.5, 0.3)
    master = regsum._master_sum_adaptive

    def shifted(*args):
        value, err, n, series = master(*args)
        return value + 1j, err, n, series

    def failing(q):
        raise ValueError("rebound hurwitz_zeta")

    monkeypatch.setattr(regsum, "_master_sum_adaptive", shifted)
    monkeypatch.setattr(identities, "hurwitz_zeta", failing)
    assert regularized_limit(0.3, "sine", "unit").value == limit + 1.0
    assert memo[master].cache_info().currsize == memo[shifted].cache_info().currsize == 1
    assert identities._zeta(0.5, 0.3) == zeta
    with pytest.raises(ValueError, match="rebound hurwitz_zeta"):
        identities._zeta(0.5, 0.4)


def test_catalogue_cases_share_one_memo_and_user_cases_have_none():
    case = IdentityCase(
        id="USER", lhs=lambda pt: 0.0, rhs=lambda pt: 0.0, axes=(), tol=1e-6, notes="",
    )
    assert case.memo is None
    catalogue = registry()
    assert all(c.memo is catalogue[0].memo for c in catalogue)
    assert registry()[0].memo is not catalogue[0].memo


def test_cases_verify_alike_on_a_fresh_and_a_full_memo():
    # The memo keys are the exact arguments: a case served entirely from
    # quantities its siblings stored reports what it reports alone, and
    # what it reports with no memo at all.
    shared = registry()
    for case in shared:
        verify(case)
    for k, case in enumerate(shared):
        alone = registry()[k]
        bare = registry()[k]
        bare.memo = None
        want = verify(alone).cases
        assert verify(case).cases == want, case.id
        assert verify(bare).cases == want, case.id


def test_complex_sides_report_moduli_and_complex_residual():
    lhs, rhs = 3.0 + 4.0j, 4.0 + 3.0j
    case = IdentityCase(
        id="SYNTH-C",
        lhs=lambda pt: lhs,
        rhs=lambda pt: rhs if pt["x"] < 0.5 else lhs,
        axes=(("x", default_x_grid),),
        tol=1e-6,
        notes="equal moduli, different complex values below x = 1/2",
    )
    res = _single(case, grid_density=3)
    assert [p.coords[0][1] for p in res.points] == [0.25, 0.5, 0.75]
    for p in res.points:
        assert p.lhs == p.rhs == 5.0
        assert isinstance(p.lhs, float) and isinstance(p.rhs, float)
    first, *rest = res.points
    assert first.residual == abs(lhs - rhs) == math.sqrt(2.0)
    assert not first.passed
    assert all(p.residual == 0.0 and p.passed for p in rest)
    assert not res.passed
    assert res.max_residual == math.sqrt(2.0)
