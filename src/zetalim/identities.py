"""Identity catalogue and verification reports.

Every case binds a left and a right evaluator, the named axes whose
product is its grid, and an absolute tolerance.  A row writes its
identity's closed form itself; regsum supplies only the series.
verify() walks the grid's points without early abort: an evaluator
exception becomes a failing point with the reason noted.
A point's residual is |lhs - rhs|; where the two sides are complex
numbers the report lists each side's modulus, |lhs| and |rhs|, next to
the complex residual.
verify_all() runs the whole catalogue and assembles a single report
ordered by case id.

Each registry() call builds one catalogue with one memo that all its
cases share while their points run: master sums, head angles and the
Hurwitz zeta values _zeta takes are computed once per catalogue (see
regsum._memo).  verify_all() and each `zetalim verify` build a new one.
"""
from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Mapping, NamedTuple, Optional, Tuple, Union

from .hurwitz import HurwitzQuery, _pole_limit, hurwitz_zeta, pole_residue_check
from .regsum import TrigSeriesSpec, regularized_limit, trig_dirichlet_sum
# After the line above has bound the package's `regsum` attribute, so this
# does not reach zetalim.__getattr__.
from . import regsum
from .result import DomainError, EvalResult
from .special import EULER_GAMMA, digamma, log_gamma
from .stieltjes import (
    StieltjesQuery,
    gamma1_reflection_diff,
    integral_gamma,
    stieltjes_gamma,
)

LN_2PI = math.log(2.0 * math.pi)

# Fixed grids shared by several cases.
S_ORACLE = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)
X_ORACLE = (0.1, 0.25, 0.5, 1.0, 2.0)
S_FOURIER = (-2.0, -1.0, -0.5, 0.25, 0.5)
X_EXTRAS = (0.25, 1.0 / 3.0, 0.75)


def _mirrored(half):
    """Gauss-Legendre (node, weight) pairs on [-1, 1] in ascending node
    order, from the pairs of negative nodes: the rule is symmetric."""
    return half + tuple((-t, w) for t, w in reversed(half))


# The negative-node halves of numpy.polynomial.legendre.leggauss(16) and
# (24), each entry the repr of numpy's float; leggauss is exactly
# symmetric at these orders, so the mirrored tables equal its output.
_GL16 = _mirrored((
    (-0.9894009349916499, 0.027152459411754176),
    (-0.9445750230732326, 0.062253523938647456),
    (-0.8656312023878318, 0.0951585116824926),
    (-0.755404408355003, 0.12462897125553407),
    (-0.6178762444026438, 0.1495959888165767),
    (-0.45801677765722737, 0.16915651939500265),
    (-0.2816035507792589, 0.18260341504492364),
    (-0.09501250983763744, 0.18945061045506864),
))
_GL24 = _mirrored((
    (-0.9951872199970213, 0.01234122979998869),
    (-0.9747285559713095, 0.02853138862893356),
    (-0.9382745520027328, 0.04427743881741941),
    (-0.8864155270044011, 0.05929858491543636),
    (-0.820001985973903, 0.07334648141108016),
    (-0.7401241915785544, 0.0861901615319532),
    (-0.6480936519369755, 0.09761865210411393),
    (-0.5454214713888396, 0.10744427011596556),
    (-0.4337935076260451, 0.11550566805372552),
    (-0.3150426796961634, 0.1216704729278033),
    (-0.1911188674736163, 0.12583745634682825),
    (-0.06405689286260563, 0.12793819534675202),
))

Point = Mapping[str, float]
Evaluator = Callable[[Point], Union[float, complex]]
Axis = Tuple[str, Union[Tuple[float, ...], Callable[[int], Tuple[float, ...]]]]


def uniform_x(grid_density: int) -> Tuple[float, ...]:
    """Interior grid k/(g+1), k = 1..g; density 9 gives 0.1 .. 0.9."""
    if grid_density < 3:
        raise DomainError(f"grid_density must be >= 3, got {grid_density}")
    return tuple(k / (grid_density + 1.0) for k in range(1, grid_density + 1))

def default_x_grid(grid_density: int) -> Tuple[float, ...]:
    """Uniform grid, widened by {1/4, 1/3, 3/4} at the default density.

    The extra points exercise symmetric and rational-angle phases; they
    are pinned to density 9 so that an explicit --grid request yields
    exactly the requested number of points.
    """
    pts = list(uniform_x(grid_density))
    if grid_density == 9:
        pts.extend(X_EXTRAS)
    return tuple(sorted(pts))


class IdentityCase:
    """One identity lhs(pt) = rhs(pt) over a grid, to an absolute tol.

    The grid is the product of the named axes.  Each axis is a (label,
    values) pair, where values is a tuple of fixed coordinates or a
    function of the grid density (uniform_x, default_x_grid).  points()
    runs over every combination, the first axis outermost; no axes give
    one point with no coordinates.

    Each side returns a float or a complex number.  The residual is
    |lhs - rhs| either way; a complex side is listed in the report by
    its modulus, so its columns can agree while the residual does not.

    memo is None for a case built here; registry() points every case it
    returns at its catalogue's memo (see regsum._memo).
    """

    __slots__ = ("id", "lhs", "rhs", "axes", "tol", "notes", "memo")

    def __init__(self, id: str, lhs: Evaluator, rhs: Evaluator, axes: Tuple[Axis, ...],
                 tol: float, notes: str) -> None:
        if not 1e-12 <= tol <= 1e-5:
            raise DomainError(f"tol must lie in [1e-12, 1e-5], got {tol}")
        self.id = id
        self.lhs = lhs
        self.rhs = rhs
        self.axes = axes
        self.tol = tol
        self.notes = notes
        self.memo = None

    def points(self, grid_density: int) -> Tuple[Tuple[Tuple[str, float], ...], ...]:
        labels = [label for label, _ in self.axes]
        grids = [v(grid_density) if callable(v) else v for _, v in self.axes]
        return tuple(tuple(zip(labels, combo)) for combo in itertools.product(*grids))


# Report records are named tuples: they iterate and compare as tuples.
class PointRecord(NamedTuple):
    coords: Tuple[Tuple[str, float], ...]
    lhs: Optional[float]
    rhs: Optional[float]
    residual: Optional[float]
    passed: bool
    note: str = ""


class CaseResult(NamedTuple):
    case_id: str
    points: Tuple[PointRecord, ...]
    max_residual: Optional[float]
    passed: bool
    tol: float


class VerificationReport(NamedTuple):
    """Aggregated outcome; wall_time is informational and is not part
    of any serialized form, so repeated runs emit identical bytes."""

    cases: Tuple[CaseResult, ...]
    cases_run: int
    cases_passed: int
    max_residual: Optional[float]
    wall_time: float


# ---------------------------------------------------------------------------
# evaluators shared by several registry() rows or with steps of their own.
# Every evaluator looks library functions up by this module's global names
# at call time, so rebinding a name (a tracer, a monkeypatch) reaches it,
# within a catalogue as regsum._memo says.


def _zeta(s: float, x: float, m: int = 0) -> float:
    memo = regsum._memo
    return (_zeta_value if memo is None else memo[_zeta_value])(s, x, m)


def _zeta_value(s: float, x: float, m: int) -> float:
    return hurwitz_zeta(HurwitzQuery(s, x, m)).value


def _gamma1(x: float) -> float:
    return stieltjes_gamma(StieltjesQuery(1, x)).value


def _fourier_side(s: float, x: float, trig: str) -> float:
    """4 Gamma(1-s) sin(pi s/2) (cosine) or cos(pi s/2) (sine) times
    the sum of trig(2 n pi x) (2 pi n)^(s-1)."""
    c = trig_dirichlet_sum(
        TrigSeriesSpec(x=x, trig=trig, weight="unit", s=s, scale="two_pi_n_power")
    ).value
    phase = math.sin if trig == "cosine" else math.cos
    return 4.0 * math.gamma(1.0 - s) * phase(0.5 * math.pi * s) * c


def _series_at_zero(x: float, trig: str, weight: str) -> float:
    """sum w(n) trig(2 n pi x) / n, summed at s = 0."""
    return trig_dirichlet_sum(TrigSeriesSpec(x=x, trig=trig, weight=weight, s=0.0)).value


def _pi_min(x: float) -> float:
    """pi min(x, 1 - x), the angle at which cot, 1/sin and tan(./2) are
    taken: for x > 1/2, 1 - x is exact, while pi x next to pi carries a
    rounding error that they magnify (4e-13 absolute in pi cot(pi x) at
    x = 0.989)."""
    return math.pi * min(x, 1.0 - x)


def cot_pi(x: float) -> float:
    """cot(pi x), taken as -cot(pi (1 - x)) for x > 1/2."""
    t = _pi_min(x)
    c = math.cos(t) / math.sin(t)
    return -c if x > 0.5 else c


def _zeta2_pair(u: float) -> float:
    return 0.5 * (_zeta(0.0, u, 2) + _zeta(0.0, 1.0 - u, 2))


def _psi_via_series(x: float) -> float:
    lim = regularized_limit(x, "cosine", "log_2pi_n", scale="two_pi_n_power").value
    return 2.0 * lim - 0.5 * math.pi * cot_pi(x) - EULER_GAMMA


def _halfarg_rhs(s: float, m: int) -> float:
    """m-th s-derivative of (2^s - 1) zeta(s)."""
    z = [_zeta(s, 1.0, k) for k in range(m + 1)]
    p = 2.0**s
    ln2 = math.log(2.0)
    if m == 0:
        return (p - 1.0) * z[0]
    if m == 1:
        return ln2 * p * z[0] + (p - 1.0) * z[1]
    return ln2 * ln2 * p * z[0] + 2.0 * ln2 * p * z[1] + (p - 1.0) * z[2]


# ---------------------------------------------------------------------------
# quadrature of the second s-derivative of zeta at s = 0 over u in (0, 1)


def quadrature_zeta2_integral() -> EvalResult:
    """Integral over (0, 1) of the second s-derivative of zeta(s, u) at
    s = 0; the exact value is 0.

    The shift zeta(s, u) = u^(-s) + zeta(s, u+1) gives
    zeta''(0, u) = ln(u)^2 + zeta''(0, u+1).  The singular ln(u)^2
    integrates to exactly 2 over (0, 1); the smooth rest is 16-point
    Gauss-Legendre over (1, 2), nodes 1.5 + 0.5 t and weights 0.5 w.
    Tagged "shift-gl16"; terms_used counts the 16 nodes.
    """
    pieces = [2.0]
    err_parts = []
    for t, w in _GL16:
        r = hurwitz_zeta(HurwitzQuery(0.0, 1.5 + 0.5 * t, 2))
        pieces.append(0.5 * w * r.value)
        err_parts.append(0.5 * w * r.err_estimate)
    value = math.fsum(pieces)
    err = math.fsum(err_parts) + 1e-16 * math.fsum(abs(p) for p in pieces)
    return EvalResult(value, err, len(_GL16), "shift-gl16")


# ---------------------------------------------------------------------------
# catalogue


def registry() -> Tuple[IdentityCase, ...]:
    """The fixed verification catalogue, in stable order.

    Each call makes a new memo and points every case it returns at it,
    so a quantity one case has computed serves the others (see
    regsum._memo).
    """
    x_default = (("x", default_x_grid),)
    u_default = (("u", default_x_grid),)
    cases = (
        IdentityCase(
            id="EQ2.3",
            lhs=lambda pt: pole_residue_check(pt["x"]),
            rhs=lambda pt: 1.0,
            axes=(("x", (0.5, 1.0, 3.7)),),
            tol=1e-9,
            notes="Residue at the s = 1 pole: extrapolated (s-1)*zeta(s,x) equals 1 for every x.",
        ),
        IdentityCase(
            id="EQ3.9",
            lhs=lambda pt: _zeta(pt["s"], 1.0 + pt["x"]) - _zeta(pt["s"], pt["x"]),
            rhs=lambda pt: -pt["x"] ** -pt["s"],
            axes=(("s", S_ORACLE), ("x", X_ORACLE)),
            tol=1e-9,
            notes="Forward shift: zeta(s,1+x) - zeta(s,x) = -x^(-s).",
        ),
        IdentityCase(
            id="EQ3.10",
            lhs=lambda pt: _gamma1(1.0 + pt["x"]) - _gamma1(pt["x"]),
            rhs=lambda pt: -math.log(pt["x"]) / pt["x"],
            axes=(("x", tuple(k / 5.0 for k in range(1, 16))),),
            tol=1e-9,
            notes="Recurrence gamma1(1+x) - gamma1(x) = -ln(x)/x.",
        ),
        IdentityCase(
            id="EQ3.11",
            lhs=lambda pt: (
                stieltjes_gamma(StieltjesQuery(0, pt["x"])).value
                - stieltjes_gamma(StieltjesQuery(0, 1.0 + pt["x"])).value
            ),
            rhs=lambda pt: 1.0 / pt["x"],
            axes=(("x", tuple(k / 10.0 for k in range(1, 10)) + (1.5, 2.5, 5.0, 7.5, 10.0)),),
            tol=1e-9,
            notes="Recurrence gamma0(x) - gamma0(1+x) = 1/x, the digamma shift in disguise.",
        ),
        IdentityCase(
            id="EQ3.18",
            lhs=lambda pt: _zeta(0.0, pt["x"], 1),
            rhs=lambda pt: log_gamma(pt["x"]) - 0.5 * LN_2PI,
            axes=x_default,
            tol=1e-9,
            notes="s-derivative of zeta at s = 0 equals ln Gamma(x) - ln(2 pi)/2.",
        ),
        IdentityCase(
            id="EQ3.20",
            lhs=lambda pt: integral_gamma(1, pt["u"]).value,
            rhs=lambda pt: 0.0,
            axes=(("u", (2.0,)),),
            tol=1e-9,
            notes="integral_gamma(1, 2) vanishes: the antiderivative route gives exactly 0.",
        ),
        IdentityCase(
            id="EQ3.21",
            lhs=lambda pt: math.fsum(0.5 * w * _gamma1(1.5 + 0.5 * t) for t, w in _GL24),
            rhs=lambda pt: integral_gamma(1, 2.0).value,
            axes=(("u", (2.0,)),),
            tol=1e-8,
            notes="Gauss-Legendre quadrature of gamma1 over [1,2] matches the closed-form integral.",
        ),
        IdentityCase(
            id="EQ3.2",
            lhs=lambda pt: _pole_limit(pt["x"], "gamma0").value,
            rhs=lambda pt: stieltjes_gamma(StieltjesQuery(0, pt["x"])).value,
            axes=x_default,
            tol=1e-9,
            notes="Constant Laurent coefficient of zeta(s,x) at s = 1 equals -psi(x); the left side extrapolates the pole-free even part [zeta(1+h,x) + zeta(1-h,x)]/2 to h = 0.",
        ),
        IdentityCase(
            id="EQ4.4",
            lhs=lambda pt: _zeta(pt["s"], pt["x"]) + _zeta(pt["s"], 1.0 - pt["x"]),
            rhs=lambda pt: _fourier_side(pt["s"], pt["x"], "cosine"),
            axes=(("s", S_FOURIER), ("x", uniform_x)),
            tol=1e-8,
            notes="Even Fourier closure: zeta(s,x) + zeta(s,1-x) = 4 Gamma(1-s) sin(pi s/2) * sum cos(2 n pi x)(2 pi n)^(s-1), at fixed s < 1.",
        ),
        IdentityCase(
            id="EQ4.5",
            lhs=lambda pt: _zeta(pt["s"], pt["x"]) - _zeta(pt["s"], 1.0 - pt["x"]),
            rhs=lambda pt: _fourier_side(pt["s"], pt["x"], "sine"),
            axes=(("s", S_FOURIER), ("x", uniform_x)),
            tol=1e-8,
            notes="Odd Fourier closure: zeta(s,x) - zeta(s,1-x) = 4 Gamma(1-s) cos(pi s/2) * sum sin(2 n pi x)(2 pi n)^(s-1), at fixed s < 1.",
        ),
        IdentityCase(
            id="EQ4.1",
            lhs=lambda pt: regularized_limit(pt["x"], "sine", "unit").value,
            rhs=lambda pt: 0.5 * cot_pi(pt["x"]),
            axes=x_default,
            tol=1e-6,
            notes="Regularized sine sum equals cot(pi x)/2.",
        ),
        IdentityCase(
            id="EQ4.14",
            lhs=lambda pt: regularized_limit(pt["x"], "cosine", "unit").value,
            rhs=lambda pt: -0.5,
            axes=x_default,
            tol=1e-6,
            notes="Regularized cosine sum equals -1/2 for every x in (0,1).",
        ),
        IdentityCase(
            id="EQ4.14C",
            lhs=lambda pt: complex(
                regularized_limit(pt["x"], "cosine", "unit").value,
                regularized_limit(pt["x"], "sine", "unit").value,
            ),
            rhs=lambda pt: complex(-0.5, 0.5 * cot_pi(pt["x"])),
            axes=x_default,
            tol=1e-6,
            notes="Complex pairing of the two unit-weight limits equals e^(2 pi i x)/(1 - e^(2 pi i x)); the residual is the complex modulus of the difference while the lhs/rhs columns list each side's modulus.",
        ),
        IdentityCase(
            id="EQ4.8",
            lhs=lambda pt: gamma1_reflection_diff(pt["x"]).value,
            rhs=lambda pt: (
                2.0 * math.pi * regularized_limit(pt["x"], "sine", "log_n").value
                + math.pi * (EULER_GAMMA + LN_2PI) * cot_pi(pt["x"])
            ),
            axes=x_default,
            tol=1e-6,
            notes="Headline identity: gamma1(1-x) - gamma1(x) = 2 pi * (regularized log-weighted sine sum) + pi (gamma + ln 2 pi) cot(pi x). Symmetric under x -> 1-x, both sides flipping sign.",
        ),
        IdentityCase(
            id="EQ4.10.1",
            lhs=lambda pt: gamma1_reflection_diff(pt["x"]).value,
            rhs=lambda pt: 2.0 * math.pi * regularized_limit(
                pt["x"], "sine", "gamma_plus_log_2pi_n"
            ).value,
            axes=x_default,
            tol=1e-6,
            notes="Combined-weight form: gamma1(1-x) - gamma1(x) = 2 pi * regularized sum of [gamma + ln(2 pi n)] sin(2 n pi x) n^(s-1), folding the cot term into the weight.",
        ),
        IdentityCase(
            id="EQ4.12",
            lhs=lambda pt: _series_at_zero(pt["u"], "cosine", "log_n"),
            rhs=lambda pt: (
                _zeta2_pair(pt["u"])
                + (EULER_GAMMA + LN_2PI) * math.log(2.0 * math.sin(math.pi * pt["u"]))
            ),
            axes=u_default,
            tol=1e-6,
            notes="Cosine log sum: sum (ln n / n) cos(2 n pi u) = [zeta''(0,u) + zeta''(0,1-u)]/2 + (gamma + ln 2 pi) ln(2 sin pi u). The leading sign is plus; the value at u = 1/2 is gamma ln 2 - (ln 2)^2/2, pinning it.",
        ),
        IdentityCase(
            id="EQ4.12.1",
            lhs=lambda pt: _series_at_zero(pt["u"], "cosine", "gamma_plus_log_2pi_n"),
            rhs=lambda pt: _zeta2_pair(pt["u"]),
            axes=u_default,
            tol=1e-6,
            notes="Combined-weight cosine sum: sum [gamma + ln(2 pi n)]/n cos(2 n pi u) = [zeta''(0,u) + zeta''(0,1-u)]/2; the log-sine term of the plain form is absorbed by the weight.",
        ),
        IdentityCase(
            id="EQ4.13",
            lhs=lambda pt: quadrature_zeta2_integral().value,
            rhs=lambda pt: 0.0,
            axes=(),
            tol=1e-6,
            notes="Integral of zeta''(0,u) over (0,1) vanishes.",
        ),
        IdentityCase(
            id="EQ4.18",
            lhs=lambda pt: 2.0 * regularized_limit(
                pt["x"], "cosine", "log_n", scale="two_pi_n_power"
            ).value,
            rhs=lambda pt: (
                digamma(pt["x"]) + 0.5 * math.pi * cot_pi(pt["x"]) + EULER_GAMMA + LN_2PI
            ),
            axes=x_default,
            tol=1e-6,
            notes="Doubled regularized log-cosine sum equals psi(x) + (pi/2) cot(pi x) + gamma + ln 2 pi.",
        ),
        IdentityCase(
            id="EQ4.19",
            lhs=lambda pt: digamma(pt["x"]),
            rhs=lambda pt: _psi_via_series(pt["x"]),
            axes=x_default,
            tol=1e-6,
            notes="psi(x) recovered from the regularized ln(2 pi n) cosine sum. Only the limit form holds: the same display without the s-limit (summing at the boundary exponent directly) is a known non-identity and is never asserted here.",
        ),
        IdentityCase(
            id="EQ4.20",
            lhs=lambda pt: digamma(pt["x"]) + digamma(1.0 - pt["x"]),
            rhs=lambda pt: -2.0 * EULER_GAMMA + 4.0 * regularized_limit(
                pt["x"], "cosine", "log_2pi_n", scale="two_pi_n_power"
            ).value,
            axes=x_default,
            tol=1e-6,
            notes="Symmetrized form: psi(x) + psi(1-x) = -2 gamma + 4 * regularized ln(2 pi n) cosine sum.",
        ),
        IdentityCase(
            id="KUMMER",
            lhs=lambda pt: 2.0 / math.pi * _series_at_zero(pt["x"], "sine", "log_2pi_n"),
            rhs=lambda pt: (
                log_gamma(pt["x"]) - log_gamma(1.0 - pt["x"]) + 2.0 * EULER_GAMMA * (pt["x"] - 0.5)
            ),
            axes=x_default,
            tol=1e-6,
            notes="Antisymmetric log-gamma Fourier expansion: (2/pi) sum ln(2 pi n) sin(2 n pi x)/n = ln Gamma(x) - ln Gamma(1-x) + 2 gamma (x - 1/2).",
        ),
        IdentityCase(
            id="LOGSINE",
            lhs=lambda pt: 1.0 / math.pi * _series_at_zero(pt["u"], "sine", "log_n"),
            rhs=lambda pt: (
                log_gamma(pt["u"])
                - 0.5 * math.log(math.pi)
                + 0.5 * math.log(math.sin(math.pi * pt["u"]))
                + (pt["u"] - 0.5) * (EULER_GAMMA + LN_2PI)
            ),
            axes=u_default,
            tol=1e-6,
            notes="sum ln(n) sin(2 n pi u)/(pi n) = ln Gamma(u) - ln(pi)/2 + ln(sin pi u)/2 + (u - 1/2)(gamma + ln 2 pi).",
        ),
        IdentityCase(
            id="EQ4.21",
            lhs=lambda pt: regularized_limit(pt["x"], "sine", "unit", "alternating").value,
            rhs=lambda pt: (
                # tan(pi x / 2) = 1 / tan(pi (1 - x) / 2)
                0.5 / math.tan(0.5 * _pi_min(pt["x"])) if pt["x"] > 0.5
                else 0.5 * math.tan(0.5 * _pi_min(pt["x"]))
            ),
            axes=x_default,
            tol=1e-6,
            notes="Alternating sine sum: regularized sum of (-1)^(n+1) sin(n pi x) n^(s-1) equals tan(pi x/2)/2.",
        ),
        IdentityCase(
            id="EQ4.22",
            lhs=lambda pt: regularized_limit(pt["x"], "cosine", "unit", "alternating").value,
            rhs=lambda pt: 0.5,
            axes=x_default,
            tol=1e-6,
            notes="Alternating cosine sum: regularized sum of (-1)^(n+1) cos(n pi x) n^(s-1) equals 1/2 for every x.",
        ),
        IdentityCase(
            id="EQ4.23",
            lhs=lambda pt: regularized_limit(pt["x"], "sine", "unit", "odd_only").value,
            rhs=lambda pt: 0.5 / math.sin(_pi_min(pt["x"])),
            axes=x_default,
            tol=1e-6,
            notes="Odd-index sine sum: regularized sum over odd n of sin(n pi x) n^(s-1) equals 1/(2 sin pi x). The 1/2 prefactor is forced by the half-sum decomposition odd = (all + alternating)/2 and by the x = 1/2 value, where the series is the alternating (2k+1)^(-s) family with limit 1/2.",
        ),
        IdentityCase(
            id="ALTLOG",
            lhs=lambda pt: regularized_limit(
                0.5, "cosine", "log_n", "all_n", "two_pi_n_power", 1.0
            ).value,
            rhs=lambda pt: 0.5 * math.log(0.5 * math.pi),
            axes=(),
            tol=1e-7,
            notes="Regularized sum of (-1)^n ln(n) (2 pi n)^(s-1) equals ln(pi/2)/2.",
        ),
        IdentityCase(
            id="PSIREFL",
            lhs=lambda pt: _psi_via_series(1.0 - pt["x"]) - _psi_via_series(pt["x"]),
            rhs=lambda pt: math.pi * cot_pi(pt["x"]),
            axes=x_default,
            tol=1e-7,
            notes="Difference of the series-based psi formula at 1-x and at x recovers the reflection value pi cot(pi x).",
        ),
        IdentityCase(
            id="HALFARG",
            lhs=lambda pt: _zeta(pt["s"], 0.5, pt["m"]),
            rhs=lambda pt: _halfarg_rhs(pt["s"], pt["m"]),
            axes=(("s", S_ORACLE), ("m", (0, 1, 2))),
            tol=1e-9,
            notes="Half argument: zeta(s,1/2) = (2^s - 1) zeta(s), checked together with its first and second s-derivatives.",
        ),
    )
    memo = regsum._Memo()
    for case in cases:
        case.memo = memo
    return cases


def _run_case(case: IdentityCase, grid_density: int, tol_scale: float) -> CaseResult:
    tol = case.tol / tol_scale
    records = []
    regsum._memo = case.memo
    try:
        for coords in case.points(grid_density):
            pt = dict(coords)
            lhs = rhs = residual = None
            note = ""
            try:
                lhs = case.lhs(pt)
                rhs = case.rhs(pt)
                residual = abs(lhs - rhs)
                if isinstance(lhs, complex) or isinstance(rhs, complex):
                    lhs, rhs = abs(lhs), abs(rhs)
            except (ArithmeticError, ValueError) as exc:
                note = f"{type(exc).__name__}: {exc}"
            passed = False
            if not note:
                if math.isfinite(residual):
                    passed = residual <= tol
                else:
                    residual = None
                    note = "non-finite residual"
            records.append(PointRecord(tuple(coords), lhs, rhs, residual, passed, note))
    finally:
        regsum._memo = None
    finite = [r.residual for r in records if r.residual is not None]
    return CaseResult(
        case_id=case.id,
        points=tuple(records),
        max_residual=max(finite) if finite else None,
        passed=bool(records) and all(r.passed for r in records),
        tol=tol,
    )


def _verify(cases: Tuple[IdentityCase, ...], grid_density: int, tol_scale: float) -> VerificationReport:
    if grid_density < 3:
        raise DomainError(f"grid_density must be >= 3, got {grid_density}")
    if not tol_scale > 0.0:
        raise DomainError(f"tol_scale must be positive, got {tol_scale}")
    start = time.perf_counter()
    results = tuple(sorted(
        (_run_case(case, grid_density, tol_scale) for case in cases), key=lambda c: c.case_id
    ))
    finite = [c.max_residual for c in results if c.max_residual is not None]
    return VerificationReport(
        cases=results,
        cases_run=len(results),
        cases_passed=sum(1 for c in results if c.passed),
        max_residual=max(finite) if finite else None,
        wall_time=time.perf_counter() - start,
    )


def verify(case: IdentityCase, grid_density: int = 9, tol_scale: float = 1.0) -> VerificationReport:
    return _verify((case,), grid_density, tol_scale)


def verify_all(grid_density: int = 9, tol_scale: float = 1.0) -> VerificationReport:
    return _verify(registry(), grid_density, tol_scale)
