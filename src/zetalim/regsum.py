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
so does its rounding, so there the tail is cut into blocks of about
1/(2y) terms, whose ratio z^B lies next to -1.  Euler summation is
regular and its value is analytic in s (Hardy, Divergent Series,
ch. 8), so a regularized limit s -> s* in {0, 1} is the Euler-summed
series evaluated once at s = s*.  Neville extrapolation over the
sample path s* - h_k, h_k = h0 2^{-k}, every sampled s strictly inside
the s < 1 convergence half-line, stays as the independent cross-check
route, selected by passing a path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .extrapolate import neville_zero
from .result import ConvergenceError, DomainError, EvalResult
from .special import EULER_GAMMA, cot, digamma, log_gamma
from .stieltjes import gamma1_reflection_diff

TRIG_KINDS = ("sine", "cosine")
WEIGHT_KINDS = ("unit", "log_n", "log_2pi_n", "gamma_plus_log_2pi_n")
PARITY_KINDS = ("all_n", "alternating", "odd_only")
SCALE_KINDS = ("n_power", "two_pi_n_power")

_TWO_PI = 2.0 * math.pi
_EDGE_BAND = 0.01
_HEAD_START = 64
_HEAD_CAP = 32768
_SWEEPS = 40
_ENGINE_TARGET = 5e-12
# Edge-band accuracy: a master sum that cannot reach it raises.
_EDGE_ERR = 1e-8
# Shortest block worth a blocked call: with fewer terms (y above about
# 0.08, |z/(1-z)| below 2) the plain head's doublings cost less.
_BLOCK_MIN = 7
# Rounding of one tail offset relative to its size: 4 ulps.
_OFFSET_ROUNDING = 4.0 * 2.0**-52
# Rounding of a computed phase e^(2 pi i t), t in [0, 1): at most about
# 3 ulps, measured against mpmath.
_RATIO_ROUNDING = 8.0 * 2.0**-52


@dataclass(frozen=True)
class TrigSeriesSpec:
    """One weighted trigonometric Dirichlet series at fixed real s."""

    x: float
    trig: str
    weight: str
    parity: str = "all_n"
    s: float = 0.0
    scale: str = "n_power"

    def __post_init__(self) -> None:
        if not 0.0 < self.x < 1.0:
            raise DomainError(f"x must lie in (0, 1), got {self.x}")
        if not math.isfinite(self.s):
            raise DomainError(f"s must be finite, got {self.s}")
        if self.trig not in TRIG_KINDS:
            raise DomainError(f"trig must be one of {TRIG_KINDS}")
        if self.weight not in WEIGHT_KINDS:
            raise DomainError(f"weight must be one of {WEIGHT_KINDS}")
        if self.parity not in PARITY_KINDS:
            raise DomainError(f"parity must be one of {PARITY_KINDS}")
        if self.scale not in SCALE_KINDS:
            raise DomainError(f"scale must be one of {SCALE_KINDS}")
        if self.parity == "odd_only" and self.weight != "unit":
            raise DomainError("odd_only parity is defined for unit weight only")


@dataclass(frozen=True)
class ExtrapolationPath:
    """Geometric offset ladder h_k = h0 2^{-k}, k = 0..depth."""

    target: float
    h0: float = 0.25
    depth: int = 8

    def __post_init__(self) -> None:
        if self.target not in (0.0, 1.0):
            raise DomainError(f"limit target must be 0 or 1, got {self.target}")
        if not 0.0 < self.h0 <= 0.25:
            raise DomainError(f"h0 must satisfy 0 < h0 <= 1/4, got {self.h0}")
        if self.depth < 6:
            raise DomainError(f"depth must be >= 6, got {self.depth}")

    @property
    def offsets(self) -> Tuple[float, ...]:
        return tuple(self.h0 * 2.0**-k for k in range(self.depth + 1))


def _weights(narr: np.ndarray, weight: str) -> np.ndarray:
    if weight == "unit":
        return np.ones_like(narr)
    if weight == "log_n":
        return np.log(narr)
    if weight == "log_2pi_n":
        return np.log(_TWO_PI * narr)
    return EULER_GAMMA + np.log(_TWO_PI * narr)


def _master_sum(
    y: float, s: float, weight: str, n_direct: int, block: int = 1
) -> Tuple[complex, float]:
    """M(y, s, w) = sum_{n>=1} w(n) e^{2 pi i n y} n^{s-1}.

    Head of n_direct terms summed pairwise; the remainder is an
    iterated Euler transform, which also sums the divergent series at
    s >= 1 (to the analytic continuation in s).  Returns the value and
    an error estimate: the last accepted transform increment, the
    rounding floor of every forward difference taken, the rounding of
    the transform ratio as magnified by the transform, and the head's
    rounding floor.

    With block = 1 the transform runs on the coefficients c(N + j)
    with ratio mu = z/(1-z), |mu| = 1/(2 sin pi y).  They are c(N) plus
    offsets computed with log1p/expm1, so their forward differences
    carry rounding of the offsets' size, not of c(N)'s.  That floor
    doubles with each difference; once a difference sinks below it the
    transform has nothing left to resolve and stops, reporting the
    floor.  Next to y = 0 or 1, where |mu| reaches 16-32 inside the
    edge band, each term multiplies the floor's share by 2|mu|.

    With block = B > 1 the transform runs on the block sums
    C(q) = sum_{r<B} c(N + qB + r) z^r with ratio z^B/(1-z^B).  For
    B = round(1/(2 min(y, 1-y))) the block ratio z^B lies next to -1,
    |z^B/(1-z^B)| <= 0.51 for B >= 7, and the transform is the
    well-conditioned alternating case (Cohen, Rodriguez Villegas and
    Zagier, Exp. Math. 9, 2000).  Its floor starts at 4 ulps of the
    largest block's sum of |c|.
    """
    y = y - round(y)
    # Split y so that n*y mod 1 is exact for n up to 2^21.
    y_hi = round(y * 2**26) / 2**26
    y_lo = y - y_hi

    def phases(narr: np.ndarray) -> np.ndarray:
        fr = (narr * y_hi) % 1.0 + narr * y_lo
        return np.exp(2j * np.pi * (fr % 1.0))

    z1 = complex(np.exp(2j * np.pi * ((y_hi % 1.0) + y_lo)))
    if abs(1.0 - z1) < 1e-9:
        raise ConvergenceError(f"phase point e^(2 pi i {y}) too close to 1")

    narr = np.arange(1, n_direct, dtype=np.float64)
    coeff = _weights(narr, weight) * narr ** (s - 1.0)
    head = complex(np.sum(coeff * phases(narr)))
    abs_head = float(np.sum(np.abs(coeff)))

    n0 = float(n_direct)
    if block == 1:
        # c(N + j) = p (w0 + l_j)(1 + e_j), l_j = log(1 + j/N), e_j = (1 + j/N)^(s-1) - 1.
        lj = np.log1p(np.arange(_SWEEPS + 2, dtype=np.float64) / n0)
        ej = np.expm1((s - 1.0) * lj)
        p = n0 ** (s - 1.0)
        if weight == "unit":
            w0 = 1.0
            offsets, size = ej, np.abs(ej)
        else:
            w0 = float(_weights(np.array([n0]), weight)[0])
            a, b = w0 * ej, lj * (1.0 + ej)
            offsets, size = a + b, np.abs(a) + np.abs(b)
        d = (p * offsets).tolist()
        floor = _OFFSET_ROUNDING * p * float(np.max(size))
        first, ratio = p * w0, z1
    else:
        narr = n0 + np.arange((_SWEEPS + 2) * block, dtype=np.float64)
        coeff = (_weights(narr, weight) * narr ** (s - 1.0)).reshape(-1, block)
        d = (coeff * phases(np.arange(block, dtype=np.float64))).sum(axis=1).tolist()
        floor = _OFFSET_ROUNDING * float(np.max(np.abs(coeff).sum(axis=1)))
        first, ratio = d[0], complex(phases(np.array([float(block)]))[0])

    z_n = complex(phases(np.array([n0]))[0])
    mu = ratio / (1.0 - ratio)
    mupow = z_n / (1.0 - ratio)
    tail = mupow * first
    incs = [abs(tail)]
    noise = 0.0
    # Through 1/(1 - ratio) and mu^k, a rounding delta of the ratio moves
    # term k by about (k + 1)|term k| delta/|1 - ratio|.
    spread = incs[0]
    for k in range(1, _SWEEPS):
        d = [d[i + 1] - d[i] for i in range(len(d) - 1)]
        mupow *= mu
        floor *= 2.0
        noise += abs(mupow) * floor
        if abs(d[0]) <= floor:
            # Only rounding noise is left: the floor is the error.
            incs.append(0.0)
            break
        term = mupow * d[0]
        tail += term
        incs.append(abs(term))
        spread += (k + 1) * incs[-1]
        if len(incs) >= 3 and incs[-1] < 1e-17 * (abs(tail) + 1.0):
            break
        if len(incs) >= 6 and incs[-1] > incs[-2] > incs[-3]:
            # Transform started diverging; drop the growing term.
            tail -= term
            incs.pop()
            break
    drift = _RATIO_ROUNDING * spread / abs(1.0 - ratio)
    err = incs[-1] + noise + drift + 1e-16 * (abs_head + 1.0)
    return head + tail, err


def _master_sum_adaptive(
    y: float, s: float, weight: str
) -> Tuple[complex, float, int]:
    """M(y, s, w) to _ENGINE_TARGET: value, error and head terms.

    A plain _HEAD_START-term call settles interior y.  When it misses
    and B = round(1/(2 min(y, 1-y))) >= _BLOCK_MIN, one call in blocks
    of B terms over a 24 B-term head follows, if that head fits in
    _HEAD_CAP.  The head then doubles, within _HEAD_CAP, while each
    attempt at least halves the error.  A best error above _EDGE_ERR
    raises ConvergenceError.
    """
    n, block = _HEAD_START, 1
    value, err = _master_sum(y, s, weight, n)
    best = (value, err, n)
    if err <= _ENGINE_TARGET:
        return best
    b = round(0.5 / abs(y - round(y)))
    if _BLOCK_MIN <= b and 24 * b <= _HEAD_CAP:
        n, block = 24 * b, b
        value, err = _master_sum(y, s, weight, n, block)
        if err < best[1]:
            best = (value, err, n)
    while best[1] > _ENGINE_TARGET and 2 * n <= _HEAD_CAP:
        last = err
        n *= 2
        value, err = _master_sum(y, s, weight, n, block)
        if err < best[1]:
            best = (value, err, n)
        if err > 0.5 * last:
            break
    if best[1] > _EDGE_ERR:
        raise ConvergenceError(
            f"master sum at y = {y}, s = {s} stalled at error {best[1]:.2g}"
        )
    return best


def _series_sum(spec: TrigSeriesSpec) -> Tuple[float, float, int]:
    """Value, error and head terms of `spec`'s series, summed at spec.s."""
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
    for coef, y in parts:
        val, part_err, n_used = _master_sum_adaptive(y, spec.s, spec.weight)
        total += coef * val
        err += abs(coef) * part_err
        terms += n_used
    value = total.imag if spec.trig == "sine" else total.real
    if spec.scale == "two_pi_n_power":
        fac = _TWO_PI ** (spec.s - 1.0)
        value *= fac
        err *= fac
    return value, err, terms


def trig_dirichlet_sum(spec: TrigSeriesSpec) -> EvalResult:
    """Evaluate the series of `spec` inside its convergence region s < 1.

    Working range: min(x, 1 - x) >= about 3.7e-4.  Next to x = 0 and
    x = 1 the master sum takes its tail in blocks of B = 1/(2 min(x,
    1 - x)) terms after a head of 24 B, and below that range the head
    would pass `_HEAD_CAP`, so the sum raises ConvergenceError.
    """
    if not spec.s < 1.0:
        raise ConvergenceError(
            f"series converges only for s < 1, got s = {spec.s}"
        )
    value, err, terms = _series_sum(spec)
    if min(spec.x, 1.0 - spec.x) < _EDGE_BAND:
        err = max(err, _EDGE_ERR)
    return EvalResult(
        value=value, err_estimate=err, terms_used=terms, method_tag="osc-euler"
    )


def regularized_limit(
    x: float,
    trig: str,
    weight: str,
    parity: str = "all_n",
    scale: str = "n_power",
    s_target: float = 1.0,
    path: ExtrapolationPath | None = None,
) -> EvalResult:
    """Limit s -> s_target of the series.

    By default the Euler-summed series is evaluated once at s = s_target
    (method tag "euler-at-target"): the transform's value is analytic in
    s, so it equals the limit.  Passing `path` selects the independent
    cross-check route instead, Neville extrapolation over the samples
    at s_target - h along the ladder (method tag "neville-osc").
    """
    if not _EDGE_BAND < x < 1.0 - _EDGE_BAND:
        raise DomainError(
            f"regularized limits need {_EDGE_BAND} < x < {1.0 - _EDGE_BAND}, got {x}"
        )
    if path is None:
        if float(s_target) not in (0.0, 1.0):
            raise DomainError(f"limit target must be 0 or 1, got {s_target}")
        value, err, terms = _series_sum(
            TrigSeriesSpec(x=x, trig=trig, weight=weight, parity=parity,
                           s=float(s_target), scale=scale)
        )
        return EvalResult(
            value=value, err_estimate=err, terms_used=terms,
            method_tag="euler-at-target",
        )
    if path.target != float(s_target):
        raise DomainError("path.target disagrees with s_target")
    hs = list(path.offsets)
    vals = []
    point_err = 0.0
    terms = 0
    for h in hs:
        r = trig_dirichlet_sum(
            TrigSeriesSpec(x=x, trig=trig, weight=weight, parity=parity,
                           s=path.target - h, scale=scale)
        )
        vals.append(r.value)
        point_err = max(point_err, r.err_estimate)
        terms += r.terms_used
    value, corrections = neville_zero(hs, vals)
    if corrections[-1] > 1e-10 and corrections[-1] > 8.0 * min(corrections):
        raise ConvergenceError(
            f"extrapolation unstable: corrections {corrections[-3:]}"
        )
    err = max(corrections[-1], point_err)
    return EvalResult(
        value=value, err_estimate=err, terms_used=terms, method_tag="neville-osc"
    )


def closed_form(x: float, case_id: str) -> float:
    """Closed-form target of a regularized limit at this x.

    Supported case ids: 4.1 (sine, unit), 4.3re / 4.3im (complex
    combination), 4.8 (sine, log weight), 4.14 (cosine, unit), 4.18
    (cosine, log weight, doubled), 4.21 / 4.22 (alternating), 4.23
    (odd index sine).  The 4.23 target is 1/(2 sin pi x): the value at
    x = 1/2 is the alternating (2n+1)^{-s} series at s = 0, which
    equals 1/2, pinning the prefactor.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"closed_form requires 0 < x < 1, got {x}")
    # Trig factors at pi*y, y = min(x, 1 - x): for x > 1/2, 1 - x is
    # exact, while pi*x next to pi carries a rounding error that cot,
    # 1/sin and tan(./2) magnify there.  cot(pi x) = sign * cot(pi y).
    mirrored = x > 0.5
    piy = math.pi * (1.0 - x if mirrored else x)
    sign = -1.0 if mirrored else 1.0
    if case_id in ("4.1", "4.3im"):
        return 0.5 * sign * cot(piy)
    if case_id == "4.3re":
        return -0.5
    if case_id == "4.8":
        c = math.pi * (EULER_GAMMA + math.log(_TWO_PI))
        diff = gamma1_reflection_diff(x).value
        return (diff - c * sign * cot(piy)) / _TWO_PI
    if case_id == "4.14":
        return -0.5
    if case_id == "4.18":
        return digamma(x) + 0.5 * math.pi * sign * cot(piy) + EULER_GAMMA + math.log(_TWO_PI)
    if case_id == "4.21":
        # tan(pi x / 2) = 1 / tan(pi (1 - x) / 2)
        return 0.5 / math.tan(0.5 * piy) if mirrored else 0.5 * math.tan(0.5 * piy)
    if case_id == "4.22":
        return 0.5
    if case_id == "4.23":
        return 0.5 / math.sin(piy)
    raise ValueError(f"unknown closed-form case id: {case_id!r}")


def _scaled_series(u: float, trig: str, weight: str, fac: float) -> EvalResult:
    """fac times the series of (u, trig, weight), summed at s = 0."""
    if not _EDGE_BAND < u < 1.0 - _EDGE_BAND:
        raise DomainError(f"argument must lie in (0.01, 0.99), got {u}")
    r = trig_dirichlet_sum(TrigSeriesSpec(x=u, trig=trig, weight=weight, s=0.0))
    return EvalResult(
        value=fac * r.value,
        err_estimate=fac * r.err_estimate,
        terms_used=r.terms_used,
        method_tag=r.method_tag,
    )


def deninger_cos_log_sum(u: float) -> EvalResult:
    """sum_{n>=1} (ln n / n) cos(2 n pi u), summed directly at s = 0."""
    return _scaled_series(u, "cosine", "log_n", 1.0)


def kummer_sine_series(x: float) -> EvalResult:
    """(2/pi) sum_{n>=1} ln(2 pi n) sin(2 n pi x) / n.

    Equals ln Gamma(x) - ln Gamma(1-x) + 2 gamma (x - 1/2) on (0, 1).
    """
    return _scaled_series(x, "sine", "log_2pi_n", 2.0 / math.pi)


def log_sine_fourier(u: float) -> EvalResult:
    """sum_{n>=1} ln(n) sin(2 n pi u) / (pi n).

    Equals ln Gamma(u) - ln(pi)/2 + ln(sin pi u)/2
    + (u - 1/2)(gamma + ln 2 pi) on (0, 1).
    """
    return _scaled_series(u, "sine", "log_n", 1.0 / math.pi)


def log_sine_fourier_target(u: float) -> float:
    """Closed form matched by log_sine_fourier."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"target requires 0 < u < 1, got {u}")
    return (
        log_gamma(u)
        - 0.5 * math.log(math.pi)
        + 0.5 * math.log(math.sin(math.pi * u))
        + (u - 0.5) * (EULER_GAMMA + math.log(_TWO_PI))
    )


def alternating_log_limit() -> EvalResult:
    """lim_{s -> 1} sum (-1)^n ln(n) (2 pi n)^{s-1} = ln(pi/2) / 2.

    The sign (-1)^n is cos(2 pi n / 2), so this is the cosine series
    with log weight at x = 1/2.
    """
    return regularized_limit(
        0.5, "cosine", "log_n", "all_n", "two_pi_n_power", 1.0
    )
