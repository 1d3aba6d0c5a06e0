"""Neville polynomial extrapolation to zero, and the offset ladder the
Hurwitz pole limits sample."""
from __future__ import annotations

from typing import List, Sequence, Tuple

# h_k = 0.25 2^-k, k = 0..4: the pole of zeta(s, x) is sampled at
# s = 1 +- h_k and extrapolated in h^2.
LADDER = tuple(0.25 * 2.0**-k for k in range(5))


def neville_zero(
    hs: Sequence[float], vs: Sequence[float]
) -> Tuple[float, List[float]]:
    """Extrapolate samples (h_i, v_i) to h = 0 with Neville's tableau.

    Returns the highest-order estimate together with the list of
    successive diagonal corrections |p_k - p_{k-1}|; the last entry is
    the usual a-posteriori error estimate.
    """
    n = len(hs)
    if n != len(vs):
        raise ValueError("hs and vs must have equal length")
    if n == 0:
        raise ValueError("need at least one sample")
    if len(set(hs)) != n:
        raise ValueError("offsets must be distinct")
    p = [float(v) for v in vs]
    corrections: List[float] = []
    prev = p[-1]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            p[i] = (hs[i - k] * p[i] - hs[i] * p[i - 1]) / (hs[i - k] - hs[i])
        corrections.append(abs(p[-1] - prev))
        prev = p[-1]
    return p[-1], corrections
