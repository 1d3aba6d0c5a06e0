"""Error estimates that must cover the true error.

Each check asserts |value - ref| <= err_estimate + 4 ulp * max(1, |ref|)
against an independent high-precision reference: the few ulps allow for
the final rounding of the value, not for an estimate that leaves out a
source of error.
"""
import pytest

from oracles import mp_gamma1_reflection_diff
from zetalim.stieltjes import gamma1_reflection_diff

ULP = 2.0 ** -52

# The band where the difference passes through zero (near x = 0.5) and
# its head pairs cancel most, plus both ends of (0, 1).
REFLECTION_X = [round(0.400 + 0.005 * k, 3) for k in range(45)] + [0.001, 0.01, 0.99, 0.999]


@pytest.mark.parametrize("x", REFLECTION_X)
def test_gamma1_reflection_diff_error_estimate_is_honest(x):
    res = gamma1_reflection_diff(x)
    ref = mp_gamma1_reflection_diff(x)
    assert abs(res.value - ref) <= res.err_estimate + 4 * ULP * max(1.0, abs(ref)), (
        res.value, ref, res.err_estimate
    )
