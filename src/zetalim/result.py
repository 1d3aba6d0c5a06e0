"""Result container, error types, EPS (one binary64 ulp of 1) and Euler's gamma."""
from __future__ import annotations

EPS = 2.0**-52
# Euler-Mascheroni constant, binary64-correct.
EULER_GAMMA = 0.5772156649015329


class DomainError(ValueError):
    """Argument outside the supported domain (e.g. x <= 0)."""


class PoleError(ValueError):
    """Evaluation requested too close to the s = 1 pole."""


class ConvergenceError(ArithmeticError):
    """A series or transform failed to reach its accuracy target."""


class EvalResult:
    """Numeric result with an a-posteriori error estimate.

    value: the computed quantity.
    err_estimate: absolute error estimate: the last correction or
        transform increment of the algorithm that produced the value,
        plus, where the algorithm says so, the rounding of its terms.
        It is an estimate, not a rigorous bound.
    terms_used: number of series terms / nodes consumed (>= 1).
    method_tag: short label of the algorithm.

    A plain slots class: no caller compares or hashes results.
    """

    __slots__ = ("value", "err_estimate", "terms_used", "method_tag")

    def __init__(self, value: float, err_estimate: float, terms_used: int,
                 method_tag: str) -> None:
        if err_estimate < 0.0:
            raise ValueError("err_estimate must be >= 0")
        if terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        self.value = value
        self.err_estimate = err_estimate
        self.terms_used = terms_used
        self.method_tag = method_tag

    def __repr__(self) -> str:
        return (f"EvalResult(value={self.value!r}, err_estimate={self.err_estimate!r}, "
                f"terms_used={self.terms_used!r}, method_tag={self.method_tag!r})")
