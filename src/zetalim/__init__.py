"""Hurwitz zeta numerics, Stieltjes constants, and regularized
trigonometric series, with a verification catalogue over the
identities that connect them.

The namespace is lazy (PEP 562): a public name imports its submodule
on first use, so `import zetalim` loads no third-party module.  numpy
comes in with `regsum` and `identities`, which the package loads as one
unit; mpmath only with a call of `hurwitz_hasse`.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "Domain",
    "DomainError",
    "EULER_GAMMA",
    "EvalResult",
    "ExtrapolationPath",
    "HurwitzQuery",
    "IdentityCase",
    "PoleError",
    "StieltjesQuery",
    "TrigSeriesSpec",
    "VerificationReport",
    "alternating_log_limit",
    "bernoulli",
    "bernoulli_table",
    "closed_form",
    "default_x_grid",
    "deninger_cos_log_sum",
    "digamma",
    "gamma1_finite_difference",
    "gamma1_reflection_diff",
    "hurwitz_hasse",
    "hurwitz_zeta",
    "integral_gamma",
    "kummer_sine_series",
    "log_gamma",
    "log_sine_fourier",
    "log_sine_fourier_target",
    "neville_zero",
    "pole_residue_check",
    "quadrature_zeta2_integral",
    "registry",
    "regularized_limit",
    "stieltjes_gamma",
    "trig_dirichlet_sum",
    "uniform_x",
    "verify",
    "verify_all",
    "__version__",
]

# Public name -> the submodule that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "extrapolate": ("neville_zero",),
        "hurwitz": ("HurwitzQuery", "hurwitz_hasse", "hurwitz_zeta", "pole_residue_check"),
        "identities": (
            "Domain", "IdentityCase", "VerificationReport", "default_x_grid",
            "quadrature_zeta2_integral", "registry", "uniform_x", "verify", "verify_all",
        ),
        "regsum": (
            "ExtrapolationPath", "TrigSeriesSpec", "alternating_log_limit", "closed_form",
            "deninger_cos_log_sum", "kummer_sine_series", "log_sine_fourier",
            "log_sine_fourier_target", "regularized_limit", "trig_dirichlet_sum",
        ),
        "result": ("ConvergenceError", "DomainError", "EvalResult", "PoleError"),
        "special": ("EULER_GAMMA", "bernoulli", "bernoulli_table", "digamma", "log_gamma"),
        "stieltjes": (
            "StieltjesQuery", "gamma1_finite_difference", "gamma1_reflection_diff",
            "integral_gamma", "stieltjes_gamma",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_SOURCE.values())


def __getattr__(name: str):
    module = _SOURCE.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # identities imports regsum: loading it for either keeps the two, and
    # numpy, one unit.  import_module, because `from . import` would come
    # back through this function.
    if module == "regsum":
        _import_module(".identities", __name__)
    owner = _import_module(f".{module}", __name__)
    if name == module:
        return owner
    value = getattr(owner, name)
    # Cache only the submodule's own object.  A stand-in bound there for
    # a while (bench/tracer.py's wrappers, a test's monkeypatch) is
    # returned uncached, so the package follows the submodule once the
    # original is restored.
    if getattr(value, "__module__", owner.__name__) == owner.__name__:
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
