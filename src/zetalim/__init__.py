"""Hurwitz zeta numerics, Stieltjes constants, and regularized
trigonometric series, with a verification catalogue over the
identities that connect them.

The namespace is lazy (PEP 562): a public name imports its submodule
on first use, so `import zetalim` loads no third-party module.  A
series name (`regularized_limit`, `trig_dirichlet_sum`,
`TrigSeriesSpec`) loads `regsum` with `extrapolate`, `result` and
`special` only; the `regsum` submodule asked of the package loads
`identities` with it.  numpy comes in only with a blocked master sum,
at a phase y within about 0.077 of an integer (a series next to x = 0
or 1); mpmath only with a call of `hurwitz_hasse`.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "extrapolate": ("neville_zero",),
        "hurwitz": ("HurwitzQuery", "hurwitz_hasse", "hurwitz_zeta", "pole_residue_check"),
        "identities": (
            "IdentityCase", "VerificationReport", "default_x_grid",
            "quadrature_zeta2_integral", "registry", "uniform_x", "verify", "verify_all",
        ),
        "regsum": ("TrigSeriesSpec", "regularized_limit", "trig_dirichlet_sum"),
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
__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Only the `regsum` submodule itself brings identities with it:
    # bench/tracer.py's zetalim_hooks() loads every layer it wraps with
    # `from zetalim import regsum`.  That reaches this function only while
    # the package has no `regsum` attribute, before any series name has
    # loaded the submodule, so a bench worker builds its tracer before its
    # first zetalim call.  import_module, because `from . import` would
    # come back through this function.
    if name == "regsum":
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
