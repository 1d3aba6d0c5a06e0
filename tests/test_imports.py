"""Import boundaries of the lazy package namespace.

Each check starts a fresh interpreter and reads its `sys.modules`: the
test process itself has long since loaded numpy and mpmath.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetalim

_SRC = str(Path(zetalim.__file__).resolve().parents[1])
_PROBED = ("numpy", "mpmath", "zetalim.identities", "zetalim.regsum")


def _run(args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set:
    """The probed modules present in sys.modules after running `code`."""
    report = f"print(json.dumps([m for m in {_PROBED!r} if m in sys.modules]))"
    probe = f"{code}\nimport json, sys\n{report}"
    return set(json.loads(_run(["-c", probe]).splitlines()[-1]))


def test_cli_import_loads_neither_numpy_nor_mpmath():
    assert _loaded_after("import zetalim.cli") == set()


def test_cli_point_commands_load_neither_numpy_nor_mpmath():
    code = (
        "from zetalim.cli import main\n"
        "main(['zeta', '--s', '2', '--x', '1', '--deriv', '2'])\n"
        "main(['stieltjes', '--n', '1', '--x', '0.25'])"
    )
    assert _loaded_after(code) == set()


def test_point_evaluations_load_neither_numpy_nor_mpmath():
    code = (
        "import zetalim as z\n"
        "z.hurwitz_zeta(z.HurwitzQuery(2.0, 0.3, 1))\n"
        "z.stieltjes_gamma(z.StieltjesQuery(1, 0.3))\n"
        "z.gamma1_reflection_diff(0.3)"
    )
    assert _loaded_after(code) == set()


def test_hasse_loads_mpmath_but_not_numpy():
    assert _loaded_after("import zetalim as z\nz.hurwitz_hasse(2.0, 1.0)") == {"mpmath"}


@pytest.mark.parametrize(
    "code",
    [
        "from zetalim import regsum",
        "import zetalim\nzetalim.closed_form",
        "from zetalim import verify",
    ],
)
def test_regsum_and_identities_load_as_one_unit(code):
    # bench/tracer.py loads the layers with `from zetalim import regsum`
    # and wraps only the modules loaded by then.
    assert _loaded_after(code) == {"numpy", "zetalim.identities", "zetalim.regsum"}


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import zetalim\n"
        "listed = dir(zetalim)\n"
        "missing = [n for n in zetalim.__all__ if n not in listed or getattr(zetalim, n) is None]\n"
        "assert not missing, missing"
    )
    _run(["-c", code])


def test_submodules_resolve_as_attributes():
    code = (
        "import zetalim\n"
        "assert zetalim.special.digamma is zetalim.digamma\n"
        "assert zetalim.regsum.closed_form is zetalim.closed_form"
    )
    _run(["-c", code])


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        zetalim.not_a_name  # noqa: B018


def test_package_follows_a_restored_submodule_function():
    # A stand-in bound in a submodule is not cached by the package.
    code = (
        "import zetalim\n"
        "from zetalim import hurwitz\n"
        "original = hurwitz.hurwitz_zeta\n"
        "hurwitz.hurwitz_zeta = lambda q: None\n"
        "assert zetalim.hurwitz_zeta is not original\n"
        "hurwitz.hurwitz_zeta = original\n"
        "assert zetalim.hurwitz_zeta is original\n"
        "assert vars(zetalim)['hurwitz_zeta'] is original"
    )
    _run(["-c", code])


def test_module_entry_point_json_is_unchanged():
    out = _run(["-m", "zetalim.cli", "zeta", "--s", "2", "--x", "1", "--format", "json"])
    assert out == (
        "{\n"
        '  "value": 1.6449340668482264,\n'
        '  "err_estimate": 1.0000000000000045e-18,\n'
        '  "terms_used": 44,\n'
        '  "method": "em"\n'
        "}\n"
    )
