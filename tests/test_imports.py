"""Import boundaries of the lazy package namespace.

Each check starts a fresh interpreter and reads its `sys.modules`: the
test process itself has long since loaded mpmath.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zetalim

_SRC = str(Path(zetalim.__file__).resolve().parents[1])
_PROBED = ("numpy", "mpmath", "zetalim.identities", "zetalim.regsum")
# The `regsum` submodule asked of the package loads these two as one unit.
_UNIT = {"zetalim.identities", "zetalim.regsum"}


def _run(args):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _zetalim_loaded_after(code: str) -> set:
    """Every zetalim module present in sys.modules after running `code`."""
    loaded = "[m for m in sys.modules if m.split('.')[0] == 'zetalim']"
    probe = f"{code}\nimport json, sys\nprint(json.dumps({loaded}))"
    return set(json.loads(_run(["-c", probe]).splitlines()[-1]))


def _loaded_after(code: str, probed=_PROBED) -> set:
    """The `probed` modules present in sys.modules after running `code`."""
    report = f"print(json.dumps([m for m in {probed!r} if m in sys.modules]))"
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
        "from zetalim import verify",
    ],
)
def test_regsum_and_identities_load_as_one_unit(code):
    # bench/tracer.py loads the layers with `from zetalim import regsum`
    # and wraps only the modules loaded by then.
    assert _loaded_after(code) == _UNIT


_ENGINE = {"zetalim", "zetalim.regsum", "zetalim.result"}


@pytest.mark.parametrize(
    "code",
    [
        "import zetalim\nzetalim.regularized_limit",
        "import zetalim\nzetalim.regularized_limit(0.25, 'sine', 'unit')",
        "from zetalim import trig_dirichlet_sum",
        "from zetalim import TrigSeriesSpec",
    ],
    ids=["regularized_limit", "regularized_limit-call", "trig_dirichlet_sum", "TrigSeriesSpec"],
)
def test_series_names_load_only_the_series_engine(code):
    # A cold regularized limit compiles no catalogue layer.
    assert _zetalim_loaded_after(code) == _ENGINE


_POINT = {"zetalim", "zetalim.cli", "zetalim.hurwitz", "zetalim.result",
          "zetalim.special", "zetalim.stieltjes"}


@pytest.mark.parametrize(
    "code",
    [
        "import zetalim.cli",
        "from zetalim.cli import main\n"
        "main(['zeta', '--s', '2', '--x', '1', '--deriv', '2'])\n"
        "main(['stieltjes', '--n', '1', '--x', '0.25'])",
    ],
    ids=["import-cli", "cli-zeta-stieltjes"],
)
def test_cli_point_commands_load_only_the_point_layers(code):
    # The pole ladder's tableau lives in hurwitz: no layer of its own.
    assert _zetalim_loaded_after(code) == _POINT


def test_regsum_loads_no_catalogue_layer():
    # A direct submodule import, not the package's unit: the series
    # engine stands below hurwitz, stieltjes and the identity catalogue.
    layers = ("zetalim.hurwitz", "zetalim.stieltjes", "zetalim.identities")
    assert _loaded_after("import zetalim.regsum", layers) == set()


@pytest.mark.parametrize(
    ("code", "loaded"),
    [
        ("import zetalim\nzetalim.verify_all()", _UNIT),
        ("from zetalim.cli import main\nmain(['verify', '--format', 'json'])", _UNIT),
        (
            "from zetalim.cli import main\n"
            "main(['regsum', '--x', '0.25', '--trig', 'sin', '--weight', 'logn'])",
            {"zetalim.regsum"},
        ),
    ],
    ids=["verify_all", "cli-verify", "cli-regsum-interior"],
)
def test_verify_and_interior_regsum_load_no_numpy(code, loaded):
    # Every master sum these make is plain: scalar Python.
    assert _loaded_after(code) == loaded


def test_verify_with_edge_band_series_loads_no_numpy():
    # Grid 99 puts edge points in the band at s outside {0, 1}, where the
    # master sums are halved to interior phases: scalar Python too.
    code = (
        "from zetalim import regsum\n"
        "from zetalim.cli import main\n"
        "halved, halve = [], regsum._halved_sum\n"
        "regsum._halved_sum = lambda *a: halved.append(a) or halve(*a)\n"
        "main(['verify', '--grid', '99', '--format', 'json'])\n"
        "assert halved"
    )
    assert _loaded_after(code) == _UNIT


# The stdlib machinery the package does without: dataclasses loads
# inspect, fractions loads decimal.
_MACHINERY = ("dataclasses", "inspect", "fractions", "decimal")


@pytest.mark.parametrize(
    "code",
    [
        "import zetalim.cli",
        "from zetalim.cli import main\nmain(['zeta', '--s', '2', '--x', '0.25', '--deriv', '1'])",
        "from zetalim.cli import main\nmain(['stieltjes', '--n', '1', '--x', '0.25'])",
        "from zetalim.cli import main\nmain(['verify', '--format', 'json'])",
        "import zetalim\nzetalim.verify_all()",
        "import zetalim\nzetalim.registry()",
        "from zetalim.cli import main\n"
        "main(['regsum', '--x', '0.25', '--trig', 'sin', '--weight', 'logn'])",
    ],
    ids=["import-cli", "cli-zeta", "cli-stieltjes", "cli-verify", "verify_all", "registry",
         "cli-regsum-interior"],
)
def test_package_loads_no_dataclasses_or_fractions(code):
    assert _loaded_after(code, _MACHINERY) == set()


@pytest.mark.parametrize(
    ("fmt", "loaded"), [("json", set()), ("text", set()), ("csv", {"csv"})]
)
def test_csv_module_loads_only_for_csv_output(fmt, loaded):
    code = f"from zetalim.cli import main\nmain(['zeta', '--s', '2', '--x', '1', '--format', '{fmt}'])"
    assert _loaded_after(code, ("csv",)) == loaded


def test_ratio_coordinate_parses_through_fractions_on_call():
    code = "from zetalim.cli import _coord\nassert _coord('1/4') == 0.25"
    assert "fractions" in _loaded_after(code, _MACHINERY)


def test_edge_band_limit_loads_no_numpy():
    # Next to x = 0 a limit is a short series in zeta'(-k): scalar Python.
    code = "import zetalim\nzetalim.regularized_limit(0.02, 'sine', 'log_n')"
    assert _loaded_after(code) == {"zetalim.regsum"}
    assert _zetalim_loaded_after(code) == _ENGINE


def test_edge_band_series_loads_no_numpy():
    # At s outside {0, 1} the edge-band master sum is halved to interior
    # phases: scalar Python.
    code = (
        "import zetalim\n"
        "zetalim.trig_dirichlet_sum(zetalim.TrigSeriesSpec(0.02, 'sine', 'unit', s=0.5))"
    )
    assert _loaded_after(code) == {"zetalim.regsum"}


_REPO = Path(__file__).resolve().parents[1]


def _declared_dependencies() -> set:
    """The names in pyproject.toml's `dependencies` list, read as text:
    tomllib is missing from the standard library before Python 3.11."""
    text = (_REPO / "pyproject.toml").read_text()
    listed = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', listed))


def test_package_imports_only_its_declared_dependencies():
    # Every import statement of every module, those inside functions too.
    imported = set()
    for path in (_REPO / "src" / "zetalim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"zetalim"}
    assert third_party == {"mpmath"}
    assert _declared_dependencies() == third_party


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
        "assert zetalim.regsum.regularized_limit is zetalim.regularized_limit"
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
        '  "err_estimate": 6.556328692879256e-17,\n'
        '  "terms_used": 20,\n'
        '  "method": "em"\n'
        "}\n"
    )
