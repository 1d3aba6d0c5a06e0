"""Command line interface: output contracts, exit codes, determinism."""
import csv
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from zetalim import registry
from zetalim.cli import _CSV_HEADER, main

CSV_HEADER = "id,x,s,u,m,lhs,rhs,residual,pass,note"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_basel_text(capsys):
    code, out, err = run(capsys, "zeta", "--s", "2", "--x", "1")
    assert code == 0
    assert "1.64493406684823" in out
    assert err == ""


def test_zeta_first_derivative(capsys):
    code, out, _ = run(capsys, "zeta", "--s", "0", "--x", "1", "--deriv", "1")
    assert code == 0
    assert "-0.91893853320467" in out


def test_zeta_methods_agree(capsys):
    _, em_out, _ = run(capsys, "zeta", "--s", "0.5", "--x", "0.3", "--format", "json")
    _, hs_out, _ = run(
        capsys, "zeta", "--s", "0.5", "--x", "0.3", "--method", "hasse",
        "--format", "json",
    )
    em = json.loads(em_out)
    hs = json.loads(hs_out)
    assert em["value"] == pytest.approx(hs["value"], abs=1e-9)
    assert em["method"] != hs["method"]


def test_zeta_accepts_fractions(capsys):
    code, out, _ = run(
        capsys, "zeta", "--s", "0.5", "--x", "1/4", "--format", "json"
    )
    assert code == 0
    frac = json.loads(out)["value"]
    code, out, _ = run(
        capsys, "zeta", "--s", "0.5", "--x", "0.25", "--format", "json"
    )
    assert json.loads(out)["value"] == frac


def test_stieltjes_gamma0(capsys):
    code, out, _ = run(capsys, "stieltjes", "--n", "0", "--x", "1")
    assert code == 0
    assert "0.57721566490153" in out


def test_stieltjes_gamma1_unit_shift(capsys):
    _, out1, _ = run(capsys, "stieltjes", "--n", "1", "--x", "1", "--format", "json")
    _, out2, _ = run(capsys, "stieltjes", "--n", "1", "--x", "2", "--format", "json")
    assert json.loads(out1)["value"] == pytest.approx(
        json.loads(out2)["value"], abs=1e-12
    )


def test_stieltjes_error_estimate_is_tight(capsys):
    _, out, _ = run(capsys, "stieltjes", "--n", "1", "--x", "0.25", "--format", "json")
    assert json.loads(out)["err_estimate"] <= 1e-9


def test_regsum_sine_limit(capsys):
    code, out, _ = run(
        capsys, "regsum", "--x", "0.25", "--trig", "sin", "--weight", "unit",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-9)


def test_regsum_cosine_limit(capsys):
    code, out, _ = run(
        capsys, "regsum", "--x", "1/3", "--trig", "cos", "--weight", "unit",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-0.5, abs=1e-9)


def test_regsum_log_weight_at_half(capsys):
    code, out, _ = run(
        capsys, "regsum", "--x", "1/2", "--trig", "sin", "--weight", "logn",
        "--format", "json",
    )
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-7


def test_regsum_fixed_s(capsys):
    code, out, _ = run(
        capsys, "regsum", "--x", "0.25", "--trig", "sin", "--weight", "unit",
        "--starget", "0", "--format", "json",
    )
    assert code == 0
    # At s = 0 the extrapolation reproduces the convergent value
    # sum sin(pi n / 2)/n = pi/4.
    assert json.loads(out)["value"] == pytest.approx(0.7853981633974483, abs=1e-9)


def test_verify_single_case_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "EQ4.12", "--grid", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"summary", "cases"}
    assert len(report["cases"]) == 1
    case = report["cases"][0]
    assert case["id"] == "EQ4.12"
    assert len(case["points"]) == 5
    assert case["pass"] is True
    for point in case["points"]:
        assert point["pass"] is True
        assert point["residual"] <= 1e-6
        assert "u" in point or "x" in point or "s" in point
    summary = report["summary"]
    assert summary["cases_run"] == 1
    assert summary["cases_passed"] == 1


def test_verify_csv_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "EQ4.14", "--grid", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3


def test_verify_unknown_id_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--id", "NOSUCH")
    assert code == 2
    assert "NOSUCH" in err


def test_verify_bad_grid_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--id", "EQ2.3", "--grid", "2")
    assert code == 2


def test_verify_bad_tol_scale_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--id", "EQ2.3", "--tol-scale", "0")
    assert code == 2


@pytest.mark.parametrize("x", ["abc", "1/0"])
def test_zeta_non_number_is_usage_error(capsys, x):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--s", "2", "--x", x])
    assert exc.value.code == 2
    assert "not a number" in capsys.readouterr().err


def test_zeta_pole_is_runtime_error(capsys):
    code, _, err = run(capsys, "zeta", "--s", "1", "--x", "0.5")
    assert code == 1
    assert "pole" in err.lower()


def test_zeta_bad_x_is_runtime_error(capsys):
    code, _, _ = run(capsys, "zeta", "--s", "2", "--x", "-1")
    assert code == 1


def test_stieltjes_overflow_is_runtime_error(capsys):
    code, out, err = run(capsys, "stieltjes", "--n", "1", "--x", "1e-320", "--format", "json")
    assert code == 1
    assert out == ""
    assert "1e-320" in err


def test_hasse_with_derivative_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "zeta", "--s", "2", "--x", "1", "--deriv", "1", "--method", "hasse"
    )
    assert code == 2


def test_out_flag_round_trips(tmp_path, capsys):
    target_a = tmp_path / "a.json"
    target_b = tmp_path / "b.json"
    for target in (target_a, target_b):
        code = main(
            ["verify", "--id", "EQ3.20", "--format", "json", "--out", str(target)]
        )
        assert code == 0
    capsys.readouterr()
    assert target_a.read_bytes() == target_b.read_bytes()
    json.loads(target_a.read_text())


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "zetalim.cli", "zeta", "--s", "2", "--x", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "1.64493406684823" in proc.stdout


def test_verify_json_matches_golden(tmp_path, capsys):
    """`zetalim verify --format json` is byte-identical to the committed
    report at the default grid, at `--grid 3` and at `--grid 5`.  A
    change that moves digits on purpose regenerates them with

        PYTHONPATH=src python -m zetalim.cli verify --format json --out tests/golden/verify.json
        PYTHONPATH=src python -m zetalim.cli verify --format json --grid 3 --out tests/golden/verify-grid3.json
        PYTHONPATH=src python -m zetalim.cli verify --format json --grid 5 --out tests/golden/verify-grid5.json

    and says which cases moved and why.

    These reports, like those at grids 99 and 120, run in scalar Python
    arithmetic, so their bytes do not depend on the machine's vector
    instructions.
    """
    for name, grid in (("verify.json", []), ("verify-grid3.json", ["--grid", "3"]),
                       ("verify-grid5.json", ["--grid", "5"])):
        out = tmp_path / name
        assert main(["verify", "--format", "json", *grid, "--out", str(out)]) == 0
        capsys.readouterr()
        golden = Path(__file__).resolve().parent / "golden" / name
        assert out.read_bytes() == golden.read_bytes(), name


# sha256 of `zetalim verify --format json --grid g`.
_VERIFY_JSON_SHA256 = {
    99: "b0ac127bcba5fc2330741cd80070d17f0b9928c7fd28ce5ddf625a2c9cbf9749",
    120: "e5b0d9e76048f2af28f77c630b285095b7505f3ca9d2d1625f79b7c114c4ab78",
}


@pytest.mark.parametrize("grid", sorted(_VERIFY_JSON_SHA256))
def test_verify_json_matches_digest_at_wide_grids(grid, capsys):
    """`zetalim verify --format json --grid 99` and `--grid 120` hash to
    the committed digests, which keep those reports' bytes without
    committing them.  Under the goldens' rule, a change that moves
    digits on purpose regenerates them with

        PYTHONPATH=src python -m zetalim.cli verify --format json --grid 99 | sha256sum
        PYTHONPATH=src python -m zetalim.cli verify --format json --grid 120 | sha256sum

    and says which cases moved and why.
    """
    code, out, _ = run(capsys, "verify", "--format", "json", "--grid", str(grid))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _VERIFY_JSON_SHA256[grid]


def test_verify_csv_matches_golden(capsys):
    """Every cell of the full `zetalim verify --format csv` report parses
    to the value of the same point in the golden json report."""
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == 0
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "verify.json").read_text())
    points = [(case["id"], p) for case in golden["cases"] for p in case["points"]]
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(points)
    for row, (case_id, point) in zip(rows, points):
        assert row["id"] == case_id
        for key in ("x", "s", "u", "m", "lhs", "rhs", "residual"):
            got = float(row[key]) if row[key] else None
            assert got == point.get(key), (case_id, key, row[key])
        assert row["pass"] == ("true" if point["pass"] else "false"), case_id
        assert row["note"] == point.get("note", ""), case_id


def test_parser_is_built_once():
    from zetalim.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_usage_error_after_a_successful_call(capsys):
    with pytest.raises(SystemExit) as first:
        main(["zeta", "--s", "2"])
    first_err = capsys.readouterr().err
    assert run(capsys, "zeta", "--s", "2", "--x", "1", "--format", "json")[0] == 0
    with pytest.raises(SystemExit) as again:
        main(["zeta", "--s", "2"])
    assert first.value.code == again.value.code == 2
    assert capsys.readouterr().err == first_err
    assert "--x" in first_err


def test_unwritable_out_path_is_runtime_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "zeta", "--s", "2", "--x", "1", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_verify_text_matches_golden(capsys):
    """Every case line of the full `zetalim verify --format text` report
    carries the golden json's id, verdict, max residual and point count."""
    code, out, _ = run(capsys, "verify", "--format", "text")
    assert code == 0
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "verify.json").read_text())
    summary = golden["summary"]
    head = out.split("\n")[:4]
    assert head == [
        f"cases run    {summary['cases_run']}",
        f"cases passed {summary['cases_passed']}",
        f"max residual {head[2].split()[-1]}",
        "",
    ]
    assert float(head[2].split()[-1]) == summary["max_residual"]
    lines = [line for line in out.split("\n")[4:] if line and not line.startswith(" ")]
    assert len(lines) == len(golden["cases"])
    for line, case in zip(lines, golden["cases"]):
        case_id, verdict, _, _, residual, count, _ = line.split()
        assert case_id == case["id"]
        assert verdict == ("pass" if case["pass"] else "FAIL"), case_id
        assert float(residual) == case["max_residual"], case_id
        assert count == f"({len(case['points'])}", case_id


def _readme_examples():
    # Every `zetalim ...  # <number>` line in README.md.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    pattern = re.compile(r"^zetalim (.+?)\s+#\s*(-?\d[\d.]*(?:e[+-]\d+)?)(?=\s|$)", re.M)
    return pattern.findall(readme)


def test_readme_has_numbered_examples():
    assert len(_readme_examples()) >= 6


@pytest.mark.parametrize("command, shown", _readme_examples())
def test_readme_example_prints_the_number_shown(capsys, command, shown):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    value = float(next(line.split()[1] for line in out.splitlines()
                       if line.startswith("value ")))
    mantissa, _, exponent = shown.partition("e")
    digits = len(mantissa.partition(".")[2])
    half_unit = 0.5 * 10.0 ** (int(exponent or 0) - digits)
    assert abs(value - float(shown)) <= half_unit, out


def test_csv_header_has_every_registry_axis():
    labels = {label for case in registry() for label, _ in case.axes}
    assert labels <= set(_CSV_HEADER)
