"""Command line interface: output contracts, exit codes, determinism."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from zetalim.cli import main

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


def test_zeta_pole_is_runtime_error(capsys):
    code, _, err = run(capsys, "zeta", "--s", "1", "--x", "0.5")
    assert code == 1
    assert "pole" in err.lower()


def test_zeta_bad_x_is_runtime_error(capsys):
    code, _, _ = run(capsys, "zeta", "--s", "2", "--x", "-1")
    assert code == 1


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
    report.  A change that moves digits on purpose regenerates it with

        PYTHONPATH=src python -m zetalim.cli verify --format json --out tests/golden/verify.json

    and says which cases moved and why.
    """
    out = tmp_path / "verify.json"
    assert main(["verify", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    golden = Path(__file__).resolve().parent / "golden" / "verify.json"
    assert out.read_bytes() == golden.read_bytes()
