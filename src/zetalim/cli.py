"""Command line front end: point evaluations and identity verification.

Formats: text (default), json, csv.  Report serialization uses fixed
17-significant-digit float formatting and never embeds timings, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success or all cases passing, 1 evaluation or
verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .hurwitz import HurwitzQuery, hurwitz_hasse, hurwitz_zeta
from .result import ConvergenceError, DomainError, EvalResult, PoleError
from .stieltjes import StieltjesQuery, stieltjes_gamma

if TYPE_CHECKING:
    from .identities import VerificationReport

_TRIG = {"sin": "sine", "cos": "cosine"}
_WEIGHT = {
    "unit": "unit",
    "logn": "log_n",
    "log2pin": "log_2pi_n",
    "gammalog2pin": "gamma_plus_log_2pi_n",
}
_PARITY = {"all": "all_n", "alternating": "alternating", "odd": "odd_only"}
_SCALE = {"n": "n_power", "2pin": "two_pi_n_power"}

_CSV_HEADER = ("id", "x", "s", "u", "m", "lhs", "rhs", "residual", "pass", "note")


class _UsageError(Exception):
    pass


def _coord(text: str) -> float:
    """Numeric flag value; fractions like 1/4 are accepted so grid
    points stay exact instead of drifting through decimal strings."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _f17(value: float) -> str:
    return "%.17g" % value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return ""
    return _f17(value)


def _jnum(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "null"
    return _f17(value)


def _jstr(text: str) -> str:
    out = ["\""]
    for ch in text:
        if ch in ("\\", "\""):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def _render_eval_text(res: EvalResult) -> str:
    return (
        f"value        {'%.15g' % res.value}\n"
        f"err_estimate {'%.3g' % res.err_estimate}\n"
        f"terms_used   {res.terms_used}\n"
        f"method       {res.method_tag}\n"
    )


def _render_eval_json(res: EvalResult) -> str:
    return (
        "{\n"
        f'  "value": {_jnum(res.value)},\n'
        f'  "err_estimate": {_jnum(res.err_estimate)},\n'
        f'  "terms_used": {res.terms_used},\n'
        f'  "method": {_jstr(res.method_tag)}\n'
        "}\n"
    )


def _render_eval_csv(res: EvalResult) -> str:
    return (
        "value,err_estimate,terms_used,method\n"
        f"{_f17(res.value)},{_f17(res.err_estimate)},{res.terms_used},{res.method_tag}\n"
    )


def _render_eval(res: EvalResult, fmt: str) -> str:
    if fmt == "json":
        return _render_eval_json(res)
    if fmt == "csv":
        return _render_eval_csv(res)
    return _render_eval_text(res)


def _render_report_json(report: VerificationReport) -> str:
    lines: List[str] = ["{"]
    lines.append('  "summary": {')
    lines.append(f'    "cases_run": {report.cases_run},')
    lines.append(f'    "cases_passed": {report.cases_passed},')
    lines.append(f'    "max_residual": {_jnum(report.max_residual)}')
    lines.append("  },")
    lines.append('  "cases": [')
    for ci, case in enumerate(report.cases):
        lines.append("    {")
        lines.append(f'      "id": {_jstr(case.case_id)},')
        lines.append('      "points": [')
        for pi, point in enumerate(case.points):
            fields = [f"{_jstr(key)}: {_jnum(value)}" for key, value in point.coords]
            fields.append(f'"lhs": {_jnum(point.lhs)}')
            fields.append(f'"rhs": {_jnum(point.rhs)}')
            fields.append(f'"residual": {_jnum(point.residual)}')
            fields.append(f'"pass": {_jnum(point.passed)}')
            if point.note:
                fields.append(f'"note": {_jstr(point.note)}')
            tail = "," if pi + 1 < len(case.points) else ""
            lines.append("        {" + ", ".join(fields) + "}" + tail)
        lines.append("      ],")
        lines.append(f'      "max_residual": {_jnum(case.max_residual)},')
        lines.append(f'      "pass": {_jnum(case.passed)}')
        lines.append("    }" + ("," if ci + 1 < len(report.cases) else ""))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_report_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for case in report.cases:
        for point in case.points:
            coords = dict(point.coords)
            writer.writerow(
                [
                    case.case_id,
                    _cell(coords.get("x")),
                    _cell(coords.get("s")),
                    _cell(coords.get("u")),
                    _cell(coords.get("m")),
                    _cell(point.lhs),
                    _cell(point.rhs),
                    _cell(point.residual),
                    "true" if point.passed else "false",
                    point.note,
                ]
            )
    return buf.getvalue()


def _render_report_text(report: VerificationReport) -> str:
    lines = [
        f"cases run    {report.cases_run}",
        f"cases passed {report.cases_passed}",
        f"max residual {_cell(report.max_residual) or 'n/a'}",
        "",
    ]
    for case in report.cases:
        verdict = "pass" if case.passed else "FAIL"
        mr = _cell(case.max_residual) or "n/a"
        lines.append(
            f"{case.case_id:<9} {verdict}  max residual {mr}  ({len(case.points)} points)"
        )
        if not case.passed:
            for point in case.points:
                if point.passed:
                    continue
                loc = " ".join(f"{k}={_cell(v)}" for k, v in point.coords) or "scalar"
                detail = (
                    f"    {loc}  lhs={_cell(point.lhs) or 'n/a'}"
                    f"  rhs={_cell(point.rhs) or 'n/a'}"
                    f"  residual={_cell(point.residual) or 'n/a'}"
                )
                if point.note:
                    detail += f"  note={point.note}"
                lines.append(detail)
    return "\n".join(lines) + "\n"


def _render_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return _render_report_json(report)
    if fmt == "csv":
        return _render_report_csv(report)
    return _render_report_text(report)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default text)",
    )
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalim",
        description="Hurwitz zeta evaluations, Stieltjes constants, regularized "
        "trigonometric sums, and the identity verification harness.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p_zeta = subs.add_parser("zeta", help="evaluate zeta(s, x) or an s-derivative")
    p_zeta.add_argument("--s", type=float, required=True)
    p_zeta.add_argument("--x", type=_coord, required=True)
    p_zeta.add_argument("--deriv", type=int, choices=(0, 1, 2), default=0)
    p_zeta.add_argument("--method", choices=("em", "hasse"), default="em")
    _add_output_flags(p_zeta)

    p_st = subs.add_parser("stieltjes", help="evaluate gamma_n(x) for n in {0, 1}")
    p_st.add_argument("--n", type=int, choices=(0, 1), required=True)
    p_st.add_argument("--x", type=_coord, required=True)
    _add_output_flags(p_st)

    p_reg = subs.add_parser(
        "regsum", help="regularized limit of a weighted trigonometric series"
    )
    p_reg.add_argument("--x", type=_coord, required=True)
    p_reg.add_argument("--trig", choices=tuple(_TRIG), required=True)
    p_reg.add_argument("--weight", choices=tuple(_WEIGHT), required=True)
    p_reg.add_argument("--parity", choices=tuple(_PARITY), default="all")
    p_reg.add_argument("--scale", choices=tuple(_SCALE), default="n")
    p_reg.add_argument("--starget", type=float, choices=(0.0, 1.0), default=1.0)
    _add_output_flags(p_reg)

    p_ver = subs.add_parser("verify", help="run the identity catalogue")
    p_ver.add_argument("--id", default=None, help="run a single case by id")
    p_ver.add_argument("--grid", type=int, default=9, help="grid density (>= 3)")
    p_ver.add_argument(
        "--tol-scale",
        type=float,
        default=1.0,
        dest="tol_scale",
        help="strictness factor: effective tolerance is tol / TOL_SCALE, "
        "so values below 1 loosen the thresholds",
    )
    _add_output_flags(p_ver)

    return parser


def _dispatch(args: argparse.Namespace) -> Tuple[str, int]:
    if args.cmd == "zeta":
        if args.method == "hasse":
            if args.deriv != 0:
                raise _UsageError("--method hasse supports --deriv 0 only")
            res = hurwitz_hasse(args.s, args.x)
        else:
            res = hurwitz_zeta(HurwitzQuery(args.s, args.x, args.deriv))
        return _render_eval(res, args.format), 0

    if args.cmd == "stieltjes":
        res = stieltjes_gamma(StieltjesQuery(args.n, args.x))
        return _render_eval(res, args.format), 0

    if args.cmd == "regsum":
        from .regsum import regularized_limit

        res = regularized_limit(
            args.x,
            _TRIG[args.trig],
            _WEIGHT[args.weight],
            _PARITY[args.parity],
            _SCALE[args.scale],
            args.starget,
        )
        return _render_eval(res, args.format), 0

    if args.grid < 3:
        raise _UsageError(f"--grid must be >= 3, got {args.grid}")
    if not args.tol_scale > 0.0:
        raise _UsageError(f"--tol-scale must be positive, got {args.tol_scale}")
    from .identities import registry, verify, verify_all

    if args.id is not None:
        case = next((c for c in registry() if c.id == args.id), None)
        if case is None:
            raise _UsageError(f"unknown identity id {args.id!r}")
        report = verify(case, grid_density=args.grid, tol_scale=args.tol_scale)
    else:
        report = verify_all(grid_density=args.grid, tol_scale=args.tol_scale)
    rendered = _render_report(report, args.format)
    return rendered, 0 if report.cases_passed == report.cases_run else 1


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PoleError, ConvergenceError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_out(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
