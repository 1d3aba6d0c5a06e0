"""Command line front end: point evaluations and identity verification.

Formats: text (default), json, csv.  Report serialization uses fixed
17-significant-digit float formatting and never embeds timings, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success or all cases passing, 1 evaluation or
verification failure or an unwritable --out path, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

from .hurwitz import HurwitzQuery, hurwitz_hasse, hurwitz_zeta
from .result import EvalResult
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
    """Numeric flag value; ratios like 1/4 are accepted so grid
    points stay exact instead of drifting through decimal strings."""
    try:
        return float(text)
    except ValueError:
        pass
    from fractions import Fraction

    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _cell(value) -> str:
    """A csv or text cell: strings as they are, bools as true/false, ints
    as digits, finite floats to 17 significant digits, else empty."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value if math.isfinite(value) else ""


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


def _json(value) -> str:
    """A json value: a string quoted, a missing or non-finite number null."""
    return _jstr(value) if isinstance(value, str) else _cell(value) or "null"


def _commas(items: List[str]) -> List[str]:
    """`items` with a comma after each but the last."""
    return [item + "," for item in items[:-1]] + items[-1:]


def _json_lines(fields, indent: str = "") -> List[str]:
    """One `"name": value` member per field, each but the last with a
    comma; joined by spaces they form an inline object's body."""
    return _commas([f"{indent}{_jstr(name)}: {_json(value)}" for name, value in fields])


def _csv(header, rows) -> str:
    """csv text of `rows`, each a dict from column name to value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(row.get(name)) for name in header] for row in rows)
    return buf.getvalue()


def _render_eval(res: EvalResult, fmt: str) -> str:
    fields = [
        ("value", res.value, "%.15g"),
        ("err_estimate", res.err_estimate, "%.3g"),
        ("terms_used", res.terms_used, "%d"),
        ("method", res.method_tag, "%s"),
    ]
    pairs = [(name, value) for name, value, _ in fields]
    if fmt == "json":
        return "\n".join(["{", *_json_lines(pairs, "  "), "}\n"])
    if fmt == "csv":
        return _csv([name for name, _ in pairs], [dict(pairs)])
    return "".join(f"{name:<12} {spec % value}\n" for name, value, spec in fields)


def _point_fields(point) -> List[Tuple[str, object]]:
    """A report point's fields: its coordinates, then the verdict."""
    fields = [*point.coords, ("lhs", point.lhs), ("rhs", point.rhs),
              ("residual", point.residual), ("pass", point.passed)]
    return fields + [("note", point.note)] if point.note else fields


def _render_report(report: VerificationReport, fmt: str) -> str:
    summary = [
        ("cases_run", report.cases_run),
        ("cases_passed", report.cases_passed),
        ("max_residual", report.max_residual),
    ]
    if fmt == "csv":
        return _csv(_CSV_HEADER, [
            dict(_point_fields(point), id=case.case_id)
            for case in report.cases for point in case.points
        ])
    if fmt == "json":
        cases = []
        for case in report.cases:
            members = [" ".join(_json_lines(_point_fields(p))) for p in case.points]
            points = ["        {" + m + "}" for m in members]
            verdict = [("max_residual", case.max_residual), ("pass", case.passed)]
            cases.append("\n".join([
                "    {", f'      "id": {_jstr(case.case_id)},', '      "points": [',
                *_commas(points), "      ],", *_json_lines(verdict, "      "), "    }",
            ]))
        return "\n".join([
            "{", '  "summary": {', *_json_lines(summary, "    "), "  },",
            '  "cases": [', *_commas(cases), "  ]", "}\n",
        ])
    lines = [f"{name.replace('_', ' '):<12} {_cell(value) or 'n/a'}" for name, value in summary]
    lines.append("")
    for case in report.cases:
        verdict = "pass" if case.passed else "FAIL"
        mr = _cell(case.max_residual) or "n/a"
        count = len(case.points)
        lines.append(f"{case.case_id:<9} {verdict}  max residual {mr}  ({count} points)")
        for point in case.points:
            if point.passed:
                continue
            fields = _point_fields(point)
            n = len(point.coords)
            loc = " ".join(f"{k}={_cell(v)}" for k, v in fields[:n]) or "scalar"
            lines.append(f"    {loc}" + "".join(
                f"  {k}={_cell(v) or 'n/a'}" for k, v in fields[n:] if k != "pass"
            ))
    return "\n".join(lines) + "\n"


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default text)",
    )
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


@functools.cache
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
    if args.cmd == "verify":
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
        code = 0 if report.cases_passed == report.cases_run else 1
        return _render_report(report, args.format), code

    if args.cmd == "zeta":
        if args.method == "hasse":
            if args.deriv != 0:
                raise _UsageError("--method hasse supports --deriv 0 only")
            res = hurwitz_hasse(args.s, args.x)
        else:
            res = hurwitz_zeta(HurwitzQuery(args.s, args.x, args.deriv))
    elif args.cmd == "stieltjes":
        res = stieltjes_gamma(StieltjesQuery(args.n, args.x))
    else:
        from .regsum import regularized_limit

        res = regularized_limit(args.x, _TRIG[args.trig], _WEIGHT[args.weight],
                                _PARITY[args.parity], _SCALE[args.scale], args.starget)
    return _render_eval(res, args.format), 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
