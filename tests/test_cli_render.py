"""Rendered bytes of point results and identity reports, pinned.

Each expected string was captured from the renderers before they were
folded onto one field list per record.  The report comes from verify()
on hand-built cases whose sides are plain Python arithmetic, so the
literals hold on any machine.
"""
import math
import random

import pytest

from zetalim import identities
from zetalim.cli import _cell, _json, _jstr, _render_eval, _render_report
from zetalim.identities import IdentityCase, verify, verify_all
from zetalim.result import EvalResult

RESULT = EvalResult(
    value=-0.10000000000000001 / 3.0,
    err_estimate=2.0 ** -60,
    terms_used=42,
    method_tag="osc-euler",
)

EVAL_JSON = """{
  "value": -0.033333333333333333,
  "err_estimate": 8.6736173798840355e-19,
  "terms_used": 42,
  "method": "osc-euler"
}
"""

EVAL_CSV = """value,err_estimate,terms_used,method
-0.033333333333333333,8.6736173798840355e-19,42,osc-euler
"""

EVAL_TEXT = """value        -0.0333333333333333
err_estimate 8.67e-19
terms_used   42
method       osc-euler
"""


@pytest.mark.parametrize("fmt, want", [("json", EVAL_JSON), ("csv", EVAL_CSV), ("text", EVAL_TEXT)])
def test_point_result_bytes(fmt, want):
    assert _render_eval(RESULT, fmt) == want


def _raises_at_half(pt):
    if pt["x"] == 0.5:
        raise ValueError('bad "quote" \\ back\x01slash, comma')
    return 1.0 / 3.0 + pt["x"]


CASES = (
    IdentityCase(
        id="T.raise",
        lhs=_raises_at_half,
        rhs=lambda pt: 1.0 / 3.0 + pt["x"] + 1e-10 * pt["x"],
        axes=(("x", (0.25, 0.5, 0.75)),),
        tol=1e-9,
        notes="one point raises with quotes, a backslash and a control character",
    ),
    IdentityCase(
        id="T.complex",
        lhs=lambda pt: complex(3.0, 4.0),
        rhs=lambda pt: complex(1.5, 2.0),
        axes=(),
        tol=1e-9,
        notes="complex sides listed by modulus, no axes",
    ),
    IdentityCase(
        id="T.inf",
        lhs=lambda pt: math.inf,
        rhs=lambda pt: math.inf * pt["u"],
        axes=(("u", (0.5,)),),
        tol=1e-9,
        notes="non-finite residual",
    ),
    IdentityCase(
        id="T.m",
        lhs=lambda pt: pt["s"] ** (pt["m"] + 1),
        rhs=lambda pt: pt["s"] ** (pt["m"] + 1) + 1e-11 * pt["m"],
        axes=(("s", (0.5, -1.5)), ("m", (0, 1, 2))),
        tol=1e-11,
        notes="integer m coordinate",
    ),
)


def _report(monkeypatch):
    monkeypatch.setattr(identities, "registry", lambda: CASES)
    return verify_all(grid_density=3, tol_scale=2.0)


REPORT_JSON = r"""{
  "summary": {
    "cases_run": 4,
    "cases_passed": 0,
    "max_residual": 2.5
  },
  "cases": [
    {
      "id": "T.complex",
      "points": [
        {"lhs": 5, "rhs": 2.5, "residual": 2.5, "pass": false}
      ],
      "max_residual": 2.5,
      "pass": false
    },
    {
      "id": "T.inf",
      "points": [
        {"u": 0.5, "lhs": null, "rhs": null, "residual": null, "pass": false, "note": "non-finite residual"}
      ],
      "max_residual": null,
      "pass": false
    },
    {
      "id": "T.m",
      "points": [
        {"s": 0.5, "m": 0, "lhs": 0.5, "rhs": 0.5, "residual": 0, "pass": true},
        {"s": 0.5, "m": 1, "lhs": 0.25, "rhs": 0.25000000001, "residual": 1.000000082740371e-11, "pass": false},
        {"s": 0.5, "m": 2, "lhs": 0.125, "rhs": 0.12500000002, "residual": 2.000000165480742e-11, "pass": false},
        {"s": -1.5, "m": 0, "lhs": -1.5, "rhs": -1.5, "residual": 0, "pass": true},
        {"s": -1.5, "m": 1, "lhs": 2.25, "rhs": 2.25000000001, "residual": 1.000000082740371e-11, "pass": false},
        {"s": -1.5, "m": 2, "lhs": -3.375, "rhs": -3.37499999998, "residual": 2.000000165480742e-11, "pass": false}
      ],
      "max_residual": 2.000000165480742e-11,
      "pass": false
    },
    {
      "id": "T.raise",
      "points": [
        {"x": 0.25, "lhs": 0.58333333333333326, "rhs": 0.58333333335833326, "residual": 2.5000002068509275e-11, "pass": true},
        {"x": 0.5, "lhs": null, "rhs": null, "residual": null, "pass": false, "note": "ValueError: bad \"quote\" \\ back\u0001slash, comma"},
        {"x": 0.75, "lhs": 1.0833333333333333, "rhs": 1.0833333334083333, "residual": 7.5000006205527825e-11, "pass": true}
      ],
      "max_residual": 7.5000006205527825e-11,
      "pass": false
    }
  ]
}
"""

REPORT_CSV = (
    "id,x,s,u,m,lhs,rhs,residual,pass,note\n"
    "T.complex,,,,,5,2.5,2.5,false,\n"
    "T.inf,,,0.5,,,,,false,non-finite residual\n"
    "T.m,,0.5,,0,0.5,0.5,0,true,\n"
    "T.m,,0.5,,1,0.25,0.25000000001,1.000000082740371e-11,false,\n"
    "T.m,,0.5,,2,0.125,0.12500000002,2.000000165480742e-11,false,\n"
    "T.m,,-1.5,,0,-1.5,-1.5,0,true,\n"
    "T.m,,-1.5,,1,2.25,2.25000000001,1.000000082740371e-11,false,\n"
    "T.m,,-1.5,,2,-3.375,-3.37499999998,2.000000165480742e-11,false,\n"
    "T.raise,0.25,,,,0.58333333333333326,0.58333333335833326,2.5000002068509275e-11,true,\n"
    'T.raise,0.5,,,,,,,false,"ValueError: bad ""quote"" \\ back\x01slash, comma"\n'
    "T.raise,0.75,,,,1.0833333333333333,1.0833333334083333,7.5000006205527825e-11,true,\n"
)

REPORT_TEXT = (
    "cases run    4\n"
    "cases passed 0\n"
    "max residual 2.5\n"
    "\n"
    "T.complex FAIL  max residual 2.5  (1 points)\n"
    "    scalar  lhs=5  rhs=2.5  residual=2.5\n"
    "T.inf     FAIL  max residual n/a  (1 points)\n"
    "    u=0.5  lhs=n/a  rhs=n/a  residual=n/a  note=non-finite residual\n"
    "T.m       FAIL  max residual 2.000000165480742e-11  (6 points)\n"
    "    s=0.5 m=1  lhs=0.25  rhs=0.25000000001  residual=1.000000082740371e-11\n"
    "    s=0.5 m=2  lhs=0.125  rhs=0.12500000002  residual=2.000000165480742e-11\n"
    "    s=-1.5 m=1  lhs=2.25  rhs=2.25000000001  residual=1.000000082740371e-11\n"
    "    s=-1.5 m=2  lhs=-3.375  rhs=-3.37499999998  residual=2.000000165480742e-11\n"
    "T.raise   FAIL  max residual 7.5000006205527825e-11  (3 points)\n"
    "    x=0.5  lhs=n/a  rhs=n/a  residual=n/a  note=ValueError: bad \"quote\" \\ back\x01slash, comma\n"
)


@pytest.mark.parametrize(
    "fmt, want", [("json", REPORT_JSON), ("csv", REPORT_CSV), ("text", REPORT_TEXT)]
)
def test_report_bytes(monkeypatch, fmt, want):
    assert _render_report(_report(monkeypatch), fmt) == want


PASSING_TEXT = (
    "cases run    1\n"
    "cases passed 1\n"
    "max residual 0\n"
    "\n"
    "T.exact   pass  max residual 0  (2 points)\n"
)

NO_RESIDUAL_JSON = """{
  "summary": {
    "cases_run": 1,
    "cases_passed": 0,
    "max_residual": null
  },
  "cases": [
    {
      "id": "T.inf",
      "points": [
        {"u": 0.5, "lhs": null, "rhs": null, "residual": null, "pass": false, "note": "non-finite residual"}
      ],
      "max_residual": null,
      "pass": false
    }
  ]
}
"""

NO_RESIDUAL_TEXT = (
    "cases run    1\n"
    "cases passed 0\n"
    "max residual n/a\n"
    "\n"
    "T.inf     FAIL  max residual n/a  (1 points)\n"
    "    u=0.5  lhs=n/a  rhs=n/a  residual=n/a  note=non-finite residual\n"
)


def test_single_case_report_bytes():
    exact = IdentityCase(
        id="T.exact", lhs=lambda pt: pt["x"], rhs=lambda pt: pt["x"],
        axes=(("x", (0.25, 0.75)),), tol=1e-9, notes="exact",
    )
    assert _render_report(verify(exact, grid_density=3), "text") == PASSING_TEXT
    none = verify(CASES[2], grid_density=3)
    assert _render_report(none, "json") == NO_RESIDUAL_JSON
    assert _render_report(none, "text") == NO_RESIDUAL_TEXT


def _jstr_by_character(text):
    """The json string escaper as a loop over characters: the reference."""
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


# Every code point below U+0020, the two escaped characters, DEL, a
# Latin letter, the no-break space, the line separator, an astral
# character, and plain ASCII.
_ALPHABET = [chr(c) for c in range(0x20)] + [
    '"', "\\", "\x7f", "\u00e9", "\u00a0", "\u2028", "\U0001d4b5", "a", " ", "1",
]


def test_jstr_escapes_as_the_character_loop():
    rng = random.Random(1901)
    texts = ["", *_ALPHABET] + [
        "".join(rng.choices(_ALPHABET, k=rng.randrange(1, 40))) for _ in range(2000)
    ]
    for text in texts:
        assert _jstr(text) == _jstr_by_character(text), repr(text)


class _Float(float):
    pass


@pytest.mark.parametrize(
    "value, cell, json",
    [
        (True, "true", "true"),
        (False, "false", "false"),
        (0, "0", "0"),
        (-12, "-12", "-12"),
        (None, "", "null"),
        ('a "b", c', 'a "b", c', '"a \\"b\\", c"'),
        ("", "", '""'),
        (0.0, "0", "0"),
        (-0.0, "-0", "-0"),
        (math.inf, "", "null"),
        (-math.inf, "", "null"),
        (math.nan, "", "null"),
        (5e-324, "4.9406564584124654e-324", "4.9406564584124654e-324"),
        (0.1, "0.10000000000000001", "0.10000000000000001"),
        (_Float(0.1), "0.10000000000000001", "0.10000000000000001"),
    ],
)
def test_cell_and_json_value_bytes(value, cell, json):
    assert _cell(value) == cell
    assert _json(value) == json
