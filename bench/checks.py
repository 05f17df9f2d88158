"""Parse the orbchi CLI's output and compare it with the reference.

Each ``check_*`` function returns ``None`` when the output is right, or a
one-line reason.  An operation fails on a nonzero exit, on output that does
not parse, and on any value that differs from the reference.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

KNOWN_FAULT = "asymptotic check FAIL"
DECIMAL_TOLERANCE = Fraction(1, 10 ** 14)

_RATIONAL = r"-?\d+(?:/\d+)?"
_FLOAT = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"
_LATEX = r"-?\d+|-?\\frac\{\d+\}\{\d+\}"


class Malformed(ValueError):
    """Output that does not have the documented shape."""


def _rational(text: str) -> Fraction:
    if not re.fullmatch(_RATIONAL, text):
        raise Malformed(f"not a rational: {text!r}")
    return Fraction(text)


def _latex_rational(text: str) -> Fraction:
    m = re.fullmatch(r"(-?)\\frac\{(\d+)\}\{(\d+)\}", text)
    if m:
        return Fraction(int(m[2]), int(m[3])) * (-1 if m[1] else 1)
    return _rational(text)


# Row pattern and decimal separator of each text format, as cli.py prints them.
_ROW = {"plain": rf"(\d+): ({_RATIONAL})", "csv": rf"(\d+),({_RATIONAL})",
        "latex": rf"(\d+) & ({_LATEX}) \\\\"}
_DECIMAL_SEP = {"plain": " ~ ", "csv": ",", "latex": " % "}


def parse_table(out: str, fmt: str, decimal: bool) -> tuple[dict, dict, dict]:
    """Entries, decimals and json header fields of one ``compute`` output.

    Rows keep their printed order, so a reordered or missing row shows when
    the keys are compared with the expected loop range.
    """
    lines = out.splitlines()
    header: dict = {}
    if fmt == "json":
        if len(lines) != 1:
            raise Malformed("json output must be one line")
        try:
            doc = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise Malformed(f"bad json: {exc}") from None
        keys = {"species", "connected", "entries"} | ({"decimals"} if decimal else set())
        if not isinstance(doc, dict) or set(doc) != keys:
            raise Malformed("json keys differ from the documented ones")
        header = {"species": doc["species"], "connected": doc["connected"]}
        dec_map = doc.get("decimals", {})
        if decimal and list(dec_map) != list(doc["entries"]):
            raise Malformed("json decimals do not match entries")
        rows = [(k, _rational(v), dec_map.get(k)) for k, v in doc["entries"].items()]
    else:
        if fmt == "csv":
            if not lines or lines[0] != ("loops,value,decimal" if decimal else "loops,value"):
                raise Malformed("missing or wrong csv header")
            lines = lines[1:]
        pattern = _ROW[fmt] + (re.escape(_DECIMAL_SEP[fmt]) + f"({_FLOAT})" if decimal else "")
        parse = _latex_rational if fmt == "latex" else _rational
        rows = []
        for line in lines:
            m = re.fullmatch(pattern, line)
            if m is None:
                raise Malformed(f"unexpected line {line!r}")
            rows.append((m[1], parse(m[2]), m[3] if decimal else None))
    entries: dict[int, Fraction] = {}
    decimals: dict[int, str] = {}
    for n, value, approx in rows:
        if not re.fullmatch(r"\d+", str(n)):
            raise Malformed(f"bad loop number {n!r}")
        entries[int(n)] = value
        if approx is not None:
            if not isinstance(approx, str) or not re.fullmatch(_FLOAT, approx):
                raise Malformed(f"bad decimal {approx!r}")
            decimals[int(n)] = approx
    if len(entries) != len(rows):
        raise Malformed("repeated loop number")
    return entries, decimals, header


def check_compute(op: dict, rc: int, out: str, table: dict[int, Fraction]) -> str | None:
    """``compute``: every entry equals the reference, decimals within 1e-14."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        entries, decimals, header = parse_table(out, op["format"], op["decimal"])
    except Malformed as exc:
        return str(exc)
    if list(entries) != list(range(2, op["loops"] + 1)):
        return f"rows {list(entries)} instead of 2..{op['loops']}"
    if header and header != {"species": op["name"], "connected": not op["all"]}:
        return f"json header {header}"
    for n, value in entries.items():
        if value != table[n]:
            return f"entry {n}: {value} != {table[n]}"
    for n, approx in decimals.items():
        if abs(Fraction(float(approx)) - table[n]) > DECIMAL_TOLERANCE * abs(table[n]):
            return f"decimal {n}: {approx} not within 1e-14 of {table[n]}"
    return None


def _expect_lines(rc: int, out: str, expected: list[str]) -> str | None:
    got = out.splitlines()
    for g, e in zip(got, expected):
        if g != e:
            return f"line {g!r} != {e!r}"
    if len(got) != len(expected):
        return f"{len(got)} lines instead of {len(expected)}"
    return f"exit code {rc}" if rc != 0 else None


def check_oracle(op: dict, rc: int, out: str, g: list, c: list) -> str | None:
    """``verify oracle``: pipeline and oracle both print the reference, ``ok``."""
    expected = []
    for m in range(1, op["loops"]):
        for label, value in (("all-graphs", g[m]), ("connected", c[m])):
            expected.append(f"{label} m={m}: pipeline {value} oracle {value} ok")
    return _expect_lines(rc, out, expected)


def check_bernoulli(op: dict, rc: int, out: str, tables: dict) -> str | None:
    """``verify bernoulli``: both species print the reference value and ``ok``."""
    expected = [f"{name} n={n}: {tables[name][n]} ok"
                for name in ("commutative", "associative")
                for n in range(2, op["loops"] + 1)]
    return _expect_lines(rc, out, expected)


def check_equality(op: dict, rc: int, out: str, tables: dict) -> str | None:
    """``verify equality``: both columns print the reference value and ``ok``."""
    expected = [f"n={n}: associative {tables['associative'][n]} "
                f"commutative {tables['commutative'][n]} ok"
                for n in range(2, op["loops"] + 1)]
    return _expect_lines(rc, out, expected)


def check_analytic(op: dict, rc: int, out: str, partial_sum: Fraction,
                   next_term: Fraction) -> str | None:
    """``verify analytic``: exact partial sum, the reference bound, and ``pass``.

    A well-formed report that says ``FAIL`` with exit code 1 returns
    ``KNOWN_FAULT``, so the caller can tell it from any other failure.
    """
    f = rf"({_FLOAT})"
    pattern = (rf"t=(\S+) terms=(\d+)\ngamma expression  {f}\npartial sum       {f}\n"
               rf"residual          {f}\nnext-term bound   {f}\nasymptotic check: (pass|FAIL)")
    m = re.fullmatch(pattern, out.rstrip("\n"))
    if m is None:
        return "analytic report does not parse"
    if m[1] != format(op["t"], "g") or int(m[2]) != op["terms"]:
        return f"report is for t={m[1]} terms={m[2]}"
    if float(m[4]) != float(partial_sum):
        return f"partial sum {m[4]} != {float(partial_sum)!r}"
    bound = float(m[6])
    if abs(bound - float(next_term)) > 1e-6 * float(next_term):
        return f"next-term bound {bound} != {float(next_term)}"
    if m[7] == "pass" and rc == 0:
        return None
    if m[7] == "FAIL" and rc == 1:
        return KNOWN_FAULT
    return f"status {m[7]} with exit code {rc}"
