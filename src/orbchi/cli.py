"""Command-line interface: compute Euler characteristic tables, run checks.

Exit codes: 0 success / all checks pass, 1 computation error or failed
check, 2 usage error.  Each handler builds its whole output and returns
it with whether every check passed; ``main`` alone prints it and maps
the result to an exit code.  The handlers hold no range checks and catch
nothing: the library's own checks decide, raising ``UsageError`` for a
request out of range, and ``main`` alone maps an exception to one
``error:`` line on stderr and its exit code.

All rational output is exact ("p/q", or "p" when the denominator is 1);
--decimal adds clearly marked 15-digit decimal approximations but never
replaces the exact values.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from .analytic import check_commutative_asymptotics
from .bernoulli import verify_bernoulli
from .euler import EulerTable, all_graphs_series, connected_series, euler_characteristic
from .oracle import oracle_all_graphs_coefficient, oracle_connected_coefficient
from .species import Species, UsageError, builtin_species, species_from_file

__all__ = ["main"]

FORMATS = ("plain", "csv", "json", "latex")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and parse failures (2) itself
        return int(exc.code or 0)
    try:
        lines, ok = args.handler(args)
        for line in lines:
            print(line)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0 if ok else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="orbchi",
        description="Exact orbifold Euler characteristics of graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a table of coefficients")
    compute.add_argument("--species", required=True, metavar="NAME|file:PATH")
    compute.add_argument("--max-loops", type=int, default=11, dest="max_loops")
    compute.add_argument("--all", action="store_true",
                         help="all-graphs series instead of connected")
    compute.add_argument("--format", choices=FORMATS, default="plain")
    compute.add_argument("--decimal", action="store_true",
                         help="also print 15-digit approximations")
    compute.set_defaults(handler=_cmd_compute)

    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    bern = suites.add_parser("bernoulli", help="closed form vs computed table")
    bern.add_argument("--max-loops", type=int, default=11, dest="max_loops")
    bern.set_defaults(handler=_cmd_verify_bernoulli)

    orc = suites.add_parser("oracle", help="pipeline vs brute-force enumeration")
    orc.add_argument("--species", required=True, metavar="NAME|file:PATH")
    orc.add_argument("--max-loops", type=int, default=3, dest="max_loops")
    orc.set_defaults(handler=_cmd_verify_oracle)

    ana = suites.add_parser("analytic", help="asymptotic expansion residual")
    ana.add_argument("--t", type=float, default=0.1)
    ana.add_argument("--terms", type=int, default=3)
    ana.set_defaults(handler=_cmd_verify_analytic)

    eq = suites.add_parser("equality", help="associative vs commutative table")
    eq.add_argument("--max-loops", type=int, default=11, dest="max_loops")
    eq.set_defaults(handler=_cmd_verify_equality)

    return parser


def _species(arg: str) -> Species:
    """Resolve NAME|file:PATH."""
    if arg.startswith("file:"):
        return species_from_file(arg[len("file:"):])
    return builtin_species(arg)


def _cmd_compute(args: argparse.Namespace) -> tuple[list[str], bool]:
    table = euler_characteristic(_species(args.species), args.max_loops,
                                 connected=not args.all)
    with _all_digits():
        return _render(table, args.format, args.decimal), True


@contextmanager
def _all_digits():
    """Lift Python's cap on int-to-str conversion for the block.

    The cap is 4300 digits by default (3.11+, 3.10.7+).  Exact values are
    printed in full however many digits they have, so only the blocks that
    format output lift it; species-file parsing keeps it.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


def _render(table: EulerTable, fmt: str, decimal: bool) -> list[str]:
    items = table.entries.items()
    if fmt == "plain":
        return [f"{n}: {v}" + (f" ~ {_approx(v)}" if decimal else "")
                for n, v in items]
    if fmt == "csv":
        header = "loops,value,decimal" if decimal else "loops,value"
        rows = [f"{n},{v}" + (f",{_approx(v)}" if decimal else "")
                for n, v in items]
        return [header] + rows
    if fmt == "json":
        obj: dict[str, object] = {
            "species": table.species_name,
            "connected": table.connected,
            "entries": {str(n): str(v) for n, v in items},
        }
        if decimal:
            obj["decimals"] = {str(n): _approx(v) for n, v in items}
        return [json.dumps(obj, separators=(",", ":"))]
    if fmt == "latex":
        return [f"{n} & {_latex_rational(v)} \\\\"
                + (f" % {_approx(v)}" if decimal else "")
                for n, v in items]
    raise ValueError(f"unknown format {fmt!r}")


def _approx(v: Fraction) -> str:
    """v to 15 significant digits, in the shape of format(x, ".15g").

    Rounds half to even from the exact integers, so a value outside the
    range of a float neither overflows nor underflows to zero.
    """
    if not v:
        return "0"
    mag = abs(v)
    exp = len(str(mag.numerator)) - len(str(mag.denominator))
    if mag < Fraction(10) ** exp:
        exp -= 1
    digits = round(mag / Fraction(10) ** (exp - 14))
    if digits == 10 ** 15:
        digits //= 10
        exp += 1
    text = str(digits)
    if -4 <= exp < 15:
        if exp >= 0:
            body = text[: exp + 1] + "." + text[exp + 1:]
        else:
            body = "0." + "0" * (-exp - 1) + text
        body = body.rstrip("0").rstrip(".")
    else:
        body = (text[0] + "." + text[1:]).rstrip("0").rstrip(".") + f"e{exp:+03d}"
    return ("-" if v < 0 else "") + body


def _latex_rational(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    sign = "-" if v < 0 else ""
    return f"{sign}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def _cmd_verify_bernoulli(args: argparse.Namespace) -> tuple[list[str], bool]:
    lines, ok = [], True
    for name in ("commutative", "associative"):
        table = euler_characteristic(builtin_species(name), args.max_loops)
        for check in verify_bernoulli(table):
            status = "ok" if check.ok else f"MISMATCH expected {check.expected}"
            lines.append(f"{name} n={check.loops}: {check.value} {status}")
            ok = ok and check.ok
    return lines, ok


def _cmd_verify_oracle(args: argparse.Namespace) -> tuple[list[str], bool]:
    sp = _species(args.species)
    # the oracle sums come first, so an order past their budget fails
    # before the pipeline runs
    oracles = [(oracle_all_graphs_coefficient(sp, m, 3 * m),
                oracle_connected_coefficient(sp, m, 3 * m))
               for m in range(1, args.max_loops)]
    series = all_graphs_series(sp, args.max_loops)
    connected = connected_series(series)
    lines, ok = [], True
    with _all_digits():
        for m, (all_oracle, connected_oracle) in enumerate(oracles, start=1):
            for label, pipeline, oracle in (("all-graphs", series[m], all_oracle),
                                            ("connected", connected[m], connected_oracle)):
                same = pipeline == oracle
                status = "ok" if same else "MISMATCH"
                lines.append(f"{label} m={m}: pipeline {pipeline} oracle {oracle} {status}")
                ok = ok and same
    return lines, ok


def _cmd_verify_analytic(args: argparse.Namespace) -> tuple[list[str], bool]:
    result = check_commutative_asymptotics(args.t, args.terms)
    return [
        f"t={result.t:g} terms={result.terms_used}",
        f"gamma expression  {result.lhs:.17g}",
        f"partial sum       {result.rhs:.17g}",
        f"residual          {result.residual:.6e}",
        f"next-term bound   {result.bound:.6e}",
        f"asymptotic check: {'pass' if result.passed else 'FAIL'}",
    ], result.passed


def _cmd_verify_equality(args: argparse.Namespace) -> tuple[list[str], bool]:
    assoc = euler_characteristic(builtin_species("associative"), args.max_loops)
    comm = euler_characteristic(builtin_species("commutative"), args.max_loops)
    lines, ok = [], True
    for n in range(2, args.max_loops + 1):
        same = assoc.entries[n] == comm.entries[n]
        status = "ok" if same else "MISMATCH"
        lines.append(f"n={n}: associative {assoc.entries[n]} commutative {comm.entries[n]} {status}")
        ok = ok and same
    return lines, ok


if __name__ == "__main__":
    sys.exit(main())
