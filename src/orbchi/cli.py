"""Command-line interface: compute Euler characteristic tables, run checks.

Exit codes: 0 success / all checks pass, 1 computation error or failed
check, 2 usage error.  All rational output is exact ("p/q", or "p" when
the denominator is 1); --decimal adds clearly marked 15-digit decimal
approximations but never replaces the exact values.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .analytic import check_commutative_asymptotics
from .bernoulli import verify_bernoulli
from .euler import EulerTable, all_graphs_series, connected_series, euler_characteristic
from .oracle import oracle_all_graphs_coefficient, oracle_connected_coefficient
from .species import Species, builtin_species, species_from_file

__all__ = ["main"]

FORMATS = ("plain", "csv", "json", "latex")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (0) and parse failures (2) itself
        return int(exc.code or 0)
    return args.handler(args)


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


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_species(arg: str) -> tuple[Species | None, int]:
    """Resolve NAME|file:PATH; on failure print and return the exit code.

    A bad builtin name is a usage error (2); an unreadable or malformed
    species file is a computation error (1).
    """
    if arg.startswith("file:"):
        try:
            return species_from_file(arg[len("file:"):]), 0
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return None, 1
    try:
        return builtin_species(arg), 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.max_loops < 2:
        return _usage("max-loops must be >= 2")
    sp, code = _load_species(args.species)
    if sp is None:
        return code
    try:
        table = euler_characteristic(sp, args.max_loops, connected=not args.all)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in _render(table, args.format, args.decimal):
        print(line)
    return 0


def _render(table: EulerTable, fmt: str, decimal: bool) -> list[str]:
    items = [(n, table.entries[n]) for n in range(2, table.max_loops + 1)]
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


def _cmd_verify_bernoulli(args: argparse.Namespace) -> int:
    if args.max_loops < 2:
        return _usage("max-loops must be >= 2")
    failed = False
    for name in ("commutative", "associative"):
        table = euler_characteristic(builtin_species(name), args.max_loops)
        for check in verify_bernoulli(table):
            status = "ok" if check.ok else f"MISMATCH expected {check.expected}"
            print(f"{name} n={check.loops}: {check.value} {status}")
            failed = failed or not check.ok
    return 1 if failed else 0


def _cmd_verify_oracle(args: argparse.Namespace) -> int:
    if args.max_loops < 2:
        return _usage("max-loops must be >= 2")
    if args.max_loops > 3:
        return _usage("max-loops must be <= 3 (joint enumeration budget 2e <= 12)")
    sp, code = _load_species(args.species)
    if sp is None:
        return code
    try:
        series = all_graphs_series(sp, args.max_loops)
        connected = connected_series(series)
        failed = False
        for m in range(1, args.max_loops):
            pairs = (
                ("all-graphs", series[m], oracle_all_graphs_coefficient(sp, m, 3 * m)),
                ("connected", connected[m], oracle_connected_coefficient(sp, m, 3 * m)),
            )
            for label, pipeline, oracle in pairs:
                ok = pipeline == oracle
                status = "ok" if ok else "MISMATCH"
                print(f"{label} m={m}: pipeline {pipeline} oracle {oracle} {status}")
                failed = failed or not ok
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _cmd_verify_analytic(args: argparse.Namespace) -> int:
    if not 0.0 < args.t <= 0.2:
        return _usage("t must lie in (0, 1/5]")
    if not 1 <= args.terms <= 5:
        return _usage("terms must lie in 1..5")
    result = check_commutative_asymptotics(args.t, args.terms)
    print(f"t={result.t:g} terms={result.terms_used}")
    print(f"gamma expression  {result.lhs:.17g}")
    print(f"partial sum       {result.rhs:.17g}")
    print(f"residual          {result.residual:.6e}")
    print(f"next-term bound   {result.bound:.6e}")
    print(f"asymptotic check: {'pass' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _cmd_verify_equality(args: argparse.Namespace) -> int:
    if args.max_loops < 2:
        return _usage("max-loops must be >= 2")
    assoc = euler_characteristic(builtin_species("associative"), args.max_loops)
    comm = euler_characteristic(builtin_species("commutative"), args.max_loops)
    failed = False
    for n in range(2, args.max_loops + 1):
        ok = assoc.entries[n] == comm.entries[n]
        status = "ok" if ok else "MISMATCH"
        print(f"n={n}: associative {assoc.entries[n]} commutative {comm.entries[n]} {status}")
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
