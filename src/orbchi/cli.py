"""Command-line interface: compute Euler characteristic tables, run checks.

Exit codes: 0 success / all checks pass, 1 computation error or failed
check, 2 usage error.  Each handler builds its whole output and returns
it with whether every check passed; ``main`` alone prints it and maps
the result to an exit code.  The comparison suites (bernoulli, oracle,
equality) only build rows of two exact values; one renderer,
``_compare``, makes the ``ok``/``MISMATCH`` lines and the pass flag.
The handlers hold no range checks and catch nothing: the library's own
checks decide, raising ``UsageError`` for a request out of range, and
the parser raises it too for arguments it cannot parse.  ``main`` alone
maps every failure, a parse failure included, to one ``error:`` line on
stderr and its exit code; only ``--help`` prints usage to stdout and
exits 0.

All rational output is exact ("p/q", or "p" when the denominator is 1)
and printed in full through ``decimal``, without changing
``sys.get_int_max_str_digits()``; species files are still parsed under
that cap.  --decimal adds clearly marked 15-digit decimal approximations
but never replaces the exact values.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import cache

from .analytic import check_commutative_asymptotics, verify_bernoulli
from .euler import EulerTable, all_graphs_series, connected_series, euler_characteristic
from .oracle import oracle_all_graphs_coefficient, oracle_connected_coefficient
from .species import Species, UsageError, builtin_species, species_from_file

__all__ = ["main"]

FORMATS = ("plain", "csv", "json", "latex")
# Row template, decimal separator, fraction template and header line of
# each text format; a header gains its decimal column under --decimal.
_TEXT_ROWS = {"plain": ("{}: {}", " ~ ", "{}/{}", ""),
              "csv": ("{},{}", ",", "{}/{}", "loops,value"),
              "latex": ("{} & {} \\\\", " % ", "\\frac{{{}}}{{{}}}", "")}
# --decimal rounding: 15 significant digits, half to even, exponent unbounded
_APPROX = Context(prec=15, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        lines, ok = args.handler(args)
        for line in lines:
            print(line)
    except SystemExit as exc:  # --help, printed by argparse
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse failures raise ``UsageError``."""

    def error(self, message: str):
        # argparse quotes most values it names, but not unrecognized arguments
        raise UsageError(message.replace("\n", "\\n"))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = _Parser(
        prog="orbchi",
        description="Exact orbifold Euler characteristics of graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a table of coefficients")
    compute.add_argument("--species", required=True, metavar="NAME|file:PATH")
    compute.add_argument("--max-loops", type=int, default=11)
    compute.add_argument("--all", action="store_true",
                         help="all-graphs series instead of connected")
    compute.add_argument("--format", choices=FORMATS, default="plain")
    compute.add_argument("--decimal", action="store_true",
                         help="also print 15-digit approximations")
    compute.set_defaults(handler=_cmd_compute)

    verify = sub.add_parser("verify", help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)

    bern = suites.add_parser("bernoulli", help="closed form vs computed table")
    bern.add_argument("--max-loops", type=int, default=11)
    bern.set_defaults(handler=_cmd_verify_bernoulli)

    orc = suites.add_parser("oracle", help="pipeline vs brute-force enumeration")
    orc.add_argument("--species", required=True, metavar="NAME|file:PATH")
    orc.add_argument("--max-loops", type=int, default=3)
    orc.set_defaults(handler=_cmd_verify_oracle)

    ana = suites.add_parser("analytic", help="asymptotic expansion residual")
    ana.add_argument("--t", type=float, default=0.1)
    ana.add_argument("--terms", type=int, default=3)
    ana.set_defaults(handler=_cmd_verify_analytic)

    eq = suites.add_parser("equality", help="associative vs commutative table")
    eq.add_argument("--max-loops", type=int, default=11)
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
    return _render(table, args.format, args.decimal), True


def _render(table: EulerTable, fmt: str, decimal: bool) -> list[str]:
    items = table.entries.items()
    if fmt == "json":
        obj: dict[str, object] = {
            "species": table.species_name,
            "connected": table.connected,
            "entries": {str(n): _exact(v) for n, v in items},
        }
        if decimal:
            obj["decimals"] = {str(n): _approx(v) for n, v in items}
        return [json.dumps(obj, separators=(",", ":"))]
    row, sep, frac, header = _TEXT_ROWS[fmt]
    lines = [header + ",decimal" * decimal] if header else []
    return lines + [row.format(n, _exact(v, frac)) + (sep + _approx(v) if decimal else "")
                    for n, v in items]


def _exact(v: Fraction | int, frac: str = "{}/{}") -> str:
    """v as "p", when q is 1, or else as its sign and the template ``frac``
    filled with |p| and q, in full however many digits they have.

    ``Decimal`` converts and prints an int exactly with no digit cap, so
    no interpreter-wide setting changes.
    """
    if v.denominator == 1:
        return str(Decimal(v.numerator))
    return "-" * (v < 0) + frac.format(Decimal(abs(v.numerator)), Decimal(v.denominator))


def _approx(v: Fraction) -> str:
    """v to 15 significant digits, in the shape of format(x, ".15g").

    One correctly rounded decimal division, so a value outside the range
    of a float neither overflows nor underflows to zero.
    """
    d = _APPROX.divide(v.numerator, v.denominator).normalize(_APPROX)
    exp = d.adjusted()
    if -4 <= exp < 15:
        return format(d, "f")
    return f"{d.scaleb(-exp, _APPROX):f}e{exp:+03d}"


def _compare(rows: list[tuple[str, Fraction, Fraction, str]]) -> tuple[list[str], bool]:
    """Rows (text, left, right, miss) as "text ok" where left == right and
    "text MISMATCH" + miss elsewhere, and whether every row is ok."""
    same = [left == right for _, left, right, _ in rows]
    return [f"{text} ok" if eq else f"{text} MISMATCH{miss}"
            for eq, (text, _, _, miss) in zip(same, rows)], all(same)


def _cmd_verify_bernoulli(args: argparse.Namespace) -> tuple[list[str], bool]:
    return _compare([(f"{name} n={n}: {_exact(value)}", value, expected,
                      f" expected {_exact(expected)}")
                     for name in ("commutative", "associative")
                     for n, value, expected in verify_bernoulli(
                         euler_characteristic(builtin_species(name), args.max_loops))])


def _cmd_verify_oracle(args: argparse.Namespace) -> tuple[list[str], bool]:
    sp = _species(args.species)
    # the oracle sums come first, the highest order first, so an order past
    # the oracle's loop cap fails before any enumeration or pipeline run
    oracles = [(oracle_all_graphs_coefficient(sp, m, 3 * m),
                oracle_connected_coefficient(sp, m, 3 * m))
               for m in range(args.max_loops - 1, 0, -1)][::-1]
    series = all_graphs_series(sp, args.max_loops)
    connected = connected_series(series)
    return _compare([(f"{label} m={m}: pipeline {_exact(pipeline)} oracle {_exact(oracle)}",
                      pipeline, oracle, "")
                     for m, pair in enumerate(oracles, start=1)
                     for label, pipeline, oracle in zip(("all-graphs", "connected"),
                                                        (series[m], connected[m]), pair)])


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
    assoc, comm = (euler_characteristic(builtin_species(name), args.max_loops)
                   for name in ("associative", "commutative"))
    return _compare([(f"n={n}: associative {_exact(a)} commutative {_exact(comm[n])}",
                      a, comm[n], "") for n, a in assoc.entries.items()])


if __name__ == "__main__":
    sys.exit(main())
