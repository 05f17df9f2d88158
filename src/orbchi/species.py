"""Vertex species: the combinatorial structure placed at each graph vertex.

A species is described by its structure counts Q_n (the number of structures
on n labeled half-edges) for n >= 3; the exponential-generating-function
coefficient q_n = Q_n / n! is what the pipeline consumes.  Q_0 = Q_1 = Q_2 = 0
always, since every vertex is at least trivalent.

Built-ins:

=============  ==============  ==================================
name           Q_n             structure at a vertex
=============  ==============  ==================================
commutative    1               plain set of half-edges
associative    (n-1)!          cyclic order (ribbon / fat graph)
lie            (n-2)!          planar trivalent tree mod relations
chord          (n-1)!! | 0     perfect matching, even n only
=============  ==============  ==================================

User-defined species are loaded from a JSON file; see ``species_from_file``.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, Mapping

__all__ = ["UsageError", "Species", "builtin_species", "species_from_file"]


class UsageError(ValueError):
    """An argument outside the range a function accepts.

    Raised for a bad request (an unknown name, a loop order or budget out
    of range), as opposed to bad data such as a malformed species file or
    missing coverage, which stay plain ``ValueError``.
    """


class Species:
    """A vertex structure type, queried through its EGF coefficients.

    ``max_n`` is the largest valence with a defined count (``None`` when the
    species is given by a closed formula and covers every n).
    """

    __slots__ = ("name", "max_n", "_q")

    def __init__(self, name: str, q: Callable[[int], Fraction], max_n: int | None = None):
        self.name = name
        self.max_n = max_n
        self._q = q

    def q(self, n: int) -> Fraction:
        """EGF coefficient Q_n / n!; zero below valence 3."""
        if n < 3:
            return Fraction(0)
        self.check_coverage(n)
        return self._q(n)

    def structure_count(self, n: int) -> Fraction:
        """Q_n itself.  Rational-valued species are allowed, so not an int."""
        return self.q(n) * factorial(n)

    def check_coverage(self, n: int) -> None:
        """Raise unless counts are defined for all valences up to n."""
        if self.max_n is not None and n > self.max_n:
            raise ValueError(
                f"species {reprlib.repr(self.name)} defines Q_n only up to n={self.max_n}, "
                f"but n={n} is required"
            )

    def __repr__(self) -> str:
        bound = "unbounded" if self.max_n is None else f"max_n={self.max_n}"
        return f"Species({self.name!r}, {bound})"


def _chord_q(n: int) -> Fraction:
    # Ch_n = (n-1)!! perfect matchings for even n = 2k, none for odd n:
    # q_n = (2k-1)!!/(2k)! = 1/(2^k k!)
    return Fraction(0) if n % 2 else Fraction(1, 2 ** (n // 2) * factorial(n // 2))


_BUILTIN_Q: Mapping[str, Callable[[int], Fraction]] = {
    "commutative": lambda n: Fraction(1, factorial(n)),
    "associative": lambda n: Fraction(1, n),
    "lie": lambda n: Fraction(1, n * (n - 1)),
    "chord": _chord_q,
}


def builtin_species(name: str) -> Species:
    """One of the four built-in species by name."""
    try:
        q = _BUILTIN_Q[name]
    except KeyError:
        valid = ", ".join(sorted(_BUILTIN_Q))
        raise UsageError(f"unknown species {reprlib.repr(name)} (valid names: {valid})") from None
    return Species(name, q)


def species_from_file(path: str | Path) -> Species:
    """Load a species from a JSON document.

    Expected shape::

        {"name": "triangles-only", "Q": {"3": 1, "4": 0, "5": "1/2", ...}}

    ``Q`` maps the valence n (as a decimal string) to the structure count
    Q_n, either an integer or a rational written ``"p/q"``.  Every integer,
    whether a valence key, a count or either side of ``"p/q"``, is ASCII
    ``-?[0-9]+``: no sign ``+``, no space, no ``_`` and no other digits.
    The valences must cover 3..max without gaps, each named by one key only
    (``"3"`` and ``"03"`` are one valence); entries below 3 are only
    accepted when they are zero.  No object in the file may repeat a key.
    Errors quote the path through ``repr`` and text from the file through
    ``reprlib.repr``, so each stays one short line.
    """
    path = Path(path)
    where = repr(str(path))  # quoted and escaped: a newline stays on one line
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read species file {where}: {exc}") from exc
    try:
        return _species_from_text(raw)
    except ValueError as exc:
        raise ValueError(f"species file {where}{exc}") from exc


def _species_from_text(raw: str) -> Species:
    """The species a file's text describes.

    A fault raises ``ValueError`` with its own detail only, written to follow
    the file's name on one line (``species file '<path>'<detail>``).
    """
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_keys,
                         parse_int=lambda digits: _int(digits, ": "))
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting too deep for the decoder is as malformed as a syntax error
        raise ValueError(f" is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str) \
            or not isinstance(doc.get("Q"), dict):
        raise ValueError(" must be an object with a string 'name' and a 'Q' map")

    counts: dict[int, Fraction] = {}
    for key, value in doc["Q"].items():
        n = _int(key, ": valence key: ")
        if n is None:
            raise ValueError(f": non-integer valence key {reprlib.repr(key)}")
        if n in counts:
            raise ValueError(f": valence {n} given twice (key {reprlib.repr(key)})")
        counts[n] = _parse_count(n, value)
        if n < 3 and counts[n] != 0:
            raise ValueError(f": Q_{n} must be zero (every vertex is at least trivalent)")

    max_n = max([2, *counts])  # 2 when no Q_n from n = 3 up: any computation refuses
    for n in range(3, max_n + 1):
        if n not in counts:
            raise ValueError(f": missing Q_{n}")

    table = {n: c / factorial(n) for n, c in counts.items() if n >= 3}
    return Species(doc["name"], lambda n: table[n], max_n=max_n)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f": key {reprlib.repr(key)} given twice")
        doc[key] = value
    return doc


def _int(text: str, context: str) -> int | None:
    """The integer ``text`` spells as ASCII ``-?[0-9]+``, else None.

    A literal with more digits than ``sys.get_int_max_str_digits()`` is well
    formed, so it fails on its own: one line, ``context`` followed by the
    cap, and none of the digits.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"{context}{exc}") from None


def _parse_count(n: int, value) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, sep, den = value.partition("/")
        context = f": Q_{n}: "
        p, q = _int(num, context), _int(den, context) if sep else 1
        if p is not None and q:
            return Fraction(p, q)
    raise ValueError(f": Q_{n} must be an integer or 'p/q', got {reprlib.repr(value)}")
