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
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable, Mapping

from .moments import gaussian_moment

__all__ = ["UsageError", "Species", "BUILTIN_SPECIES", "builtin_species",
           "species_from_file"]


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
                f"species '{self.name}' defines Q_n only up to n={self.max_n}, "
                f"but n={n} is required"
            )

    def __repr__(self) -> str:
        bound = "unbounded" if self.max_n is None else f"max_n={self.max_n}"
        return f"Species({self.name!r}, {bound})"


def _chord_q(n: int) -> Fraction:
    # Ch_n = (n-1)!! perfect matchings for even n, none for odd n
    return Fraction(gaussian_moment(n), factorial(n))


BUILTIN_SPECIES: Mapping[str, Callable[[int], Fraction]] = {
    "commutative": lambda n: Fraction(1, factorial(n)),
    "associative": lambda n: Fraction(1, n),
    "lie": lambda n: Fraction(1, n * (n - 1)),
    "chord": _chord_q,
}


def builtin_species(name: str) -> Species:
    """One of the four built-in species by name."""
    try:
        q = BUILTIN_SPECIES[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN_SPECIES))
        raise UsageError(f"unknown species '{name}' (valid names: {valid})") from None
    return Species(name, q)


def species_from_file(path: str | Path) -> Species:
    """Load a species from a JSON document.

    Expected shape::

        {"name": "triangles-only", "Q": {"3": 1, "4": 0, "5": "1/2", ...}}

    ``Q`` maps the valence n (as a decimal string) to the structure count
    Q_n, either an integer or a rational written ``"p/q"``.  The valences
    must cover 3..max without gaps, each named by one key only; entries
    below 3 are only accepted when they are zero.  No object in the file
    may repeat a key.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read species file '{path}': {exc}") from exc

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValueError(f"species file '{path}': key {key!r} given twice")
            doc[key] = value
        return doc

    try:
        doc = json.loads(raw, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        # nesting too deep for the decoder is as malformed as a syntax error
        raise ValueError(f"species file '{path}' is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str) \
            or not isinstance(doc.get("Q"), dict):
        raise ValueError(
            f"species file '{path}' must be an object with a string 'name' "
            "and a 'Q' map"
        )

    counts: dict[int, Fraction] = {}
    seen: set[int] = set()
    for key, value in doc["Q"].items():
        try:
            n = int(key)
        except ValueError:
            raise ValueError(f"species file '{path}': non-integer valence key '{key}'") from None
        if n in seen:
            raise ValueError(f"species file '{path}': valence {n} given twice (key '{key}')")
        seen.add(n)
        count = _parse_count(path, n, value)
        if n < 3:
            if count != 0:
                raise ValueError(
                    f"species file '{path}': Q_{n} must be zero "
                    "(every vertex is at least trivalent)"
                )
            continue
        counts[n] = count

    if counts:
        top = max(counts)
        for n in range(3, top + 1):
            if n not in counts:
                raise ValueError(f"species file '{path}': missing Q_{n}")
        max_n = top
    else:
        max_n = 2  # nothing defined; any computation will refuse coverage

    table = {n: c / factorial(n) for n, c in counts.items()}
    return Species(doc["name"], lambda n: table[n], max_n=max_n)


def _parse_count(path: Path, n: int, value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"species file '{path}': Q_{n} must be an integer or 'p/q'")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, sep, den = value.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"species file '{path}': Q_{n} must be an integer or 'p/q', got {value!r}")
