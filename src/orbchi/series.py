"""Exact truncated series arithmetic over the rationals.

Two carriers, which store the same rows: row i is a sparse map from a
``y``-degree to a nonzero ``Fraction``.  The Euler-characteristic pipeline
runs its recurrences on lists and uses ``TSeries`` only to hold its
results; ``BivariatePoly`` carries the frozen reference route, ``exp``
followed by ``moments.substitute_moments``.

``BivariatePoly``
    a polynomial in the formal variables ``s`` and ``y``, truncated at a fixed
    maximum ``s``-degree; row i holds the ``s^i`` terms, for i = 0..s_cutoff.
    The ``y``-degree is never truncated; all inputs produced by the pipeline
    keep it finitely bounded per ``s``-degree.

``TSeries``
    a truncated univariate power series in ``t``; row m holds the
    coefficient of ``t^m`` at ``y``-degree 0 (``{0: c}``, or ``{}`` for zero),
    for m = 0..order.

So ``==``, ``+``, ``*`` and the exponential are written once, on rows, and
both carriers inherit them.  The exponential and the logarithm use the
derivative recurrences of power-series algebra (Knuth, TAOCP vol. 2,
sec. 4.7; Flajolet and Sedgewick, *Analytic Combinatorics*, ch. II), not
power sums:

* H = exp(E) satisfies H' = E'H in s (or t), so its rows obey
  i h_i = sum_{k=1..i} (k e_k) h_{i-k}; ``_exp_rows`` runs this;
* C = log(G) satisfies G C' = G', so
  c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.

Each costs O(N^2) row products for N rows.

The operations are ``==``; ``+`` and ``*`` of two carriers of one kind,
truncated to the smaller cutoff or order; ``p * c`` for an exact scalar ``c``,
on the right only (``c * p`` is a ``TypeError``); ``exp``; ``TSeries.log``;
and ``repr``.  The two kinds never mix: ``+`` and ``*`` between them are a
``TypeError`` and ``==`` is false.  Terms are read through
``BivariatePoly.items`` and ``s_cutoff``, coefficients through ``TSeries[m]``
and ``order``.

All coefficients of the two carriers are exact ``fractions.Fraction``
values; no floating point enters this module.  The recurrences themselves,
``_exp_rows`` and ``_log``, use only ring operations and division by an
integer, so they run over any exact ring.  Values are immutable after
construction and every operation returns a fresh object, so instances are
safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = ["BivariatePoly", "TSeries"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _add_product(acc, r1, r2) -> None:
    """acc += r1 * r2, for rows that map a y-degree to a coefficient."""
    for j1, c1 in r1.items():
        for j2, c2 in r2.items():
            j = j1 + j2
            acc[j] = acc.get(j, 0) + c1 * c2


def _exp_rows(rows: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Rows h_0..h_N of H = exp(E), from the rows e_0..e_N of E.

    Row i maps a y-degree to the coefficient of s^i y^j; e_0 must be empty.
    From H' = E'H: i h_i = sum_{k=1..i} (k e_k) h_{i-k}, with h_0 = 1.
    """
    scaled = [{j: k * c for j, c in row.items()} for k, row in enumerate(rows)]
    h: list[dict[int, Fraction]] = [{0: Fraction(1)}]
    for i in range(1, len(rows)):
        acc: dict[int, Fraction] = {}
        for k in range(1, i + 1):
            _add_product(acc, scaled[k], h[i - k])
        h.append({j: c / i for j, c in acc.items() if c})
    return h


def _log(g: list) -> list:
    """c_0..c_N of C = log(G), from g_0..g_N with g_0 = 1, by the
    recurrence c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}."""
    c = [Fraction(0)]
    scaled = [Fraction(0)]  # k c_k
    for m in range(1, len(g)):
        acc = Fraction(0)
        for k in range(1, m):
            if scaled[k] and g[m - k]:
                acc += scaled[k] * g[m - k]
        c.append(g[m] - acc / m)
        scaled.append(m * c[m])
    return c


class _Rows:
    """Rows 0..N, each mapping a y-degree to a nonzero coefficient.

    Binary operations pair rows by index, truncate to the shorter operand and
    accept only an operand of exactly the same type (or, for ``*``, an exact
    scalar on the right).
    """

    __slots__ = ("_rows",)

    @classmethod
    def _from_rows(cls, rows: list[dict[int, Fraction]]):
        """Wrap rows that hold no zero coefficient, without copying them."""
        p = cls.__new__(cls)
        p._rows = rows
        return p

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._rows == other._rows

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        rows = [dict(row) for row in self._rows[: len(other._rows)]]
        for acc, row in zip(rows, other._rows):
            for j, c in row.items():
                acc[j] = acc.get(j, 0) + c
        return self._from_rows([{j: c for j, c in r.items() if c} for r in rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            rows = [{j: other * c for j, c in row.items()} for row in self._rows]
        elif type(other) is type(self):
            n = min(len(self._rows), len(other._rows))
            rows = [{} for _ in range(n)]
            for i1, r1 in enumerate(self._rows[:n]):
                for i2, r2 in enumerate(other._rows[: n - i1]):
                    _add_product(rows[i1 + i2], r1, r2)
        else:
            return NotImplemented
        return self._from_rows([{j: c for j, c in r.items() if c} for r in rows])

    def _exp(self, error: str):
        """exp by ``_exp_rows``; row 0 must be empty, else ValueError(error)."""
        if self._rows[0]:
            raise ValueError(error)
        return self._from_rows(_exp_rows(self._rows))


class BivariatePoly(_Rows):
    """Sparse polynomial in (s, y), truncated above a fixed s-degree.

    Row i maps a y-degree j to the nonzero coefficient of s^i y^j, for
    i = 0..s_cutoff.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int], s_cutoff: int):
        if s_cutoff < 0:
            raise ValueError("s_cutoff must be nonnegative")
        rows: list[dict[int, Fraction]] = [{} for _ in range(s_cutoff + 1)]
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            coeff = _as_fraction(c)
            if coeff and i <= s_cutoff:
                rows[i][j] = coeff
        self._rows = rows

    @property
    def s_cutoff(self) -> int:
        return len(self._rows) - 1

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return (((i, j), c) for i, row in enumerate(self._rows) for j, c in row.items())

    def exp(self) -> BivariatePoly:
        """Graded exponential sum_{k} self^k / k!, truncated at the s-cutoff.

        Requires every term to have s-degree >= 1 (in particular no constant
        term), which makes each coefficient of the result a finite sum: the
        k-th power only reaches s-degrees >= k.
        """
        return self._exp("exponential not graded-finite")

    def __repr__(self) -> str:
        return f"BivariatePoly({dict(self.items())!r}, s_cutoff={self.s_cutoff})"


class TSeries(_Rows):
    """Univariate power series in t, truncated at a fixed order.

    Row m holds the coefficient of t^m at y-degree 0.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Fraction | int]):
        rows = [{0: c} if c else {} for c in map(_as_fraction, coeffs)]
        if not rows:
            raise ValueError("a truncated series needs at least the constant term")
        self._rows = rows

    @property
    def order(self) -> int:
        return len(self._rows) - 1

    def __getitem__(self, degree: int) -> Fraction:
        if not 0 <= degree <= self.order:
            raise IndexError(f"degree {degree} outside 0..{self.order}")
        return self._rows[degree].get(0, Fraction(0))

    def log(self) -> TSeries:
        """sum_{k>=1} (-1)^(k+1) (self - 1)^k / k, truncated at the order.

        Left inverse of :meth:`exp` on truncated series, by ``_log``.
        """
        g = [self[m] for m in range(len(self._rows))]
        if g[0] != 1:
            raise ValueError("log requires unit constant term")
        return TSeries(_log(g))

    def exp(self) -> TSeries:
        """sum_{k>=0} self^k / k!, truncated; requires zero constant term."""
        return self._exp("exponential requires zero constant term")

    def __repr__(self) -> str:
        return f"TSeries({[self[m] for m in range(len(self._rows))]!r})"
