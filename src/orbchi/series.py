"""Exact truncated series arithmetic over the rationals.

Two carriers cover everything the Euler-characteristic pipeline needs:

``BivariatePoly``
    a polynomial in the formal variables ``s`` and ``y``, stored sparsely as a
    map from exponent pairs ``(s_degree, y_degree)`` to ``Fraction``, truncated
    at a fixed maximum ``s``-degree.  The ``y``-degree is never truncated; all
    inputs produced by the pipeline keep it finitely bounded per ``s``-degree.

``TSeries``
    a truncated univariate power series in ``t`` with rational coefficients,
    stored densely as a coefficient tuple of length ``order + 1``.

Both exponentials and the logarithm use the derivative recurrences of
power-series algebra (Knuth, TAOCP vol. 2, sec. 4.7; Flajolet and Sedgewick,
*Analytic Combinatorics*, ch. II), not power sums:

* H = exp(E) satisfies H' = E'H in s, so its s-rows obey
  i h_i = sum_{k=1..i} (k e_k) h_{i-k}; ``_exp_rows`` runs this for both
  ``BivariatePoly.exp`` and ``TSeries.exp``;
* C = log(G) satisfies G C' = G', so
  c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.

Each costs O(N^2) row products for N rows.

The operations are ``==``; ``+`` and ``*`` of two carriers of one kind,
truncated to the smaller cutoff or order; ``p * c`` for an exact scalar ``c``,
on the right only (``c * p`` is a ``TypeError``); ``exp``; ``TSeries.log``;
and ``repr``.  Terms are read through ``BivariatePoly.items`` and
``s_cutoff``, coefficients through ``TSeries[m]`` and ``order``.

All coefficients are exact ``fractions.Fraction`` values; no floating point
enters this module.  Values are immutable after construction and every
operation returns a fresh object, so instances are safe to share.
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
            prev = h[i - k]
            for j1, c1 in scaled[k].items():
                for j2, c2 in prev.items():
                    j = j1 + j2
                    acc[j] = acc.get(j, 0) + c1 * c2
        h.append({j: c / i for j, c in acc.items() if c})
    return h


class BivariatePoly:
    """Sparse polynomial in (s, y), truncated above a fixed s-degree.

    Zero coefficients are never stored, and no stored term exceeds the
    ``s_cutoff``.  Binary operations truncate to the smaller cutoff of the
    two operands.
    """

    __slots__ = ("_terms", "_s_cutoff")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction | int], s_cutoff: int):
        if s_cutoff < 0:
            raise ValueError("s_cutoff must be nonnegative")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            coeff = _as_fraction(c)
            if coeff and i <= s_cutoff:
                clean[(i, j)] = coeff
        self._terms = clean
        self._s_cutoff = s_cutoff

    @property
    def s_cutoff(self) -> int:
        return self._s_cutoff

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._s_cutoff == other._s_cutoff and self._terms == other._terms

    def __add__(self, other) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        cutoff = min(self._s_cutoff, other._s_cutoff)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivariatePoly(out, cutoff)

    def __mul__(self, other) -> BivariatePoly:
        if isinstance(other, (int, Fraction)):
            return BivariatePoly({k: other * v for k, v in self._terms.items()}, self._s_cutoff)
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        cutoff = min(self._s_cutoff, other._s_cutoff)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            if i1 > cutoff:
                continue
            for (i2, j2), c2 in other._terms.items():
                i = i1 + i2
                if i > cutoff:
                    continue
                key = (i, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivariatePoly(out, cutoff)

    def exp(self) -> BivariatePoly:
        """Graded exponential sum_{k} self^k / k!, truncated at the s-cutoff.

        Requires every term to have s-degree >= 1 (in particular no constant
        term), which makes each coefficient of the result a finite sum: the
        k-th power only reaches s-degrees >= k.  Computed row by row in s
        with the recurrence i h_i = sum_k (k e_k) h_{i-k} (``_exp_rows``).
        """
        if any(i == 0 for (i, _) in self._terms):
            raise ValueError("exponential not graded-finite")
        rows: list[dict[int, Fraction]] = [{} for _ in range(self._s_cutoff + 1)]
        for (i, j), c in self._terms.items():
            rows[i][j] = c
        h = _exp_rows(rows)
        return BivariatePoly(
            {(i, j): c for i, row in enumerate(h) for j, c in row.items()},
            self._s_cutoff,
        )

    def __repr__(self) -> str:
        return f"BivariatePoly({self._terms!r}, s_cutoff={self._s_cutoff})"


class TSeries:
    """Univariate power series in t, truncated at a fixed order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = tuple(_as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        self._coeffs = cs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def __getitem__(self, degree: int) -> Fraction:
        if not 0 <= degree <= self.order:
            raise IndexError(f"degree {degree} outside 0..{self.order}")
        return self._coeffs[degree]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other) -> TSeries:
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(tuple(self._coeffs[m] + other._coeffs[m] for m in range(n + 1)))

    def __mul__(self, other) -> TSeries:
        if isinstance(other, (int, Fraction)):
            return TSeries(tuple(other * v for v in self._coeffs))
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for p, a in enumerate(self._coeffs[: n + 1]):
            if not a:
                continue
            for q in range(n + 1 - p):
                b = other._coeffs[q]
                if b:
                    out[p + q] += a * b
        return TSeries(out)

    def log(self) -> TSeries:
        """sum_{k>=1} (-1)^(k+1) (self - 1)^k / k, truncated at the order.

        Left inverse of :meth:`exp` on truncated series.  Computed by the
        recurrence c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.
        """
        g = self._coeffs
        if g[0] != 1:
            raise ValueError("log requires unit constant term")
        c = [Fraction(0)]
        scaled = [Fraction(0)]  # k c_k
        for m in range(1, len(g)):
            acc = Fraction(0)
            for k in range(1, m):
                if scaled[k] and g[m - k]:
                    acc += scaled[k] * g[m - k]
            c.append(g[m] - acc / m)
            scaled.append(m * c[m])
        return TSeries(c)

    def exp(self) -> TSeries:
        """sum_{k>=0} self^k / k!, truncated; requires zero constant term.

        Computed by the same recurrence as :meth:`BivariatePoly.exp`, on
        y-degree-0 rows.
        """
        if self._coeffs[0] != 0:
            raise ValueError("exponential requires zero constant term")
        h = _exp_rows([{0: c} if c else {} for c in self._coeffs])
        return TSeries(row.get(0, Fraction(0)) for row in h)

    def __repr__(self) -> str:
        return f"TSeries({list(self._coeffs)!r})"
