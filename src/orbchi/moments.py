"""Gaussian moments and the moment substitution y^k -> Ch_k.

The k-th moment of the standard Gaussian weight equals the number of perfect
matchings (chord diagrams) on k labeled points: (k-1)!! for even k and 0 for
odd k.  That identity lets the whole computation stay in exact integer
arithmetic; no integral is ever evaluated numerically here.

The pipeline steps around this module:

1. ``build_exponent``   -- the vertex generating polynomial -q_n s^(n-2) y^n,
   one term per admissible valence n >= 3, in variables (s, y) with s^2 = t;
2. ``BivariatePoly.exp`` -- its graded exponential (disjoint unions of
   vertices), in ``series``, by the s-row recurrence
   i h_i = sum_{k=1..i} (k e_k) h_{i-k} that follows from H' = E'H;
3. ``substitute_moments`` -- replace each y^k by Ch_k, pairing up half-edges
   into edges, which collapses the result to a univariate series in t.  It
   streams over the rows of exp once, growing the Ch table as larger
   y-degrees appear and holding no copy of the terms, so those rows are the
   pipeline's peak memory;
4. ``TSeries.log`` -- keep the connected graphs, in ``series``, by the
   recurrence c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .series import BivariatePoly, TSeries

if TYPE_CHECKING:  # pragma: no cover
    from .species import Species

__all__ = ["gaussian_moment", "build_exponent", "substitute_moments"]


def gaussian_moment(k: int) -> int:
    """Number of perfect matchings on k points: (k-1)!! for even k, 0 for odd."""
    if k < 0:
        raise ValueError("moment index must be nonnegative")
    if k % 2:
        return 0
    out = 1
    for odd in range(1, k, 2):
        out *= odd
    return out


def build_exponent(species: Species, s_cutoff: int) -> BivariatePoly:
    """Exponent polynomial -sum_{n>=3} q_n s^(n-2) y^n, truncated at s_cutoff.

    A vertex of valence n carries s-degree n-2, so valences up to
    s_cutoff + 2 can contribute; the species must cover that range.
    """
    species.check_coverage(s_cutoff + 2)
    terms: dict[tuple[int, int], Fraction] = {}
    for n in range(3, s_cutoff + 3):
        q = species.q(n)
        if q:
            terms[(n - 2, n)] = -q
    return BivariatePoly(terms, s_cutoff)


def substitute_moments(p: BivariatePoly) -> TSeries:
    """Replace y^j by Ch_j and read s^(2m) as t^m.

    Every surviving term must sit in even s-degree (pipeline inputs pair the
    parities of s and y, and odd moments vanish); a nonzero term at odd
    s-degree would be a half-integer power of t and is a hard error.
    """
    if p.s_cutoff % 2:
        raise ValueError("moment substitution needs an even s_cutoff")
    ch = [1, 0]  # Ch_j = (j-1) Ch_{j-2}, grown as larger y-degrees appear
    out = [Fraction(0)] * (p.s_cutoff // 2 + 1)
    for (i, j), c in p.items():  # one pass: no copy of the terms is held
        while len(ch) <= j:
            ch.append((len(ch) - 1) * ch[-2])
        if not ch[j]:
            continue
        if i % 2:
            raise ValueError("half-integer power of t")
        out[i // 2] += c * ch[j]
    return TSeries(out)
