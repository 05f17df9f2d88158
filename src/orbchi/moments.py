"""Gaussian moments and the moment substitution y^k -> Ch_k.

The k-th moment of the standard Gaussian weight equals the number of perfect
matchings (chord diagrams) on k labeled points: (k-1)!! for even k and 0 for
odd k.  That identity lets the whole computation stay in exact integer
arithmetic; no integral is ever evaluated numerically here.

The pipeline steps around this module:

1. the exponent E       -- the vertex generating polynomial -q_n s^(n-2) y^n,
   one term a_k s^k y^(k+2) per admissible valence n = k + 2 >= 3, in
   variables (s, y) with s^2 = t; ``vertex_count_sum`` reads its a_k
   from the species, and ``build_exponent`` builds it as a polynomial;
2. ``vertex_count_sum`` -- its graded exponential (disjoint unions of
   vertices) with each y^j replaced by Ch_j, pairing up half-edges into
   edges, which collapses it to a univariate series in t.  As E = y^2 A(sy)
   with A(x) = sum_k a_k x^k, the part of exp(E) with v vertices is
   y^(2v) A(sy)^v / v!, so the sum runs over v, one column A^v / v! at a
   time, made from the last by one product with A and substituted as soon
   as it is made.  Two columns of at most s_cutoff + 1 coefficients are the
   step's whole memory;
3. ``TSeries.log`` -- keep the connected graphs, in ``series``, by the
   recurrence c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.

``BivariatePoly.exp`` (the s-row recurrence i h_i = sum_{k=1..i} (k e_k)
h_{i-k} that follows from H' = E'H, in ``series``) followed by
``substitute_moments`` computes step 2 for any bivariate polynomial, at the
cost of holding every s-row of exp(E); the tests keep it as the reference
route for ``vertex_count_sum``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .series import BivariatePoly, TSeries

if TYPE_CHECKING:  # pragma: no cover
    from .species import Species

__all__ = ["gaussian_moment", "build_exponent", "substitute_moments", "vertex_count_sum"]


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
    out = [Fraction(0)] * (p.s_cutoff // 2 + 1)
    for (i, j), c in p.items():  # one pass: no copy of the terms is held
        ch = gaussian_moment(j)
        if not ch:
            continue
        if i % 2:
            raise ValueError("half-integer power of t")
        out[i // 2] += c * ch
    return TSeries(out)


def vertex_count_sum(species: Species, order: int) -> TSeries:
    """All-graphs series to t^order: ``substitute_moments(E.exp())`` summed
    one vertex count at a time, for E = ``build_exponent(species, 2 * order)``.

    E holds one term a_k s^k y^(k+2) per s-degree k, with a_k = -q_(k+2)
    read from the species directly (no ``BivariatePoly`` is built).  So
    E = y^2 A(sy) with A(x) = sum_k a_k x^k, and the v-vertex part of
    exp(E) is y^(2v) P_v(sy) with P_v = A^v / v!: its s^i term sits at
    y-degree i + 2v and adds Ch_(i+2v) P_v[i] to t^(i/2).  Each column
    comes from the last, P_v[i] = (1/v) sum_k a_k P_(v-1)[i-k], so only
    two columns of at most 2 * order + 1 coefficients are ever live.  Odd
    i adds nothing (an odd moment) but stays for the later columns.
    """
    n = 2 * order
    species.check_coverage(n + 2)
    # (k, a_k) in rising k, the nonzero terms of E's s-rows
    a = [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]
    ch = [1]  # ch[m] = Ch_(2m) = (2m-1)!!, up to the top y-degree 3n
    for m in range(1, 3 * order + 1):
        ch.append((2 * m - 1) * ch[-1])
    g = [Fraction(0)] * (order + 1)
    v, col = 0, {0: Fraction(1)}  # P_0 = 1; a column maps s-degree to coefficient
    while col:  # P_v is empty once v > n, or at once when E = 0
        for i, c in col.items():
            if not i % 2:
                g[i // 2] += ch[i // 2 + v] * c
        v += 1
        acc: dict[int, Fraction] = {}
        for j, c in col.items():
            for k, ak in a:
                if j + k > n:
                    break
                acc[j + k] = acc.get(j + k, 0) + ak * c
        col = {i: c / v for i, c in acc.items() if c}
    return TSeries(g)
