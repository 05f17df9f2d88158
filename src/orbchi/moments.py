"""Gaussian moments and the moment substitution y^k -> Ch_k.

The k-th moment of the standard Gaussian weight equals the number of perfect
matchings (chord diagrams) on k labeled points: (k-1)!! for even k and 0 for
odd k.  That identity turns every Gaussian integral of the pipeline into an
exact integer, so the computation stays in exact rational arithmetic; no
integral is ever evaluated numerically here.

``substitute_moments`` applies the identity to a ``BivariatePoly``: with
``BivariatePoly.exp`` it is the reference route for the pipeline's sum over
vertex counts, ``euler.all_graphs_series``.
"""

from __future__ import annotations

from fractions import Fraction

from .series import BivariatePoly, TSeries

__all__ = ["gaussian_moment", "substitute_moments"]


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
