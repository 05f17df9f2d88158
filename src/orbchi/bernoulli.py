"""Exact Bernoulli numbers and the closed-form Euler characteristic check.

Convention: B_1 = -1/2, i.e. {B_1, B_2, B_3, B_4, ...} = {-1/2, 1/6, 0, -1/30,
...}, fixed by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 with B_0 = 1.

Under that convention the connected commutative (and associative) Euler
characteristic at n loops equals B_n / (n(n-1)) -- the coefficients of the
Stirling correction series for log Gamma.  ``verify_bernoulli`` checks a
computed table against this closed form entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .euler import EulerTable

__all__ = ["bernoulli_numbers", "BernoulliCheck", "verify_bernoulli"]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max, exact, via the binomial recurrence."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        # C(n+1, n) B_n = -sum_{k<n} C(n+1, k) B_k
        acc = sum(comb(n + 1, k) * values[k] for k in range(n))
        values.append(Fraction(-acc, n + 1))
    return values


@dataclass(frozen=True)
class BernoulliCheck:
    """One entry of the closed-form comparison report."""

    loops: int
    value: Fraction
    expected: Fraction

    @property
    def ok(self) -> bool:
        return self.value == self.expected


def verify_bernoulli(table: EulerTable) -> list[BernoulliCheck]:
    """Compare a connected-graph table against the Bernoulli closed form.

    The expected entry at n loops is B_n / (n(n-1)) for even n and zero
    for odd n.  Meaningful for the commutative and associative species,
    where equality is exact at every loop order; other species are
    expected to fail.
    """
    bern = bernoulli_numbers(table.max_loops)
    return [
        BernoulliCheck(n, table.entries[n],
                       bern[n] / (n * (n - 1)) if n % 2 == 0 else Fraction(0))
        for n in range(2, table.max_loops + 1)
    ]
