"""The Stirling series and its two checks: exact closed form and log-gamma.

Convention: B_1 = -1/2, i.e. {B_1, B_2, B_3, B_4, ...} = {-1/2, 1/6, 0, -1/30,
...}, fixed by the recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 with B_0 = 1.

Under that convention the connected commutative (and associative) Euler
characteristic at n loops is the Stirling coefficient s_n = B_n / (n(n-1)),
zero for odd n >= 3, and the function (1/t)(1 + log t) - (1/2)log(2*pi*t)
+ lgamma(1/t) has Sum_{n>=2} s_n t^(n-1) as its asymptotic expansion at
t -> 0.  ``verify_bernoulli`` checks a computed table against s_n entry by
entry.  ``check_commutative_asymptotics`` checks that truncating the series
leaves a residual on the scale of the first omitted term; that is the whole
content of being an asymptotic series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .species import UsageError

__all__ = ["bernoulli_numbers", "BernoulliCheck", "verify_bernoulli",
           "AsymptoticResidual", "check_commutative_asymptotics"]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max, exact, via the binomial recurrence."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        # C(n+1, n) B_n = -sum_{k<n} C(n+1, k) B_k
        acc = sum(math.comb(n + 1, k) * values[k] for k in range(n))
        values.append(Fraction(-acc, n + 1))
    return values


def _stirling(n_max: int) -> dict[int, Fraction]:
    """The Stirling coefficients s_2..s_n_max, keyed by n."""
    return {n: b / (n * (n - 1)) for n, b in enumerate(bernoulli_numbers(n_max)) if n >= 2}


class BernoulliCheck(NamedTuple):
    """One entry of the closed-form comparison report."""

    loops: int
    value: Fraction
    expected: Fraction

    @property
    def ok(self) -> bool:
        return self.value == self.expected


def verify_bernoulli(table) -> list[BernoulliCheck]:
    """Compare a connected-graph table (an ``euler.EulerTable``) against
    the closed form s_n.

    Meaningful for the commutative and associative species, where equality
    is exact at every loop order; other species are expected to fail.
    """
    expected = _stirling(max(table.entries))
    return [BernoulliCheck(n, value, expected[n]) for n, value in table.entries.items()]


class AsymptoticResidual(NamedTuple):
    """Outcome of one truncation check at a single point t."""

    t: float
    terms_used: int
    lhs: float
    rhs: float
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        # factor 10 absorbs the unknown constant in the error term
        return self.residual <= 10.0 * self.bound


def check_commutative_asymptotics(t: float, terms: int) -> AsymptoticResidual:
    """Compare log((e t)^(1/t) Gamma(1/t) / sqrt(2 pi t)) with the K-term
    sum of s_(2n) t^(2n-1), accumulated in exact rationals (the float t
    converts exactly) and rounded once.

    The first omitted term has magnitude |s_(2K+2)| t^(2K+1); the check
    passes when the residual is within 10x of it.  Below t = 1e-6 the float
    left side carries no information (it is exactly 0 at 1e-7 and nan at
    5e-324), so such a t is refused.
    """
    if not 0.0 < t <= 0.2:
        raise UsageError("t must lie in (0, 1/5]")
    if t < 1e-6:  # at 1e-6 the left side is still within 0.6% of t/12
        raise UsageError("t must be at least 1e-6: below it the float "
                         "log-gamma expression carries no information")
    if not 1 <= terms <= 5:
        raise UsageError("terms must lie in 1..5")
    lhs = (1.0 / t) * (1.0 + math.log(t)) - 0.5 * math.log(2.0 * math.pi * t) \
        + math.lgamma(1.0 / t)
    s = _stirling(2 * terms + 2)
    rhs = float(sum(s[n] * Fraction(t) ** (n - 1) for n in range(2, 2 * terms + 1, 2)))
    bound = abs(float(s[2 * terms + 2])) * t ** (2 * terms + 1)
    return AsymptoticResidual(t, terms, lhs, rhs, abs(lhs - rhs), bound)
