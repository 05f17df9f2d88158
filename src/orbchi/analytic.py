"""Floating-point check of the commutative series against log-gamma.

The connected commutative coefficients are the Stirling correction
series: the function (1/t)(1 + log t) - (1/2)log(2*pi*t) + lgamma(1/t)
has Sum B_{2n}/(2n(2n-1)) t^{2n-1} as its asymptotic expansion at t -> 0.
Truncating after K terms must leave a residual on the scale of the first
omitted term; that is the whole content of being an asymptotic series,
and it is what ``check_commutative_asymptotics`` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import bernoulli_numbers
from .species import UsageError

__all__ = ["AsymptoticResidual", "gamma_expression", "stirling_partial_sum",
           "check_commutative_asymptotics"]


@dataclass(frozen=True)
class AsymptoticResidual:
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


def gamma_expression(t: float) -> float:
    """log of (e t)^(1/t) Gamma(1/t) / sqrt(2 pi t), for 0 < t < 1."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    return (1.0 / t) * (1.0 + math.log(t)) - 0.5 * math.log(2.0 * math.pi * t) \
        + math.lgamma(1.0 / t)


def stirling_partial_sum(t: float, terms: int) -> float:
    """Sum of B_{2n}/(2n(2n-1)) t^{2n-1} for n = 1..terms.

    Accumulated in exact rationals (the float t converts exactly) and
    rounded only on return.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    bern = bernoulli_numbers(2 * terms)
    tq = Fraction(t)
    total = Fraction(0)
    for n in range(1, terms + 1):
        total += bern[2 * n] / (2 * n * (2 * n - 1)) * tq ** (2 * n - 1)
    return float(total)


def check_commutative_asymptotics(t: float, terms: int) -> AsymptoticResidual:
    """Compare gamma_expression(t) with the K-term partial sum.

    The first omitted term has magnitude |B_{2K+2}/((2K+2)(2K+1))| t^{2K+1};
    the check passes when the residual is within 10x of it.
    """
    if not 0.0 < t <= 0.2:
        raise UsageError("t must lie in (0, 1/5]")
    if not 1 <= terms <= 5:
        raise UsageError("terms must lie in 1..5")
    lhs = gamma_expression(t)
    rhs = stirling_partial_sum(t, terms)
    next_coeff = bernoulli_numbers(2 * terms + 2)[-1] / ((2 * terms + 2) * (2 * terms + 1))
    bound = abs(float(next_coeff)) * t ** (2 * terms + 1)
    return AsymptoticResidual(t, terms, lhs, rhs, abs(lhs - rhs), bound)
