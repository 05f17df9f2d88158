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
from fractions import Fraction
from typing import NamedTuple

from .bernoulli import bernoulli_numbers
from .species import UsageError

__all__ = ["AsymptoticResidual", "check_commutative_asymptotics"]


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
    sum of B_{2n}/(2n(2n-1)) t^{2n-1}, accumulated in exact rationals (the
    float t converts exactly) and rounded once.

    The first omitted term has magnitude |B_{2K+2}/((2K+2)(2K+1))| t^{2K+1};
    the check passes when the residual is within 10x of it.  Below
    t = 1e-6 the float left side carries no information (it is exactly 0 at
    1e-7 and nan at 5e-324), so such a t is refused.
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
    bern = bernoulli_numbers(2 * terms + 2)
    rhs = float(sum(bern[2 * n] / (2 * n * (2 * n - 1)) * Fraction(t) ** (2 * n - 1)
                    for n in range(1, terms + 1)))
    bound = abs(float(bern[-1] / ((2 * terms + 2) * (2 * terms + 1)))) * t ** (2 * terms + 1)
    return AsymptoticResidual(t, terms, lhs, rhs, abs(lhs - rhs), bound)
