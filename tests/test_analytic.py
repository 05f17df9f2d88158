"""Unit tests for the log-gamma asymptotics check."""

import math

import pytest

from orbchi.analytic import (
    check_commutative_asymptotics,
    gamma_expression,
    stirling_partial_sum,
)
from orbchi.species import UsageError


class TestGammaExpression:
    def test_at_one_half(self):
        # Gamma(2) = 1, so the value is 2(1 + log(1/2)) - log(pi)/2;
        # frozen from a 50-digit evaluation
        assert gamma_expression(0.5) == pytest.approx(
            0.041340695955409294, rel=1e-12, abs=1e-15
        )

    def test_at_one_tenth(self):
        # frozen from a 50-digit evaluation
        assert gamma_expression(0.1) == pytest.approx(
            0.0083305634333628713, rel=1e-12, abs=1e-15
        )

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            gamma_expression(t)

    def test_matches_factorial_evaluation(self):
        # Gamma(k) = (k-1)! pins the value at t = 1/k
        for k in range(2, 16):
            t = 1.0 / k
            direct = (k * (1.0 + math.log(t))
                      - 0.5 * math.log(2.0 * math.pi * t)
                      + math.log(math.factorial(k - 1)))
            assert gamma_expression(t) == pytest.approx(direct, rel=1e-10)


class TestStirlingPartialSum:
    def test_one_term(self):
        assert stirling_partial_sum(0.1, 1) == pytest.approx(1 / 120, rel=1e-15)

    def test_two_terms(self):
        expected = 1 / 120 - (1 / 360) * 0.1 ** 3
        assert stirling_partial_sum(0.1, 2) == pytest.approx(expected, rel=1e-14)

    def test_zero_point(self):
        for terms in (1, 3, 5):
            assert stirling_partial_sum(0.0, terms) == 0.0

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            stirling_partial_sum(0.1, 0)


class TestAsymptoticsCheck:
    def test_passes_at_tenth_three_terms(self):
        r = check_commutative_asymptotics(0.1, 3)
        assert r.passed
        assert r.residual == abs(r.lhs - r.rhs)
        assert r.residual < 1e-9  # |B_8/56| t^7 scale

    def test_passes_at_fifth_one_term(self):
        r = check_commutative_asymptotics(0.2, 1)
        assert r.passed
        assert r.residual <= 10 * (1 / 360) * 0.2 ** 3

    def test_negative_control(self):
        # a 1e-6 offset is far outside the next-term bound at t = 1/10
        r = check_commutative_asymptotics(0.1, 3)
        perturbed = type(r)(r.t, r.terms_used, r.lhs, r.rhs + 1e-6,
                            abs(r.lhs - (r.rhs + 1e-6)), r.bound)
        assert not perturbed.passed

    def test_domain(self):
        with pytest.raises(UsageError, match=r"t must lie in \(0, 1/5\]"):
            check_commutative_asymptotics(0.3, 2)
        with pytest.raises(UsageError, match="terms must lie in 1..5"):
            check_commutative_asymptotics(0.1, 6)
        with pytest.raises(UsageError, match="terms must lie in 1..5"):
            check_commutative_asymptotics(0.1, 0)

    def test_normalized_residual_stays_bounded(self):
        # defining property of an asymptotic expansion: residual/t^(2K+1)
        # does not blow up as t decreases
        for terms in (1, 2, 3):
            ratios = [
                check_commutative_asymptotics(t, terms).residual / t ** (2 * terms + 1)
                for t in (0.1, 0.05, 0.025)
            ]
            assert max(ratios) <= 100 * max(ratios[0], 1e-300)
