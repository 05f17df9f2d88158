"""Unit tests for the Stirling series: Bernoulli numbers, the closed-form
comparison and the log-gamma asymptotics check."""

import math
from fractions import Fraction as F

import pytest

from orbchi.analytic import bernoulli_numbers, check_commutative_asymptotics, verify_bernoulli
from orbchi.euler import euler_characteristic
from orbchi.species import UsageError, builtin_species

# B_0..B_12 under the B_1 = -1/2 convention
KNOWN = [
    F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
    F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
]


class TestBernoulliNumbers:
    def test_known_values(self):
        assert bernoulli_numbers(12) == KNOWN

    def test_single_lookup(self):
        assert bernoulli_numbers(1)[1] == F(-1, 2)
        assert bernoulli_numbers(22)[22] == F(854513, 138)

    def test_odd_vanish_beyond_one(self):
        values = bernoulli_numbers(21)
        assert all(values[n] == 0 for n in range(3, 22, 2))

    def test_defining_recurrence(self):
        values = bernoulli_numbers(16)
        from math import comb

        for n in range(1, 16):
            assert sum(comb(n + 1, k) * values[k] for k in range(n + 1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)


class TestClosedFormTable:
    def test_small_values(self):
        # the expected column depends on the loop order only, not the species
        checks = verify_bernoulli(euler_characteristic(builtin_species("lie"), 6))
        assert {c.loops: c.expected for c in checks} == {
            2: F(1, 12),   # B_2 / 2
            3: F(0),
            4: F(-1, 360),  # B_4 / 12
            5: F(0),
            6: F(1, 1260),  # B_6 / 30
        }


class TestVerifyBernoulli:
    @pytest.mark.parametrize("name", ["commutative", "associative"])
    def test_matches_pipeline(self, name):
        table = euler_characteristic(builtin_species(name), 11)
        checks = verify_bernoulli(table)
        assert [c.loops for c in checks] == list(range(2, 12))
        assert all(c.ok for c in checks)

    def test_detects_mismatch(self):
        # the chord table is not the Bernoulli closed form
        table = euler_characteristic(builtin_species("chord"), 4)
        checks = verify_bernoulli(table)
        assert not all(c.ok for c in checks)
        bad = next(c for c in checks if not c.ok)
        assert bad.value != bad.expected


class TestGammaExpression:
    """The check's lhs: log of (e t)^(1/t) Gamma(1/t) / sqrt(2 pi t)."""

    def test_at_one_tenth(self):
        # frozen from a 50-digit evaluation
        assert check_commutative_asymptotics(0.1, 3).lhs == pytest.approx(
            0.0083305634333628713, rel=1e-12, abs=1e-15
        )

    def test_matches_factorial_evaluation(self):
        # Gamma(k) = (k-1)! pins the value at t = 1/k
        for k in range(5, 16):
            t = 1.0 / k
            direct = (k * (1.0 + math.log(t))
                      - 0.5 * math.log(2.0 * math.pi * t)
                      + math.log(math.factorial(k - 1)))
            assert check_commutative_asymptotics(t, 1).lhs == pytest.approx(direct, rel=1e-10)


class TestStirlingPartialSum:
    """The check's rhs: Sum B_{2n}/(2n(2n-1)) t^{2n-1} for n = 1..K."""

    def test_one_term(self):
        assert check_commutative_asymptotics(0.1, 1).rhs == pytest.approx(1 / 120, rel=1e-15)

    def test_two_terms(self):
        expected = 1 / 120 - (1 / 360) * 0.1 ** 3
        assert check_commutative_asymptotics(0.1, 2).rhs == pytest.approx(expected, rel=1e-14)


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the float residual carries "
                       "~1e-14 rounding, compared with next-term bounds down to ~1e-36")
    @pytest.mark.parametrize("t, terms", [
        (0.05, 5), (0.01, 3), (0.01, 5), (0.001, 3), (0.001, 5),
    ])
    def test_known_faults(self, t, terms):
        # accepted inputs that fail today; the fix must flip these pins
        assert check_commutative_asymptotics(t, terms).passed

    def test_normalized_residual_stays_bounded(self):
        # defining property of an asymptotic expansion: residual/t^(2K+1)
        # does not blow up as t decreases
        for terms in (1, 2, 3):
            ratios = [
                check_commutative_asymptotics(t, terms).residual / t ** (2 * terms + 1)
                for t in (0.1, 0.05, 0.025)
            ]
            assert max(ratios) <= 100 * max(ratios[0], 1e-300)
