"""Unit tests for Bernoulli numbers and the closed-form comparison."""

from fractions import Fraction as F

import pytest

from orbchi.bernoulli import bernoulli_numbers, verify_bernoulli
from orbchi.euler import euler_characteristic
from orbchi.species import builtin_species

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
