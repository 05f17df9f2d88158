"""Unit tests for bivariate polynomials and t-series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from orbchi.series import BivariatePoly, TSeries


def bp(terms, cutoff):
    return BivariatePoly(terms, cutoff)


class TestBivariatePolyBasics:
    def test_zero_coefficients_dropped(self):
        p = bp({(1, 1): 0, (2, 2): F(1, 2)}, 4)
        assert dict(p.items()) == {(2, 2): F(1, 2)}

    def test_terms_above_cutoff_dropped(self):
        p = bp({(5, 1): 7, (1, 1): 1}, 3)
        assert dict(p.items()) == {(1, 1): F(1)}

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            bp({}, -1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            bp({(-1, 2): 1}, 3)

    def test_repr_round_trips(self):
        p = bp({(2, 0): 3, (1, 1): F(1, 2)}, 3)
        text = "BivariatePoly({(1, 1): Fraction(1, 2), (2, 0): Fraction(3, 1)}, s_cutoff=3)"
        assert repr(p) == text
        assert eval(text, {"BivariatePoly": BivariatePoly, "Fraction": F}) == p


class TestBivariatePolyArithmetic:
    def test_mul_simple(self):
        sy = bp({(1, 1): 1}, 2)
        assert dict((sy * sy).items()) == {(2, 2): F(1)}

    def test_mul_truncates(self):
        sy = bp({(1, 1): 1}, 1)
        assert dict((sy * sy).items()) == {}

    def test_difference_of_squares(self):
        a = bp({(0, 0): 1, (1, 3): 1}, 2)
        b = bp({(0, 0): 1, (1, 3): -1}, 2)
        assert dict((a * b).items()) == {(0, 0): F(1), (2, 6): F(-1)}

    def test_one_is_identity(self):
        p = bp({(1, 3): F(-1, 6), (2, 4): F(-1, 24)}, 2)
        assert bp({(0, 0): 1}, 2) * p == p

    def test_mul_mixed_cutoffs_takes_min(self):
        a = bp({(2, 0): 1}, 4)
        b = bp({(1, 0): 1}, 2)
        assert (a * b).s_cutoff == 2
        assert dict((a * b).items()) == {}

    def test_add_mixed_cutoffs_takes_min(self):
        a = bp({(1, 1): 1, (3, 1): 2, (4, 0): 5}, 4)
        b = bp({(1, 1): F(1, 2), (2, 0): -1}, 2)
        for total in (a + b, b + a):
            assert total.s_cutoff == 2
            assert dict(total.items()) == {(1, 1): F(3, 2), (2, 0): F(-1)}

    def test_add_sub_scale(self):
        p = bp({(1, 1): F(1, 2)}, 3)
        q = bp({(1, 1): F(-1, 2), (2, 2): 1}, 3)
        assert (p + p) == bp({(1, 1): 1}, 3)
        assert p + q == bp({(2, 2): 1}, 3)
        assert dict((p * F(4)).items()) == {(1, 1): F(2)}

    def test_kinds_do_not_mix(self):
        p, g = bp({(0, 0): 1, (1, 0): 1}, 1), TSeries([1, 1])
        for a, b in ((p, g), (g, p)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a * b
            assert not a == b
            assert a != b

    @pytest.mark.parametrize("scalar", [2, F(2)])
    def test_scalar_multiplies_on_the_right_only(self, scalar):
        for carrier in (bp({(1, 1): 1}, 3), TSeries([1, 1])):
            with pytest.raises(TypeError):
                scalar * carrier

    def test_floats_rejected(self):
        # coefficients stay exact: a float is refused, not rounded into a Fraction
        with pytest.raises(TypeError, match="exact rational, got float"):
            TSeries([1, 0.5])
        with pytest.raises(TypeError, match="exact rational, got float"):
            bp({(0, 0): 0.5}, 1)
        for carrier in (bp({(1, 1): 1}, 3), TSeries([1, 1])):
            with pytest.raises(TypeError):
                carrier * 0.5


class TestGradedExp:
    def test_exp_sy(self):
        e = bp({(1, 1): 1}, 2)
        assert dict(e.exp().items()) == {(0, 0): F(1), (1, 1): F(1), (2, 2): F(1, 2)}

    def test_exp_hand_expansion(self):
        e = bp({(1, 3): F(-1, 6), (2, 4): F(-1, 24)}, 2)
        assert dict(e.exp().items()) == {
            (0, 0): F(1),
            (1, 3): F(-1, 6),
            (2, 4): F(-1, 24),
            (2, 6): F(1, 72),
        }

    def test_exp_zero(self):
        assert bp({}, 3).exp() == bp({(0, 0): 1}, 3)

    def test_exp_rejects_constant_term(self):
        e = bp({(0, 0): 1, (1, 1): 1}, 2)
        with pytest.raises(ValueError, match="exponential not graded-finite"):
            e.exp()

    def test_exp_rejects_s_degree_zero(self):
        e = bp({(0, 3): F(1, 6)}, 2)
        with pytest.raises(ValueError, match="exponential not graded-finite"):
            e.exp()


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def graded_polys(cutoff=5, max_y=6):
    pairs = st.tuples(st.integers(1, cutoff), st.integers(0, max_y))
    return st.dictionaries(pairs, small_fractions, max_size=5).map(
        lambda d: BivariatePoly(d, cutoff)
    )


def tseries(constant, max_order=11):
    tails = st.lists(small_fractions, max_size=max_order)
    return tails.map(lambda tail: TSeries([F(constant)] + tail))


# The power-sum definitions, built from * and + only; the library computes
# the same series by derivative recurrences.

def power_sum_exp(e, one, terms):
    acc = power = one
    for k in range(1, terms + 1):
        power = power * e * F(1, k)
        acc = acc + power
    return acc


def power_sum_log(g):
    u = g + TSeries([-1] + [0] * g.order)
    acc = TSeries([0] * (g.order + 1))
    power = TSeries([1] + [0] * g.order)
    for k in range(1, g.order + 1):
        power = power * u
        acc = acc + power * F((-1) ** (k + 1), k)
    return acc


class TestSeriesProperties:
    @given(st.integers(1, 8).flatmap(graded_polys))
    def test_bivariate_exp_matches_power_sum(self, e):
        assert e.exp() == power_sum_exp(e, bp({(0, 0): 1}, e.s_cutoff), e.s_cutoff)

    @given(tseries(0))
    def test_tseries_exp_matches_power_sum(self, c):
        assert c.exp() == power_sum_exp(c, TSeries([1] + [0] * c.order), c.order)

    @given(tseries(1))
    def test_tseries_log_matches_power_sum(self, g):
        assert g.log() == power_sum_log(g)

    @given(st.one_of(st.tuples(graded_polys(), graded_polys(), graded_polys()),
                     st.tuples(tseries(1), tseries(0), tseries(2))))
    def test_mul_commutative_associative(self, abc):
        a, b, c = abc
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(st.one_of(st.tuples(graded_polys(), graded_polys()),
                     st.tuples(tseries(0), tseries(0))))
    def test_exp_additivity(self, ef):
        e, f = ef
        assert (e + f).exp() == e.exp() * f.exp()

    @given(st.lists(small_fractions, min_size=1, max_size=8))
    def test_exp_log_roundtrip(self, tail):
        g = TSeries([F(1)] + tail)
        assert g.log().exp() == g

    @given(st.lists(small_fractions, min_size=1, max_size=8))
    def test_log_exp_roundtrip(self, tail):
        c = TSeries([F(0)] + tail)
        assert c.exp().log() == c


class TestTSeries:
    def test_log_one_plus_t(self):
        g = TSeries([1, 1, 0, 0])
        assert g.log() == TSeries([0, 1, F(-1, 2), F(1, 3)])

    def test_log_of_one(self):
        assert TSeries([1, 0, 0, 0]).log() == TSeries([0, 0, 0, 0])

    def test_log_inverts_exp(self):
        c = TSeries([0, 1, 1, 0, 0])
        assert c.exp().log() == c

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="log requires unit constant term"):
            TSeries([2, 1]).log()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError, match="exponential requires zero constant term"):
            TSeries([1, 1]).exp()

    def test_index_bounds(self):
        g = TSeries([1, 2, 3])
        assert g.order == 2
        assert g[2] == 3
        with pytest.raises(IndexError):
            g[3]

    def test_binary_ops_use_min_order(self):
        a = TSeries([1, 1, 1, 1])
        b = TSeries([1, 2])
        assert (a + b).order == 1
        assert a * b == TSeries([1, 3])

    def test_needs_constant_term(self):
        with pytest.raises(ValueError):
            TSeries([])

    def test_repr_round_trips(self):
        g = TSeries([1, F(1, 2), 0])
        text = "TSeries([Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)])"
        assert repr(g) == text
        assert eval(text, {"TSeries": TSeries, "Fraction": F}) == g
