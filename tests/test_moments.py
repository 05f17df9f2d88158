"""Unit tests for Gaussian moments and the y^k -> Ch_k substitution."""

import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest
import sympy

from orbchi.euler import _column_sum, _columns, _integer_columns, all_graphs_series
from orbchi.moments import gaussian_moment, substitute_moments
from orbchi.oracle import _connected
from orbchi.series import BivariatePoly, TSeries
from orbchi.species import Species, builtin_species, species_from_file

from helpers import exponent_terms


def build_exponent(species, s_cutoff):
    """The vertex exponent E = -sum_{n>=3} q_n s^(n-2) y^n, truncated at s_cutoff."""
    return BivariatePoly({(n - 2, n): -species.q(n) for n in range(3, s_cutoff + 3)}, s_cutoff)


class TestGaussianMoment:
    def test_empty(self):
        assert gaussian_moment(0) == 1

    def test_odd_is_zero(self):
        assert gaussian_moment(3) == 0

    def test_four(self):
        assert gaussian_moment(4) == 3

    def test_six(self):
        assert gaussian_moment(6) == 15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1)

    def test_matches_pairing_enumeration(self):
        # independent cross-check against brute-force matching counts; on one
        # vertex every matching connects
        for k in range(13):
            assert gaussian_moment(k) == _connected(((k,),))

    def test_table_recurrence(self):
        for k in range(2, 13, 2):
            assert gaussian_moment(k) == (k - 1) * gaussian_moment(k - 2)
        assert all(gaussian_moment(k) == 0 for k in range(1, 13, 2))


class TestExpandH:
    def test_commutative_hand_expansion(self):
        h = build_exponent(builtin_species("commutative"), 2).exp()
        assert dict(h.items()) == {
            (0, 0): F(1),
            (1, 3): F(-1, 6),
            (2, 4): F(-1, 24),
            (2, 6): F(1, 72),
        }

    def test_zero_exponent(self):
        assert BivariatePoly({}, 4).exp() == BivariatePoly({(0, 0): 1}, 4)

    def test_chord_single_term(self):
        h = build_exponent(builtin_species("chord"), 2).exp()
        assert dict(h.items()) == {(0, 0): F(1), (2, 4): F(-1, 8)}

    def test_against_sympy_expansion(self):
        # independent engine: series-expand exp of the same exponent
        s, y = sympy.symbols("s y")
        cutoff = 6
        sp = builtin_species("commutative")
        mine = build_exponent(sp, cutoff).exp()
        expr = sympy.exp(sympy.Add(*[
            -sympy.Rational(1, sympy.factorial(n)) * s ** (n - 2) * y ** n
            for n in range(3, cutoff + 3)
        ]))
        expanded = sympy.series(expr, s, 0, cutoff + 1).removeO()
        poly = sympy.Poly(sympy.expand(expanded), s, y)
        theirs = {
            (int(i), int(j)): F(*sympy.fraction(c))
            for (i, j), c in zip(poly.monoms(), poly.coeffs())
        }
        assert dict(mine.items()) == theirs

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord"])
    def test_y_degree_band(self, name):
        # each s^i monomial carries y-degree between i+2 and 3i, same parity
        for cutoff in (2, 8, 20):
            h = build_exponent(builtin_species(name), cutoff).exp()
            for (i, j), c in h.items():
                assert c != 0
                if i == 0:
                    assert j == 0
                    continue
                assert i + 2 <= j <= 3 * i
                assert (j - i) % 2 == 0


class TestSubstituteMoments:
    def test_commutative_h(self):
        h = build_exponent(builtin_species("commutative"), 2).exp()
        assert substitute_moments(h) == TSeries([1, F(1, 12)])

    def test_chord_h(self):
        h = build_exponent(builtin_species("chord"), 2).exp()
        assert substitute_moments(h) == TSeries([1, F(-3, 8)])

    def test_constant_one(self):
        assert substitute_moments(BivariatePoly({(0, 0): 1}, 0)) == TSeries([1])

    def test_odd_cutoff_rejected(self):
        with pytest.raises(ValueError, match="even s_cutoff"):
            substitute_moments(BivariatePoly({(0, 0): 1}, 3))

    def test_surviving_odd_s_degree_rejected(self):
        p = BivariatePoly({(1, 4): F(1)}, 2)
        with pytest.raises(ValueError, match="half-integer power of t"):
            substitute_moments(p)

    def test_odd_s_degree_with_odd_y_degree_vanishes(self):
        p = BivariatePoly({(0, 0): 1, (1, 3): F(5)}, 2)
        assert substitute_moments(p) == TSeries([1, 0])

    def test_linearity(self):
        p = BivariatePoly({(0, 0): 1, (2, 4): F(1, 3)}, 4)
        q = BivariatePoly({(2, 2): F(-1, 2), (4, 6): F(7)}, 4)
        a, b = F(3, 5), F(-2, 7)
        lhs = substitute_moments(p * a + q * b)
        rhs = substitute_moments(p) * a + substitute_moments(q) * b
        assert lhs == rhs

    def test_y_degrees_out_of_order(self):
        # y-degrees arrive out of order: Ch_6 in row 0, then Ch_2, Ch_3 and Ch_8 in row 2
        p = BivariatePoly({(0, 6): 1, (1, 5): F(4), (2, 2): F(1, 2), (2, 3): F(7),
                           (2, 8): F(1, 105)}, 2)
        assert substitute_moments(p) == TSeries([15, F(3, 2)])

    def test_all_zero(self):
        assert substitute_moments(BivariatePoly({}, 2)) == TSeries([0, 0])

    def test_holds_no_copy_of_the_terms(self):
        # streaming over the rows: beyond h itself, the substitution may only
        # hold its running sums (a list of every term would cost ~0.7 x h here)
        tracemalloc.start()
        try:
            h = build_exponent(builtin_species("lie"), 40).exp()
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            substitute_moments(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size <= 0.25 * size, (peak - size) / size


def _bivariate_route(species, s_cutoff):
    return substitute_moments(build_exponent(species, s_cutoff).exp())


class TestVertexCountSum:
    """The streamed sum over vertex counts against exp, then substitution."""

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord"])
    def test_builtins_match_bivariate_route(self, name):
        sp = builtin_species(name)
        for loops in range(2, 22):
            assert all_graphs_series(sp, loops) == _bivariate_route(sp, 2 * loops - 2)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_seeded_file_species_match_bivariate_route(self, tmp_path, seed):
        # Q_3..Q_22 random nonzero rationals of either sign, read from a file
        rng = random.Random(seed)
        counts = {str(n): f"{rng.choice((-1, 1)) * rng.randint(1, 40)}/{rng.randint(1, 40)}"
                  for n in range(3, 23)}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps({"name": f"seeded-{seed}", "Q": counts}))
        sp = species_from_file(path)
        for loops in range(2, 12):
            assert all_graphs_series(sp, loops) == _bivariate_route(sp, 2 * loops - 2)

    def test_zero_species(self):
        sp = Species("zero", lambda n: F(0))
        assert all_graphs_series(sp, 6) == _bivariate_route(sp, 10) == TSeries([1, 0, 0, 0, 0, 0])

    def test_coverage_error_names_required_n(self, tmp_path):
        f = tmp_path / "short.json"
        f.write_text('{"name": "short", "Q": {"3": 1, "4": 1}}')
        with pytest.raises(ValueError, match="n=6"):
            all_graphs_series(species_from_file(f), 3)

    def test_holds_two_columns_not_the_exp_rows(self):
        # only two vertex-count columns are live at once, so the traced peak
        # of the sum over either column layout stays far below the rows of
        # exp(E) that the bivariate route builds (1.09 x those rows when the
        # pipeline built them).  At s-cutoff 40 the peaks read about 0.15 x
        # the rows, and a sum that keeps every column about 0.33 x and more
        sp = builtin_species("lie")
        a = exponent_terms(sp, 40)
        peaks = []
        tracemalloc.start()
        try:
            h = build_exponent(sp, 40).exp()
            rows = tracemalloc.get_traced_memory()[0]
            del h
            base = tracemalloc.get_traced_memory()[0]
            for columns in (_columns, _integer_columns):
                tracemalloc.reset_peak()
                _column_sum(columns(a, 40), 20)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 0.25 * rows, [peak / rows for peak in peaks]

