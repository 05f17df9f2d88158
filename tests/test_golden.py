"""Golden tables: every built-in species at 60 loops, bit for bit.

``data/golden_60.json`` holds the all-graphs and connected tables of the
four built-in species, keyed by loop number n = 2..60 (the coefficient of
t^(n-1)), as exact ``"p/q"`` strings.  They were written by the power-sum
engine (exp as sum E^k/k!, log as sum (-1)^(k+1) (g-1)^k/k) before the
derivative recurrences replaced it, and agree with the Lagrange-inversion
reference in ``bench/reference.py``.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from orbchi.euler import all_graphs_series, connected_series
from orbchi.species import builtin_species

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_60.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN["species"]))
def test_tables_bit_identical(name):
    loops = GOLDEN["loops"]
    expected = GOLDEN["species"][name]
    g = all_graphs_series(builtin_species(name), loops)
    c = connected_series(g)
    assert g.order == loops - 1
    for kind, series in (("all", g), ("connected", c)):
        assert sorted(map(int, expected[kind])) == list(range(2, loops + 1))
        for n, value in expected[kind].items():
            assert series[int(n) - 1] == Fraction(value), (kind, n)


def test_lie_is_chi_of_out_fn():
    # Kontsevich: the lie column is chi(Out(F_n)), negative for every n, with
    # |chi_n| ~ Gamma(n - 3/2) / (sqrt(2 pi) log^2 n) (Borinsky-Vogtmann) approached
    # from below; the ratio is read off the stored values, nothing is recomputed
    chi = {int(n): Fraction(v) for n, v in GOLDEN["species"]["lie"]["connected"].items()}
    assert sorted(chi) == list(range(2, GOLDEN["loops"] + 1))
    assert all(c < 0 for c in chi.values())
    ratio = {
        n: math.exp(math.log(-c.numerator) - math.log(c.denominator)
                    + math.log(2 * math.pi) / 2 + 2 * math.log(math.log(n))
                    - math.lgamma(n - 1.5))
        for n, c in chi.items() if n >= 3
    }
    rs = [ratio[n] for n in sorted(ratio)]
    assert all(a < b for a, b in zip(rs, rs[1:]))
    assert 0 < rs[0] and rs[-1] < 1
    for n, expected in ((3, 0.071), (20, 0.260), (60, 0.347)):
        assert ratio[n] == pytest.approx(expected, abs=5e-4), n
