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


def akiyama_tanigawa_bernoulli(top):
    """B_0..B_top (with B_1 = +1/2), by the Akiyama-Tanigawa triangle."""
    row, out = [], []
    for m in range(top + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_associative_splits_by_genus():
    # Kontsevich/Penner: a ribbon graph of genus g with s faces has loop
    # number n = 2g - 1 + s, so chi_n = sum_{2g-1+s=n} chi(M_{g,s}) / s!, with
    # chi(M_{0,3}) = 1, chi(M_{g,1}) = -B_2g / 2g and
    # chi(M_{g,s+1}) = (2 - 2g - s) chi(M_{g,s}) (Harer-Zagier)
    loops = GOLDEN["loops"]
    b = akiyama_tanigawa_bernoulli(loops)
    chi = {}
    for g in range(loops // 2 + 1):
        s, value = (3, Fraction(1)) if g == 0 else (1, -b[2 * g] / (2 * g))
        while 2 * g - 1 + s <= loops:
            chi[g, s] = value
            value *= 2 - 2 * g - s
            s += 1
    expected = GOLDEN["species"]["associative"]["connected"]
    for n in range(2, loops + 1):
        total = sum(c / math.factorial(s) for (g, s), c in chi.items() if 2 * g - 1 + s == n)
        assert total == Fraction(expected[str(n)]), n
