"""Golden tables: every built-in species at 60 loops, bit for bit.

``data/golden_60.json`` holds the all-graphs and connected tables of the
four built-in species, keyed by loop number n = 2..60 (the coefficient of
t^(n-1)), as exact ``"p/q"`` strings.  They were written by the power-sum
engine (exp as sum E^k/k!, log as sum (-1)^(k+1) (g-1)^k/k) before the
derivative recurrences replaced it, and agree with the Lagrange-inversion
reference in ``bench/reference.py``.
"""

import json
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
