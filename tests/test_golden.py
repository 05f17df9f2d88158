"""Golden tables: every built-in species at 60 loops, bit for bit.

``data/golden_60.json`` holds the all-graphs and connected tables of the
four built-in species, keyed by loop number n = 2..60 (the coefficient of
t^(n-1)), as exact ``"p/q"`` strings.  They were written by the power-sum
engine (exp as sum E^k/k!, log as sum (-1)^(k+1) (g-1)^k/k) before the
derivative recurrences replaced it, and agree with the Lagrange-inversion
reference in ``bench/reference.py``.

Deeper tables are pinned by the SHA-256 of their plain ``compute`` output:
the ``lie`` table at 80 loops and the ``chord`` table at 100, each connected
and all-graphs.  The digests were written from output that equals the
Lagrange-inversion route of ``bench/reference.py`` at every entry, and that
is the same on Python 3.10 to 3.13.
"""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from orbchi.cli import main
from orbchi.euler import all_graphs_series, connected_series
from orbchi.oracle import _block_shapes
from orbchi.species import builtin_species

from helpers import GOLDEN, perfect_matchings


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


@pytest.mark.parametrize("name, loops, flags, digest", [
    ("lie", 80, [], "392a2b1ad4ac83ca7ade48d475075de2d347a0bf08f436aa5c0cf1b141611041"),
    ("lie", 80, ["--all"], "6dcde6d3010199e1c4060266db82bd0159127c666cb3caa41444144bd57c5726"),
    ("chord", 100, [], "fc0fc87f340ebccb444f1c54b58fdeb8211ea68d3775402b5694034f334f89dc"),
    ("chord", 100, ["--all"], "42e5b981b20c55306783eb2434b5eac9a8ddb1942f7737b0f3b4fe401c8887fc"),
], ids=["lie-80", "lie-80-all", "chord-100", "chord-100-all"])
def test_deep_table_pinned(capsys, name, loops, flags, digest):
    # the deep-lie and deep-chord benchmark tables; entries 2..60 repeat the
    # golden file, the rest are checked nowhere else in tier-1
    code = main(["compute", "--species", name, "--max-loops", str(loops), *flags])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def moduli_chi(loops):
    """chi(M_{g,s}) for every 2g - 1 + s <= loops, by chi(M_{0,3}) = 1,
    chi(M_{g,1}) = -B_2g / 2g and chi(M_{g,s+1}) = (2 - 2g - s) chi(M_{g,s})
    (Harer-Zagier)."""
    b = akiyama_tanigawa_bernoulli(loops)
    chi = {}
    for g in range(loops // 2 + 1):
        s, value = (3, Fraction(1)) if g == 0 else (1, -b[2 * g] / (2 * g))
        while 2 * g - 1 + s <= loops:
            chi[g, s] = value
            value *= 2 - 2 * g - s
            s += 1
    return chi


def test_associative_splits_by_genus():
    # Kontsevich/Penner: a ribbon graph of genus g with s faces has loop
    # number n = 2g - 1 + s, so chi_n = sum_{2g-1+s=n} chi(M_{g,s}) / s!
    loops = GOLDEN["loops"]
    chi = moduli_chi(loops)
    expected = GOLDEN["species"]["associative"]["connected"]
    for n in range(2, loops + 1):
        total = sum(c / math.factorial(s) for (g, s), c in chi.items() if 2 * g - 1 + s == n)
        assert total == Fraction(expected[str(n)]), n


def orbit_count(*perms):
    """Number of orbits of the group the permutations of range(k) generate,
    each given as a list or dict h -> image."""
    seen, count = set(), 0
    for start in range(len(perms[0])):
        if start not in seen:
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                h = stack.pop()
                for p in perms:
                    if p[h] not in seen:
                        seen.add(p[h])
                        stack.append(p[h])
    return count


@pytest.mark.parametrize("m", [1, 2])
def test_associative_splits_by_face_count(m):
    # Kontsevich: the connected ribbon graphs with e - v = m, split by genus g
    # and face count s, sum to chi(M_{g,s}) / s!.  The consecutive partition
    # of each block shape stands for all (2e)! / (prod n_b! * prod mult!)
    # partitions of that shape, and each block's standard cyclic order sigma
    # for its (n_b - 1)! cyclic orders: relabelling half-edges maps one onto
    # another and permutes the pairings.  Over (2e)!, a pairing so weighs
    # (-1)^v / (prod n_b * prod mult!), the oracle's shape weight with
    # q_n = 1/n.  The edges are the pairing iota, the faces the cycles of
    # sigma after iota, and v - e + s = 2 - 2g
    sums = {}
    for e in range(m + 1, 3 * m + 1):
        v = e - m
        for shape in _block_shapes(2 * e, v):
            sigma = [h + 1 if h + 1 < end else end - size
                     for size, end in zip(shape, itertools.accumulate(shape))
                     for h in range(end - size, end)]
            weight = Fraction((-1) ** v, math.prod(shape)
                              * math.prod(map(math.factorial, Counter(shape).values())))
            for pairs in perfect_matchings(tuple(range(2 * e))):
                iota = dict(pairs + [(b, a) for a, b in pairs])
                if orbit_count(sigma, iota) == 1:
                    s = orbit_count([sigma[iota[h]] for h in range(2 * e)])
                    key = ((2 - v + e - s) // 2, s)
                    sums[key] = sums.get(key, 0) + weight
    chi = moduli_chi(m + 1)
    assert sums == {(g, s): c / math.factorial(s) for (g, s), c in chi.items()
                    if 2 * g - 1 + s == m + 1}
    connected = connected_series(all_graphs_series(builtin_species("associative"), m + 1))
    assert sum(sums.values()) == connected[m]
