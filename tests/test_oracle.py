"""Unit tests for the brute-force labeled-graph enumeration oracle."""

import json
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from math import factorial, prod

import pytest
import sympy

from orbchi.euler import _column_sum, _columns, all_graphs_series, connected_series
from orbchi.oracle import (
    _block_shapes,
    _connected,
    oracle_all_graphs_coefficient,
    oracle_connected_coefficient,
)
from orbchi.series import _log
from orbchi.species import Species, UsageError, builtin_species, species_from_file

from helpers import GENERIC, R, exponent_terms

COMM = builtin_species("commutative")
CAP = "the oracle counts graphs up to 11 loops"


@lru_cache(maxsize=None)
def generic_series(order):
    """g_0..g_order and c_0..c_order of GENERIC, by the shipped recurrences."""
    n = 2 * order
    g = _column_sum(_columns(exponent_terms(GENERIC, n), n), order)
    return g, _log(g)


def at(sp, p):
    """The polynomial p in the q_n, evaluated in Fractions at the species sp."""
    return sum((F(int(c.numerator), int(c.denominator))
                * prod(sp.q(n) ** e for n, e in enumerate(monomial, 3) if e)
                for monomial, c in R(p).terms()), F(0))


def partitions_by_blocks(k, sp=COMM):
    """Min-3 set partitions of {1..k} keyed by block count, each weighted
    by prod Q.  A block shape stands for k! / (prod n! * prod mult!) of
    them, so it adds k! * prod q_n / prod mult!, k! times the oracle's
    shape weight; the commutative species (Q = 1) just counts them."""
    out = {}
    for v in range(k // 3 + 1):
        for shape in _block_shapes(k, v):
            w = factorial(k) * prod(map(sp.q, shape))
            w /= prod(map(factorial, Counter(shape).values()))
            if w:
                out[v] = out.get(v, 0) + w
    return out


def connected_count(shape):
    """The oracle's count of the pairings of a block shape that connect it."""
    return _connected(tuple(sorted((n,) for n in shape)))


def double_factorial(k):
    """(k - 1)!! for even k, the pairings of k points; 0 for odd k."""
    return 0 if k % 2 else prod(range(k - 1, 0, -2))


def shapes_up_to(half_edges):
    """Every block shape (blocks of at least 3) of at most ``half_edges``."""
    return [shape for k in range(half_edges + 1) for v in range(k // 3 + 1)
            for shape in _block_shapes(k, v)]


def perfect_matchings(points):
    """Every perfect matching of ``points`` as a list of pairs; none if odd."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for matching in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + matching


def literal_pairing_counts(shape):
    """(all, connected) pairings of the canonical partition of ``shape``
    (blocks as consecutive runs of half-edges), one matching at a time."""
    block_of = [idx for idx, size in enumerate(shape) for _ in range(size)]
    total = connected = 0

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for matching in perfect_matchings(list(range(len(block_of)))):
        parent = list(range(len(shape)))
        for a, b in matching:
            parent[find(block_of[a])] = find(block_of[b])
        total += 1
        connected += len({find(x) for x in range(len(shape))}) == 1
    return total, connected


def per_vertex_pairing_counts(shape):
    """(all, connected) by a walk on each vertex's free half-edge count
    and component label, in vertex order: the first vertex u with a free
    half-edge pairs one of them with any vertex w, f_w ways (f_u - 1 ways
    when w = u), and w's component takes u's label."""
    @lru_cache(maxsize=None)
    def walk(free, label):
        if not any(free):
            return 1, int(len(set(label)) == 1)
        u = next(i for i, f in enumerate(free) if f)
        total = connected = 0
        for w, f in enumerate(free):
            ways = f - (w == u)
            if ways:
                nxt = list(free)
                nxt[u] -= 1
                nxt[w] -= 1
                merged = tuple(label[u] if c == label[w] else c for c in label)
                all_, conn = walk(tuple(nxt), merged)
                total += ways * all_
                connected += ways * conn
        return total, connected

    return walk(tuple(shape), tuple(range(len(shape))))


class TestPairingCounts:
    @pytest.mark.parametrize("shape, counts", [
        ((4,), (3, 3)),
        ((3, 3), (15, 15)),
        ((4, 4), (105, 96)),
        ((4, 3, 3), (945, 900)),
        ((3, 3, 3, 3), (10395, 9720)),
        ((4, 4, 4), (10395, 9504)),
    ])
    def test_hand_values(self, shape, counts):
        # e.g. (4, 4) loses the 3 * 3 pairings that keep each vertex to itself
        assert literal_pairing_counts(shape) == counts
        assert connected_count(shape) == counts[1]

    def test_single_block(self):
        # one vertex: every pairing connects it, and there are (k-1)!!
        for k in range(13):
            assert connected_count((k,)) == double_factorial(k)

    def test_matches_literal_enumeration(self):
        # every shape the oracle sums over, against a walk that lists each
        # perfect matching and joins its vertices with a union-find; the
        # empty graph has no component, a lone bare vertex has one
        shapes = shapes_up_to(12) + [(0,)]
        assert len(shapes) == 36 and () in shapes
        assert literal_pairing_counts(()) == (1, 0) and _connected(()) == 0
        assert literal_pairing_counts((0,)) == (1, 1) and _connected(((0,),)) == 1
        for shape in shapes:
            total, connected = literal_pairing_counts(shape)
            assert total == double_factorial(sum(shape)), shape
            assert connected_count(shape) == connected, shape

    def test_matches_per_vertex_walk(self):
        # a second reference, far enough to reach merges of merged components
        shapes = shapes_up_to(18)
        assert len(shapes) == 154
        for shape in shapes:
            total, connected = per_vertex_pairing_counts(shape)
            assert total == double_factorial(sum(shape)), shape
            assert connected_count(shape) == connected, shape

    def test_steps_by_hand(self):
        # (3, 3): a half-edge of the first vertex pairs with one of its own
        # (2 ways, leaving (1,) and (3,)) or with the other vertex (3 ways,
        # leaving one component with two free half-edges at each vertex)
        assert _connected(((1,), (3,))) == 3
        assert _connected(((2, 2),)) == 3
        assert connected_count((3, 3)) == 2 * 3 + 3 * 3
        # (4, 4): the 3 * 3 pairings that close a vertex on itself while the
        # other is live are the 105 - 96 that do not connect
        assert double_factorial(8) - connected_count((4, 4)) == 3 * 3


class TestPartitions:
    def test_six_elements(self):
        # one 6-block + 10 splits into two 3-blocks
        assert partitions_by_blocks(6) == {1: 1, 2: 10}

    def test_blocks_canonical(self):
        for k in range(13):
            for v in range(k // 3 + 1):
                shapes = list(_block_shapes(k, v))
                assert len(shapes) == len(set(shapes))
                for shape in shapes:
                    assert len(shape) == v and sum(shape) == k
                    assert list(shape) == sorted(shape, reverse=True)
                    assert all(size >= 3 for size in shape)

    def test_too_few_elements(self):
        assert partitions_by_blocks(2) == {}

    def test_empty_partition(self):
        assert list(_block_shapes(0, 0)) == [()]
        assert partitions_by_blocks(0) == {0: 1}

    def test_counts_match_egf(self):
        # coefficients of e^(e^x - 1 - x - x^2/2) count min-3 partitions
        x = sympy.symbols("x")
        egf = sympy.exp(sympy.exp(x) - 1 - x - x ** 2 / 2)
        series = sympy.series(egf, x, 0, 13).removeO()
        for k in range(13):
            expected = int(series.coeff(x, k) * sympy.factorial(k))
            assert sum(partitions_by_blocks(k).values()) == expected


class TestPartitionWeights:
    def test_associative_six(self):
        assoc = builtin_species("associative")
        assert partitions_by_blocks(6, assoc) == {1: F(120), 2: F(40)}

    def test_five_is_single_block(self):
        for name in ("commutative", "associative", "lie"):
            sp = builtin_species(name)
            assert partitions_by_blocks(5, sp) == {1: sp.structure_count(5)}
        # chord kills odd blocks entirely
        assert partitions_by_blocks(5, builtin_species("chord")) == {}

    def test_coverage_error(self, tmp_path):
        # m = 1 reads Q_3 and Q_4 only: shapes (4) and (3, 3)
        f = tmp_path / "sp.json"
        f.write_text(json.dumps({"name": "x", "Q": {"3": 1}}))
        sp = species_from_file(f)
        with pytest.raises(ValueError, match="n=4 is required") as excinfo:
            oracle_all_graphs_coefficient(sp, 1, 3)
        assert not isinstance(excinfo.value, UsageError)
        with pytest.raises(ValueError, match="n=4 is required"):
            oracle_connected_coefficient(sp, 1, 3)


@pytest.mark.parametrize("oracle", [oracle_all_graphs_coefficient,
                                    oracle_connected_coefficient])
@pytest.mark.parametrize("m, max_e, message", [
    (-1, 0, "m must be >= 0"),
    (2, 5, "incomplete sum"),
    (11, 33, CAP),  # 12 loops
    (20, 60, CAP),
])
def test_argument_checks(oracle, m, max_e, message):
    # every check is made before the pairing walk is first entered
    before = _connected.cache_info()
    with pytest.raises(UsageError, match=message):
        oracle(COMM, m, max_e)
    assert _connected.cache_info() == before


class TestAllGraphsOracle:
    def test_commutative_m1(self):
        assert oracle_all_graphs_coefficient(COMM, 1, 3) == F(1, 12)

    def test_chord_m1(self):
        assert oracle_all_graphs_coefficient(builtin_species("chord"), 1, 3) == F(-3, 8)

    def test_empty_graph(self):
        # the shape with no blocks, and both sums stay exact
        everything = oracle_all_graphs_coefficient(COMM, 0, 0)
        connected = oracle_connected_coefficient(COMM, 0, 0)
        assert (everything, connected) == (1, 0)
        assert type(everything) is F and type(connected) is F

    def test_incomplete_sum_rejected(self):
        with pytest.raises(ValueError, match="incomplete sum"):
            oracle_all_graphs_coefficient(COMM, 2, 5)

    def test_larger_max_e_changes_nothing(self):
        assert (oracle_all_graphs_coefficient(COMM, 1, 3)
                == oracle_all_graphs_coefficient(COMM, 1, 6))

    def test_never_walks(self):
        # every shape on 2e half-edges has (2e - 1)!! pairings, so the
        # all-graphs sum needs no walk
        before = _connected.cache_info()
        assert oracle_all_graphs_coefficient(COMM, 6, 18) == all_graphs_series(COMM, 7)[6]
        assert _connected.cache_info() == before

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_pipeline(self, name, m):
        sp = builtin_species(name)
        value = oracle_all_graphs_coefficient(sp, m, 3 * m)
        assert value == all_graphs_series(sp, m + 1)[m] == at(sp, generic_series(m)[0][m])
        assert type(value) is F


class TestConnectedOracle:
    def test_commutative_m1(self):
        assert oracle_connected_coefficient(COMM, 1, 3) == F(1, 12)

    def test_commutative_m2(self):
        assert oracle_connected_coefficient(COMM, 2, 6) == 0

    def test_lie_m2(self):
        assert oracle_connected_coefficient(builtin_species("lie"), 2, 6) == F(-1, 48)

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match=CAP):
            oracle_connected_coefficient(COMM, 11, 33)

    def test_incomplete_sum_rejected(self):
        with pytest.raises(ValueError, match="incomplete sum"):
            oracle_connected_coefficient(COMM, 2, 4)

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord"])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_pipeline(self, name, m):
        sp = builtin_species(name)
        value = oracle_connected_coefficient(sp, m, 3 * m)
        connected = connected_series(all_graphs_series(sp, m + 1))
        assert value == connected[m] == at(sp, generic_series(m)[1][m])
        assert type(value) is F


@pytest.mark.parametrize("m", range(1, 11))  # 2..11 loops
def test_generic_species_matches_oracle(m):
    # monomial by monomial, one per block shape, so for every species
    g, c = generic_series(m)
    shapes = sum(1 for e in range(m, 3 * m + 1) for _ in _block_shapes(2 * e, e - m))
    assert len(g[m].terms()) == len(c[m].terms()) == shapes
    assert g[m] == oracle_all_graphs_coefficient(GENERIC, m, 3 * m)
    assert c[m] == oracle_connected_coefficient(GENERIC, m, 3 * m)


def _seeded_species(seed):
    """Q_3..Q_14 random rationals of either sign, about half of them zero."""
    rng = random.Random(seed)
    table = {n: F(rng.choice((0, rng.randint(-40, 40))), rng.randint(1, 40)) / factorial(n)
             for n in range(3, 15)}
    return Species(f"seeded-{seed}", lambda n: table[n], max_n=14)


# the file the CI smoke job hands to `verify oracle`
MIXED = {"3": "-7/3", "4": 2, "5": 0, "6": "5/11", "7": -1, "8": "13/4",
         "9": "-2/9", "10": 6, "11": "1/40", "12": "-17/8"}


@pytest.mark.parametrize("seed", [*range(1, 11), "mixed"])
def test_seeded_species_match_pipeline(seed, tmp_path):
    # the rational path, which skips zero terms: the generic polynomials at
    # the point, the pipeline and the oracle agree, all in Fractions
    if seed == "mixed":
        f = tmp_path / "mixed.json"
        f.write_text(json.dumps({"name": "mixed", "Q": MIXED}))
        sp = species_from_file(f)
    else:
        sp = _seeded_species(seed)
    order = sp.max_n // 2 - 1
    series = all_graphs_series(sp, order + 1)
    connected = connected_series(series)
    g, c = generic_series(order)
    for m in range(order + 1):
        values = (series[m], connected[m], oracle_all_graphs_coefficient(sp, m, 3 * m),
                  oracle_connected_coefficient(sp, m, 3 * m))
        assert values == (at(sp, g[m]), at(sp, c[m])) * 2
        assert all(type(value) is F for value in values)
