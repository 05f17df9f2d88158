"""Unit tests for the species -> Euler characteristic table pipeline."""

import json
import random
from fractions import Fraction as F
from math import factorial

import pytest

import orbchi.euler
from orbchi.euler import (
    INTEGER_FROM,
    MAX_LOOPS,
    EulerTable,
    _column_sum,
    _columns,
    _integer_columns,
    _inverse_sum,
    all_graphs_series,
    connected_series,
    euler_characteristic,
)
from orbchi.series import TSeries
from orbchi.species import Species, UsageError, builtin_species, species_from_file

from helpers import GENERIC, GOLDEN, exponent_terms


class TestEulerTable:
    def test_entry_access(self):
        t = EulerTable("x", True, {2: F(1, 12), 3: F(0)})
        assert t[2] == F(1, 12)
        assert t[3] == 0

    def test_missing_loop_order(self):
        t = EulerTable("x", True, {2: F(1)})
        with pytest.raises(KeyError):
            t[4]


class TestAllGraphsSeries:
    def test_commutative_two_loops(self):
        g = all_graphs_series(builtin_species("commutative"), 2)
        assert g == TSeries([1, F(1, 12)])

    def test_lie_two_loops(self):
        g = all_graphs_series(builtin_species("lie"), 2)
        assert g == TSeries([1, F(-1, 24)])

    def test_species_without_small_vertices(self):
        sp = Species("sparse", lambda n: F(0) if n < 5 else F(1), max_n=None)
        g = all_graphs_series(sp, 2)
        assert g == TSeries([1, 0])

    def test_order_matches_loops(self):
        g = all_graphs_series(builtin_species("commutative"), 5)
        assert g.order == 4

    def test_rejects_low_loops(self):
        with pytest.raises(UsageError, match="max-loops must be >= 2"):
            all_graphs_series(builtin_species("commutative"), 1)

    def test_rejects_loops_past_ceiling(self):
        assert MAX_LOOPS == 1000
        with pytest.raises(UsageError, match="max-loops must be <= 1000"):
            all_graphs_series(builtin_species("commutative"), MAX_LOOPS + 1)


def lagrange_all_graphs(q, order):
    """g_0..g_order by Laplace's method and Lagrange inversion.

    An independent route: it shares no code with the pipeline.  Putting
    y = x/s turns the Gaussian average of exp(-sum_n q_n s^(n-2) y^n) into
    a Laplace integral of exp(-f(x)/t), f(x) = x^2/2 + sum_n q_n x^n.  With
    f = u^2/2, u = x sqrt(phi(x)) for phi(x) = 1 + 2 sum_k q_(k+2) x^k, and
    Lagrange inversion gives g_n = (2n-1)!! [x^(2n)] phi^(-(2n+1)/2).  Each
    power comes from Miller's recurrence for P = phi^alpha, phi_0 = 1:
    k P_k = sum_{j=1..k} ((alpha + 1) j - k) phi_j P_(k-j).
    """
    phi = [F(1)] + [2 * q(k + 2) for k in range(1, 2 * order + 1)]
    g, double_factorial = [], 1  # (2n-1)!!
    for n in range(order + 1):
        alpha = F(-(2 * n + 1), 2)
        p = [F(1)]
        for k in range(1, 2 * n + 1):
            # start at F(0): a sum holding no Fraction would be int 0, and 0 / k a float
            p.append(sum((((alpha + 1) * j - k) * phi[j] * p[k - j]
                          for j in range(1, k + 1)), F(0)) / k)
        g.append(double_factorial * p[2 * n])
        double_factorial *= 2 * n + 1
    return g


def random_species(seed, max_n):
    """Q_3..Q_max_n random rationals of either sign, about half of them zero."""
    rng = random.Random(seed)
    table = {n: F(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 9)) / factorial(n)
             for n in range(3, max_n + 1)}
    return Species(f"random-{seed}", lambda n: table[n], max_n=max_n)


class TestLagrangeRoute:
    ORDER = 20

    def check(self, species):
        g = all_graphs_series(species, self.ORDER + 1)
        assert [g[m] for m in range(self.ORDER + 1)] == lagrange_all_graphs(species.q, self.ORDER)

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord"])
    def test_builtins(self, name):
        self.check(builtin_species(name))

    def test_generic_species(self):
        # 15 loops: every order <= 14 of every species at once
        g = _column_sum(_columns(exponent_terms(GENERIC, 28), 28), 14)
        assert g == lagrange_all_graphs(GENERIC.q, 14)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_random_rational_species(self, seed):
        self.check(random_species(seed, 2 * self.ORDER + 2))

    def test_hand_values(self):
        # commutative: g_1 = 1/12
        assert lagrange_all_graphs(builtin_species("commutative").q, 1) == [1, F(1, 12)]
        # no vertices at all: the empty graph alone
        assert lagrange_all_graphs(lambda n: F(0), 3) == [1, 0, 0, 0]


class TestConnectedSeries:
    def test_log_to_first_order(self):
        assert connected_series(TSeries([1, F(1, 12)])) == TSeries([0, F(1, 12)])

    def test_inverse_of_exp(self):
        c = TSeries([0, F(1, 12), 0])
        assert connected_series(c.exp()) == c

    def test_commutative_four_loops(self):
        g = all_graphs_series(builtin_species("commutative"), 4)
        assert connected_series(g) == TSeries([0, F(1, 12), 0, F(-1, 360)])


class TestEulerCharacteristic:
    def test_commutative_table(self):
        t = euler_characteristic(builtin_species("commutative"), 4)
        assert t.species_name == "commutative"
        assert t.connected is True
        assert t.entries == {2: F(1, 12), 3: F(0), 4: F(-1, 360)}

    def test_all_graphs_flag(self):
        sp = builtin_species("commutative")
        t = euler_characteristic(sp, 3, connected=False)
        g = all_graphs_series(sp, 3)
        assert t.connected is False
        assert t.entries == {2: g[1], 3: g[2]}

    def test_disconnected_contributions_differ(self):
        # at 3 loops the two-component graphs enter the all-graphs count
        sp = builtin_species("commutative")
        conn = euler_characteristic(sp, 3).entries[3]
        allg = euler_characteristic(sp, 3, connected=False).entries[3]
        assert conn == 0
        assert allg == F(1, 288)  # (1/12)^2 / 2 for the two-component pairs

    def test_rejects_low_loops(self):
        with pytest.raises(ValueError, match="max-loops must be >= 2"):
            euler_characteristic(builtin_species("lie"), 1)

    def test_coverage_error_propagates(self, tmp_path):
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"name": "short", "Q": {"3": 1, "4": 1, "5": 1, "6": 1}}))
        sp = species_from_file(f)
        assert list(euler_characteristic(sp, 3).entries) == [2, 3]
        with pytest.raises(ValueError, match="n=8"):
            euler_characteristic(sp, 4)


def file_species(tmp_path, name, valences, top):
    """A species file with random nonzero Q_n at ``valences`` and zero at
    the other n up to ``top``, loaded as a user's would be."""
    rng = random.Random(name)
    counts = {str(n): f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
              if n in valences else 0 for n in range(3, top + 1)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "Q": counts}))
    return species_from_file(path)


def values(columns):
    """Each column's even-s-degree terms of P_v, as exact values."""
    return [{i: c / d for i, c in col.items()} for col, d in columns]


def refuse(*args):
    pytest.fail("another route ran")


def run_only(patch, route):
    """Make every sum route but ``route`` fail the test when called."""
    for other in {"_columns", "_integer_columns", "_inverse_sum"} - {route}:
        patch.setattr(orbchi.euler, other, refuse)


class TestIntegerColumnSum:
    """The sum's two column layouts.  ``_integer_columns`` yields the
    columns of ``_columns``, so both give the same sums, bit for bit; the
    columns are P_v = A^v / v!; and ``all_graphs_series`` takes the integer
    layout from INTEGER_FROM loops on, for every species that carries no
    inverse-series row."""

    CASES = ["commutative", "associative", "lie", "chord", "k_min 1", "k_min 2", "k_min 3", "zero"]

    @staticmethod
    def terms(tmp_path, name, n):
        if name == "k_min 1":  # with gaps
            sp = file_species(tmp_path, "k1", [m for m in range(3, n + 3) if m % 4], n + 2)
        elif name == "k_min 2":  # odd and even s-degrees
            sp = file_species(tmp_path, "k2", range(4, n + 3), n + 2)
        elif name == "k_min 3":  # with gaps
            sp = file_species(tmp_path, "k3", [m for m in range(5, n + 3) if m % 3 != 1], n + 2)
        elif name == "zero":
            sp = Species("zero", lambda n: F(0))
        else:
            sp = builtin_species(name)
        return exponent_terms(sp, n)

    @pytest.mark.parametrize("name", CASES)
    def test_equals_column_sum(self, tmp_path, name):
        # the low n check the cut at s-degree n itself
        for n in (2, 4, 60):
            a = self.terms(tmp_path, name, n)
            assert values(_integer_columns(a, n)) == values(_columns(a, n))
            g = _column_sum(_integer_columns(a, n), n // 2)
            assert g == _column_sum(_columns(a, n), n // 2)
            assert all(type(c) is F for c in g)

    @pytest.mark.parametrize("name", CASES)
    def test_equals_series_power(self, tmp_path, name):
        # A^v / v! built with the public TSeries product
        n = 40
        a = self.terms(tmp_path, name, n)
        base = TSeries([0] + [dict(a).get(k, 0) for k in range(1, n + 1)])
        power, expected = TSeries([1] + [0] * n), []
        for v in range(n // a[0][0] + 1 if a else 1):  # P_v is empty once v * k_min > n
            expected.append({i: power[i] / factorial(v) for i in range(0, n + 1, 2) if power[i]})
            power *= base
        assert values(_columns(a, n)) == values(_integer_columns(a, n)) == expected

    @pytest.mark.parametrize("name", ["lie", "chord", "even", "zero"])
    def test_takes_integer_columns_from_the_crossover(self, tmp_path, monkeypatch, name):
        # species without an inverse-series row: file species, one a copy of
        # lie or chord under its name, and a hand-made one
        if name == "even":  # k_min = 2, as for chord
            sp = file_species(tmp_path, name, range(4, 2 * INTEGER_FROM + 1, 2), 2 * INTEGER_FROM)
        elif name == "zero":
            sp = Species("zero", lambda n: F(0))
        else:
            sp = builtin_copy(tmp_path, name, 2 * INTEGER_FROM)
        tables = crossover_tables(monkeypatch, sp, "_integer_columns")
        assert tables[1][:-1] == tables[0]
        if name == "zero":  # the empty graph alone
            assert tables[1] == [1] + [0] * (INTEGER_FROM - 1)


def builtin_copy(tmp_path, name, top):
    """A species file holding built-in ``name``'s Q_3..Q_top under its name,
    loaded as a user's would be: the same q_n, but no inverse-series row."""
    builtin = builtin_species(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "Q": {
        str(n): str(builtin.structure_count(n)) for n in range(3, top + 1)}}))
    sp = species_from_file(path)
    assert sp._ode is None
    return sp


def crossover_tables(monkeypatch, sp, deep_route):
    """The all-graphs tables one loop order below the crossover, by
    ``_columns`` alone, and at it, by ``deep_route`` alone; each checked
    against the golden values when the species has a built-in's name."""
    tables = []
    for loops, route in ((INTEGER_FROM - 1, "_columns"), (INTEGER_FROM, deep_route)):
        with monkeypatch.context() as patch:
            run_only(patch, route)
            g = all_graphs_series(sp, loops)
        tables.append([g[m] for m in range(loops)])
        if sp.name in GOLDEN["species"]:
            gold = GOLDEN["species"][sp.name]["all"]
            assert tables[-1][1:] == [F(gold[str(n)]) for n in range(2, loops + 1)]
    return tables


class TestInverseSum:
    """``_inverse_sum``, a built-in's route from ``INTEGER_FROM`` loops on,
    equals the column sums bit for bit; a file species under a built-in's
    name keeps the columns (``test_takes_integer_columns_from_the_crossover``)."""

    BUILTINS = ["commutative", "associative", "lie", "chord"]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_equals_column_sum_to_order_30(self, name):
        sp = builtin_species(name)
        g = _column_sum(_columns(exponent_terms(sp, 60), 60), 30)
        for order in range(1, 31):
            inverse = _inverse_sum(sp._ode, order)
            assert inverse == g[:order + 1], order
            assert all(type(c) is F for c in inverse)

    @pytest.mark.parametrize("name, loops", [
        ("lie", 80), ("commutative", 80), ("associative", 80), ("chord", 100)])
    def test_equals_integer_columns_at_depth(self, name, loops):
        sp = builtin_species(name)
        n = 2 * (loops - 1)
        expected = _column_sum(_integer_columns(exponent_terms(sp, n), n), loops - 1)
        assert _inverse_sum(sp._ode, loops - 1) == expected

    @pytest.mark.parametrize("name", ["lie", "chord"])
    def test_takes_inverse_series_from_the_crossover(self, monkeypatch, name):
        tables = crossover_tables(monkeypatch, builtin_species(name), "_inverse_sum")
        assert tables[1][:-1] == tables[0]


class TestThreshold:
    """``all_graphs_series`` takes the ring layout below ``INTEGER_FROM``
    loops, and from it on the inverse series for a built-in and the integer
    layout for its file copy, wherever the threshold sits; each route's lie
    table at 40 and 41 loops and chord table at 80 and 81 agree with the
    golden all-graphs values (to 60 loops)."""

    @staticmethod
    def check(sp, loops):
        g = all_graphs_series(sp, loops)
        gold = {int(n): F(c) for n, c in GOLDEN["species"][sp.name]["all"].items()
                if int(n) <= loops}
        assert {n: g[n - 1] for n in gold} == gold

    @pytest.mark.parametrize("name, loops", [("lie", 40), ("chord", 80)])
    def test_below_runs_the_fraction_sum(self, monkeypatch, name, loops):
        monkeypatch.setattr(orbchi.euler, "INTEGER_FROM", loops + 1)
        run_only(monkeypatch, "_columns")
        self.check(builtin_species(name), loops)

    @pytest.mark.parametrize("name, loops", [("lie", 41), ("chord", 81)])
    def test_from_threshold_runs_the_integer_sum(self, tmp_path, monkeypatch, name, loops):
        # the built-in's file copy, which carries no inverse-series row
        monkeypatch.setattr(orbchi.euler, "INTEGER_FROM", loops)
        run_only(monkeypatch, "_integer_columns")
        self.check(builtin_copy(tmp_path, name, 2 * loops), loops)

    @pytest.mark.parametrize("name, loops", [("lie", 41), ("chord", 81)])
    def test_from_threshold_runs_the_inverse_sum(self, monkeypatch, name, loops):
        monkeypatch.setattr(orbchi.euler, "INTEGER_FROM", loops)
        run_only(monkeypatch, "_inverse_sum")
        self.check(builtin_species(name), loops)
