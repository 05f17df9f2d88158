"""Unit tests for the species -> Euler characteristic table pipeline."""

import json
import os
import random
import threading
import time
from fractions import Fraction as F
from math import factorial

import pytest
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

import orbchi.euler
from orbchi.cli import main
from orbchi.euler import (
    MAX_LOOPS,
    SPLIT_FROM,
    EulerTable,
    _column_sum,
    _power_column,
    _split_point,
    _split_sum,
    all_graphs_series,
    connected_series,
    euler_characteristic,
)
from orbchi.series import TSeries
from orbchi.species import Species, UsageError, builtin_species, species_from_file

# q_n as a variable, so that each g_m is a polynomial in the q_n
Q = ring([f"q{n}" for n in range(3, 33)], QQ)[1:]
GENERIC = Species("generic", lambda n: Q[n - 3])


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
        assert _column_sum(GENERIC, 14) == lagrange_all_graphs(GENERIC.q, 14)

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
        import json

        from orbchi.species import species_from_file

        f = tmp_path / "short.json"
        f.write_text(json.dumps({"name": "short", "Q": {"3": 1, "4": 1, "5": 1, "6": 1}}))
        sp = species_from_file(f)
        assert list(euler_characteristic(sp, 3).entries) == [2, 3]
        with pytest.raises(ValueError, match="n=8"):
            euler_characteristic(sp, 4)


# the column sum splits between two processes only where os.fork exists and
# this process may run on two CPUs
SPLITS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
          and len(os.sched_getaffinity(0)) >= 2)
LIE = builtin_species("lie")
LIE_CROSSOVER = SPLIT_FROM // 2  # the lowest order at which lie splits: 41 loops


def file_species(tmp_path, name, valences, top):
    """A species file with random nonzero Q_n at ``valences`` and zero at
    the other n up to ``top``, loaded as a user's would be."""
    rng = random.Random(name)
    counts = {str(n): f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"
              if n in valences else 0 for n in range(3, top + 1)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "Q": counts}))
    return species_from_file(path)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork call of the test, made through a counting wrapper."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def no_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))


class TestPowerColumn:
    """The forked half's start column P_v = A^v / v!, by Miller's recurrence,
    equals the power built with the public ``TSeries`` product."""

    ORDER = 20

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord",
                                      "k_min 2", "k_min 3"])
    def test_equals_series_power(self, tmp_path, name):
        n = 2 * self.ORDER
        if name == "k_min 2":  # odd and even s-degrees
            sp = file_species(tmp_path, "k2", range(4, n + 3), n + 2)
        elif name == "k_min 3":  # with gaps
            sp = file_species(tmp_path, "k3", [m for m in range(5, n + 3) if m % 3 != 1], n + 2)
        else:
            sp = builtin_species(name)
        a = [(k, -q) for k in range(1, n + 1) if (q := sp.q(k + 2))]
        k0 = a[0][0]
        assert k0 == {"k_min 2": 2, "k_min 3": 3, "chord": 2}.get(name, 1)
        base = TSeries([0] + [dict(a).get(k, 0) for k in range(1, n + 1)])
        power = TSeries([1] + [0] * n)
        for v in range(1, n // k0 + 1):
            power *= base
            expected = {i: power[i] / factorial(v) for i in range(n + 1) if power[i]}
            assert _power_column(a, n, v) == expected
            assert min(expected) == v * k0


@pytest.mark.skipif(not SPLITS, reason="the column sum splits only with os.fork and 2 CPUs")
class TestSplitSum:
    """Above the crossover the column sum runs in two processes; the table
    is the serial one, and no process outlives the call."""

    @pytest.mark.parametrize("name", ["commutative", "associative", "lie", "chord",
                                      "seeded", "even"])
    def test_split_equals_serial(self, tmp_path, forks, name):
        if name == "seeded":
            sp = file_species(tmp_path, name, range(3, 87), 86)
        elif name == "even":  # k_min = 2, as for chord
            sp = file_species(tmp_path, name, range(4, 167, 2), 166)
        else:
            sp = builtin_species(name)
        # the crossover: the lowest order with n / k_min >= SPLIT_FROM, n = 2 * order
        crossover = LIE_CROSSOVER * (2 if name in ("chord", "even") else 1)
        assert _split_point(sp, crossover - 1) == 0 < _split_point(sp, crossover)
        # g_m does not depend on the order the sum is truncated at
        serial = _column_sum(sp, crossover + 1)
        for order in (crossover, crossover + 1):
            g = all_graphs_series(sp, order + 1)
            assert_no_child()
            assert g == TSeries(serial[:order + 1])
        assert len(forks) == 2

    def test_zero_species_does_not_split(self, no_fork):
        zero = Species("zero", lambda n: F(0))
        assert _split_point(zero, 500) == 0
        assert all_graphs_series(zero, 101) == TSeries([1] + [0] * 100)

    def test_no_fork_without_os_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _split_sum(LIE, LIE_CROSSOVER) is None

    def test_no_fork_without_affinity(self, monkeypatch, no_fork):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _split_sum(LIE, LIE_CROSSOVER) is None

    def test_no_fork_on_one_cpu(self, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _split_sum(LIE, LIE_CROSSOVER) is None

    def test_no_fork_beside_another_thread(self, no_fork):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert _split_sum(LIE, LIE_CROSSOVER) is None
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_failed_fork_falls_back_to_serial(self, monkeypatch):
        def refuse():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        before = os.pipe()
        for fd in before:
            os.close(fd)
        assert _split_sum(LIE, LIE_CROSSOVER) is None
        after = os.pipe()
        for fd in after:
            os.close(fd)
        assert after == before  # still the lowest free descriptors: the pipe is closed

    def test_failing_child_is_one_error_line(self, monkeypatch, capsys):
        def power_fails(*args):
            raise ValueError("no power")

        monkeypatch.setattr(orbchi.euler, "_power_column", power_fails)
        assert main(["compute", "--species", "lie", "--max-loops", "41"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: the forked half of the column sum failed: no power\n")
        assert_no_child()

    def test_killed_child_is_an_error(self, monkeypatch):
        monkeypatch.setattr(orbchi.euler, "_power_column",
                            lambda *args: os.kill(os.getpid(), 9))
        with pytest.raises(RuntimeError, match="failed: wait status 9$"):
            all_graphs_series(LIE, LIE_CROSSOVER + 1)
        assert_no_child()

    def test_child_killed_after_sending_is_an_error(self, monkeypatch):
        # the child sends its whole sums, then dies: the wait status, not the sums
        monkeypatch.setattr(os, "_exit", lambda status: os.kill(os.getpid(), 9))
        with pytest.raises(RuntimeError, match="failed: wait status 9$"):
            all_graphs_series(LIE, LIE_CROSSOVER + 1)
        assert_no_child()

    def test_failing_parent_kills_the_child(self, monkeypatch):
        column_sum = orbchi.euler._column_sum

        def head_fails(species, order, start=0, stop=None):
            if stop is not None:
                raise ValueError("no head")
            return column_sum(species, order, start, stop)

        monkeypatch.setattr(orbchi.euler, "_column_sum", head_fails)
        # a child that would sleep for a minute: only a kill ends it sooner
        monkeypatch.setattr(orbchi.euler, "_power_column", lambda *args: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(ValueError, match="no head"):
            all_graphs_series(LIE, LIE_CROSSOVER + 1)
        assert time.monotonic() - start < 30
        assert_no_child()
