"""Unit tests for the species -> Euler characteristic table pipeline."""

from fractions import Fraction as F

import pytest

from orbchi.euler import (
    MAX_LOOPS,
    EulerTable,
    all_graphs_series,
    connected_series,
    euler_characteristic,
)
from orbchi.series import TSeries
from orbchi.species import Species, UsageError, builtin_species


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
