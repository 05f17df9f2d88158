"""Unit tests for built-in species, the file loader, and valence bounds."""

import json
from fractions import Fraction as F
from math import factorial

import pytest

import orbchi
from orbchi.species import (
    BUILTIN_SPECIES,
    UsageError,
    builtin_species,
    species_from_file,
)


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_SPECIES) == {"commutative", "associative", "lie", "chord"}

    def test_commutative_q3(self):
        assert builtin_species("commutative").q(3) == F(1, 6)

    def test_associative_q3(self):
        sp = builtin_species("associative")
        assert sp.q(3) == F(1, 3)
        assert sp.structure_count(3) == 2

    def test_lie_q4(self):
        sp = builtin_species("lie")
        assert sp.q(4) == F(1, 12)
        assert sp.structure_count(4) == 2

    def test_chord_low_valences(self):
        sp = builtin_species("chord")
        assert sp.q(3) == 0
        assert sp.q(4) == F(1, 8)

    def test_below_valence_three_is_zero(self):
        for name in BUILTIN_SPECIES:
            sp = builtin_species(name)
            assert sp.q(0) == sp.q(1) == sp.q(2) == 0

    def test_unknown_name_lists_valid(self):
        with pytest.raises(UsageError, match="associative, chord, commutative, lie"):
            builtin_species("quantum")

    def test_usage_error_is_exported_value_error(self):
        assert orbchi.UsageError is UsageError
        assert "UsageError" in orbchi.__all__
        assert issubclass(UsageError, ValueError)

    def test_structure_counts_are_nonnegative_integers(self):
        for name in BUILTIN_SPECIES:
            sp = builtin_species(name)
            for n in range(3, 23):
                count = sp.structure_count(n)
                assert count.denominator == 1 and count >= 0

    def test_chord_odd_valences_vanish(self):
        sp = builtin_species("chord")
        assert all(sp.q(n) == 0 for n in range(3, 23, 2))

    def test_count_ratios(self):
        comm = builtin_species("commutative")
        assoc = builtin_species("associative")
        lie = builtin_species("lie")
        for n in range(3, 23):
            assert assoc.q(n) / comm.q(n) == factorial(n - 1)
            assert lie.q(n) / comm.q(n) == factorial(n - 2)


def write_species(tmp_path, doc, name="sp.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc), encoding="utf-8")
    return f


class TestSpeciesFromFile:
    def test_commutative_clone(self, tmp_path):
        f = write_species(tmp_path, {"name": "ones", "Q": {str(n): 1 for n in range(3, 23)}})
        sp = species_from_file(f)
        comm = builtin_species("commutative")
        assert sp.name == "ones"
        assert sp.max_n == 22
        assert all(sp.q(n) == comm.q(n) for n in range(3, 23))

    def test_chord_clone(self, tmp_path):
        from orbchi.moments import gaussian_moment

        f = write_species(tmp_path, {
            "name": "pairs",
            "Q": {str(n): gaussian_moment(n) for n in range(3, 13)},
        })
        sp = species_from_file(f)
        chord = builtin_species("chord")
        assert all(sp.q(n) == chord.q(n) for n in range(3, 13))

    def test_rational_counts(self, tmp_path):
        f = write_species(tmp_path, {"name": "half", "Q": {"3": "1/2", "4": "-2/3"}})
        sp = species_from_file(f)
        assert sp.structure_count(3) == F(1, 2)
        assert sp.structure_count(4) == F(-2, 3)

    def test_gap_reported(self, tmp_path):
        f = write_species(tmp_path, {"name": "gap", "Q": {"3": 1, "4": 1, "6": 1}})
        with pytest.raises(ValueError, match="missing Q_5"):
            species_from_file(f)

    @pytest.mark.parametrize("case", ["missing", "directory", "undecodable"])
    def test_missing_file(self, tmp_path, case):
        path = {"missing": tmp_path / "absent.json", "directory": tmp_path,
                "undecodable": tmp_path / "bad.bin"}[case]
        if case == "undecodable":
            path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="cannot read species file") as excinfo:
            species_from_file(path)
        assert f"'{path}'" in str(excinfo.value)
        assert not isinstance(excinfo.value, UsageError)

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"name":"x","Q":' + "[" * 100000 + "]" * 100000 + "}",  # too deep to decode
    ], ids=["syntax", "too-deep"])
    def test_invalid_json(self, tmp_path, text):
        f = tmp_path / "broken.json"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON") as excinfo:
            species_from_file(f)
        assert not isinstance(excinfo.value, UsageError)

    def test_wrong_shape(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": [1, 2, 3]})
        with pytest.raises(ValueError, match="'Q' map"):
            species_from_file(f)

    def test_bad_valence_key(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"three": 1}})
        with pytest.raises(ValueError, match="non-integer valence key"):
            species_from_file(f)

    @pytest.mark.parametrize("text, message", [
        ('{"name": "x", "Q": {"3": 1, "03": 5, "4": 0}}', "valence 3 given twice"),
        ('{"name": "x", "Q": {"2": 0, " 2": 0, "3": 1}}', "valence 2 given twice"),
        ('{"name": "x", "Q": {"3": 1, "3": 5, "4": 0}}', "key '3' given twice"),
        ('{"name": "x", "name": "y", "Q": {"3": 1}}', "key 'name' given twice"),
    ], ids=["leading-zero", "below-three", "verbatim-valence", "verbatim-name"])
    def test_repeated_valence_rejected(self, tmp_path, text, message):
        f = tmp_path / "twice.json"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as excinfo:
            species_from_file(f)
        assert not isinstance(excinfo.value, UsageError)
        assert len(str(excinfo.value).splitlines()) == 1

    def test_bad_count_value(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"3": 1.5}})
        with pytest.raises(ValueError, match="integer or 'p/q'"):
            species_from_file(f)

    def test_low_valence_zero_allowed(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"0": 0, "2": 0, "3": 5}})
        sp = species_from_file(f)
        assert sp.structure_count(3) == 5

    def test_low_valence_nonzero_rejected(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"2": 1, "3": 1}})
        with pytest.raises(ValueError, match="at least trivalent"):
            species_from_file(f)

    def test_coverage_enforced_at_use(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"3": 1, "4": 1}})
        sp = species_from_file(f)
        sp.check_coverage(4)
        with pytest.raises(ValueError, match="n=5"):
            sp.check_coverage(5)

