"""Unit tests for built-in species, the file loader, and valence bounds."""

import json
import sys
from fractions import Fraction as F
from math import factorial

import pytest

import orbchi
from orbchi.species import UsageError, builtin_species, species_from_file

BUILTINS = ("commutative", "associative", "lie", "chord")


class TestBuiltins:
    def test_names(self):
        for name in BUILTINS:
            assert builtin_species(name).name == name
            assert repr(builtin_species(name)) == f"Species({name!r}, unbounded)"
        # the unknown-name message lists every built-in and nothing else
        with pytest.raises(UsageError, match=r"\(valid names: associative, chord, commutative, lie\)$"):
            builtin_species("quantum")

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
        for name in BUILTINS:
            sp = builtin_species(name)
            assert sp.q(0) == sp.q(1) == sp.q(2) == 0

    def test_unknown_name_lists_valid(self):
        with pytest.raises(UsageError, match="associative, chord, commutative, lie"):
            builtin_species("quantum")

    @pytest.mark.parametrize("name", ["q" * 5000, "a\nb"], ids=["long", "newline"])
    def test_unknown_name_on_one_short_line(self, name):
        with pytest.raises(UsageError, match="^unknown species ") as excinfo:
            builtin_species(name)
        assert len(str(excinfo.value).splitlines()) == 1
        assert len(str(excinfo.value)) < 120

    def test_usage_error_is_exported_value_error(self):
        assert orbchi.UsageError is UsageError
        assert "UsageError" in orbchi.__all__
        assert issubclass(UsageError, ValueError)

    def test_structure_counts_are_nonnegative_integers(self):
        for name in BUILTINS:
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
        assert repr(sp) == "Species('ones', max_n=22)"
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

    @pytest.mark.parametrize("q, where", [
        ('{"3": %s}', ""),
        ('{"3": "%s"}', "Q_3: "),
        ('{"3": "1/%s"}', "Q_3: "),
        ('{"3": 1, "%s": 0}', "valence key: "),
    ], ids=["literal", "string", "fraction", "valence-key"])
    def test_integer_past_str_digit_cap(self, tmp_path, q, where):
        # a well-formed integer past the cap (4300 digits by default) is
        # reported as the cap, naming where it sits but none of its digits
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not cap:
            pytest.skip("this Python converts integers of any length")
        f = tmp_path / "huge.json"
        f.write_text('{"name": "x", "Q": ' + q % ("1" + "0" * cap) + "}", encoding="utf-8")
        with pytest.raises(ValueError, match="Exceeds the limit") as excinfo:
            species_from_file(f)
        message = str(excinfo.value)
        assert message.startswith(f"species file '{f}': {where}Exceeds the limit")
        assert len(message.splitlines()) == 1
        assert len(message) < len(str(f)) + 200
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
        # space and newline are no part of an integer, so the second key is
        # rejected on its own before it can repeat a valence
        ('{"name": "x", "Q": {"2": 0, " 2": 0, "3": 1}}', "non-integer valence key ' 2'$"),
        ('{"name": "x", "Q": {"3": 1, "3": 5, "4": 0}}', "key '3' given twice"),
        ('{"name": "x", "name": "y", "Q": {"3": 1}}', "key 'name' given twice"),
        ('{"name": "x", "Q": {"3": 1, "\\n3": 5}}', r"non-integer valence key '\\n3'$"),
        ('{"name": "x", "Q": {"3": 1, "%s3": 5}}' % (" " * 5000),
         r"non-integer valence key ' +\.\.\. +3'$"),
    ], ids=["leading-zero", "below-three", "verbatim-valence", "verbatim-name",
            "newline-valence", "long-valence"])
    def test_repeated_valence_rejected(self, tmp_path, text, message):
        f = tmp_path / "twice.json"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message) as excinfo:
            species_from_file(f)
        assert not isinstance(excinfo.value, UsageError)
        assert len(str(excinfo.value).splitlines()) == 1
        assert len(str(excinfo.value)) < len(str(f)) + 120

    @pytest.mark.parametrize("spelling", ["1_0", "\u0663", "+1", " 2"],
                             ids=["underscore", "arabic-indic", "plus", "space"])
    @pytest.mark.parametrize("where", ["count", "numerator", "denominator", "valence-key"])
    def test_integer_is_ascii_digits_only(self, tmp_path, where, spelling):
        # int() would read each of these; a species file takes -?[0-9]+ only
        q, got = {"count": ({"3": spelling}, f"Q_3 must be an integer or 'p/q', got {spelling!r}"),
                  "numerator": ({"3": f"{spelling}/7"},
                                f"Q_3 must be an integer or 'p/q', got '{spelling}/7'"),
                  "denominator": ({"3": f"7/{spelling}"},
                                  f"Q_3 must be an integer or 'p/q', got '7/{spelling}'"),
                  "valence-key": ({"3": 1, spelling: 0},
                                  f"non-integer valence key {spelling!r}")}[where]
        f = write_species(tmp_path, {"name": "x", "Q": q})
        with pytest.raises(ValueError) as excinfo:
            species_from_file(f)
        assert str(excinfo.value) == f"species file '{f}': {got}"
        assert not isinstance(excinfo.value, UsageError)

    def test_bad_count_value(self, tmp_path):
        f = write_species(tmp_path, {"name": "x", "Q": {"3": 1.5}})
        with pytest.raises(ValueError, match="integer or 'p/q'"):
            species_from_file(f)
        # a JSON boolean is no count, though Python's bool is an int
        for value in (True, False):
            f = write_species(tmp_path, {"name": "x", "Q": {"3": value}})
            with pytest.raises(ValueError, match=f"integer or 'p/q', got {value}$"):
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


    @pytest.mark.parametrize("text", ["ok", "x" * 5000, "a\nb"],
                             ids=["short", "long", "newline"])
    @pytest.mark.parametrize("where", ["name", "valence-key", "count", "repeated-key"])
    def test_file_text_quoted_on_one_short_line(self, tmp_path, where, text):
        # text from the file is quoted cut short and escaped; short text as before
        doc = {"name": '{"name": %s, "Q": {"3": 1, "4": 1}}',
               "valence-key": '{"name": "x", "Q": {%s: 1}}',
               "count": '{"name": "x", "Q": {"3": %s}}',
               "repeated-key": '{"name": "x", "Q": {%s: 1, %s: 5}}'}[where]
        f = tmp_path / "quoted.json"
        f.write_text(doc.replace("%s", json.dumps(text)), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            species_from_file(f).check_coverage(5)
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1
        assert len(message) < len(str(f)) + 120
        if text == "ok":
            assert message == {
                "name": "species 'ok' defines Q_n only up to n=4, but n=5 is required",
                "valence-key": f"species file '{f}': non-integer valence key 'ok'",
                "count": f"species file '{f}': Q_3 must be an integer or 'p/q', got 'ok'",
                "repeated-key": f"species file '{f}': key 'ok' given twice",
            }[where]
