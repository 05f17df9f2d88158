"""Unit tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import orbchi.cli
import orbchi.oracle
from orbchi.cli import FORMATS, main
from orbchi.euler import euler_characteristic
from orbchi.species import species_from_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_lie_plain(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "lie",
                           "--max-loops", "3", "--format", "plain")
        assert code == 0
        assert out.splitlines() == ["2: -1/24", "3: -1/48"]

    def test_chord_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "chord",
                           "--max-loops", "2", "--format", "json")
        assert code == 0
        assert out.strip() == '{"species":"chord","connected":true,"entries":{"2":"-3/8"}}'

    @pytest.mark.parametrize("command", [
        ("compute", "--species", "commutative"),
        ("verify", "bernoulli"),
        ("verify", "equality"),
        ("verify", "oracle", "--species", "commutative"),
    ], ids=["compute", "verify-bernoulli", "verify-equality", "verify-oracle"])
    def test_max_loops_validation(self, capsys, command):
        code, out, err = run(capsys, *command, "--max-loops", "1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "max-loops must be >= 2" in err

    @pytest.mark.parametrize("command", [
        ("compute", "--species", "commutative"),
        ("verify", "bernoulli"),
        ("verify", "equality"),
    ], ids=["compute", "verify-bernoulli", "verify-equality"])
    def test_max_loops_ceiling(self, capsys, command):
        code, out, err = run(capsys, *command, "--max-loops", "100000")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "max-loops must be <= 1000" in err

    def test_unknown_species(self, capsys):
        code, _, err = run(capsys, "compute", "--species", "nope")
        assert code == 2
        assert "unknown species" in err

    def test_default_is_table_one_range(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "commutative")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0] == "2: 1/12"
        assert lines[-1] == "11: 0"

    def test_all_flag(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "commutative",
                           "--max-loops", "3", "--all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["connected"] is False
        assert doc["entries"] == {"2": "1/12", "3": "1/288"}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "lie",
                           "--max-loops", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["loops,value", "2,-1/24", "3,-1/48"]

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "commutative",
                           "--max-loops", "4", "--format", "latex")
        assert code == 0
        assert out.splitlines() == [
            "2 & \\frac{1}{12} \\\\",
            "3 & 0 \\\\",
            "4 & -\\frac{1}{360} \\\\",
        ]

    def test_decimal_marked(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "commutative",
                           "--max-loops", "2", "--decimal")
        assert code == 0
        assert out.splitlines() == ["2: 1/12 ~ 0.0833333333333333"]

    @pytest.mark.parametrize("q, decimals, fmt", [
        ("1" + "0" * 200, ["2.08333333333333e+399", "3.125e+799"], "plain"),
        ("1/1" + "0" * 400, ["-1.25e-401", "-2.08333333333333e-402"], "plain"),
        # exact values of 3000 and 6000 digits, past str(int)'s default cap
        *[("1" + "0" * 1500, ["2.08333333333333e+2999", "3.125e+5999"], fmt)
          for fmt in FORMATS],
        # the sign goes before each format's fraction template
        *[("1/1" + "0" * 400, ["-1.25e-401", "-2.08333333333333e-402"], fmt)
          for fmt in ("csv", "json", "latex")],
    ])
    def test_decimal_beyond_float_range(self, capsys, tmp_path, q, decimals, fmt):
        f = tmp_path / "extreme.json"
        f.write_text(json.dumps({"name": "extreme", "Q": {str(n): q for n in range(3, 7)}}))
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "compute", "--species", f"file:{f}",
                             "--max-loops", "3", "--format", fmt, "--decimal")
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
        # the expected exact text, from str() with the cap lifted here only
        table = euler_characteristic(species_from_file(f), 3)
        if cap:
            sys.set_int_max_str_digits(0)
        try:
            exact = {n: str(v) for n, v in table.entries.items()}
            latex = {n: str(v) if v.denominator == 1 else
                     f"{'-' * (v < 0)}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"
                     for n, v in table.entries.items()}
        finally:
            if cap:
                sys.set_int_max_str_digits(cap)
        rows = list(zip(exact, decimals))
        assert out.splitlines() == {
            "plain": [f"{n}: {exact[n]} ~ {d}" for n, d in rows],
            "csv": ["loops,value,decimal"] + [f"{n},{exact[n]},{d}" for n, d in rows],
            "json": [json.dumps({"species": "extreme", "connected": True,
                                 "entries": {str(n): exact[n] for n, _ in rows},
                                 "decimals": {str(n): d for n, d in rows}},
                                separators=(",", ":"))],
            "latex": [f"{n} & {latex[n]} \\\\ % {d}" for n, d in rows],
        }[fmt]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "--species", "lie", "--format", "json")
        assert code == 0
        rendered = json.dumps(json.loads(out), separators=(",", ":"))
        assert rendered == out.strip()

    def test_deterministic(self, capsys):
        args = ("compute", "--species", "associative", "--format", "csv")
        _, first, _ = run(capsys, *args)
        # a parse failure in between leaves the shared parser unchanged
        code, _, _ = run(capsys, "compute")
        assert code == 2
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_species_file(self, capsys, tmp_path):
        f = tmp_path / "ones.json"
        f.write_text(json.dumps({"name": "ones", "Q": {str(n): 1 for n in range(3, 9)}}))
        code, out, _ = run(capsys, "compute", "--species", f"file:{f}",
                           "--max-loops", "4")
        assert code == 0
        assert out.splitlines() == ["2: 1/12", "3: 0", "4: -1/360"]

    def test_species_file_missing(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "--species",
                           f"file:{tmp_path / 'none.json'}")
        assert code == 1
        assert "cannot read species file" in err

    def test_species_file_missing_before_max_loops(self, capsys, tmp_path):
        # the species is resolved first, so the file error decides the code
        code, out, err = run(capsys, "compute", "--species",
                             f"file:{tmp_path / 'none.json'}", "--max-loops", "1")
        assert code == 1
        assert out == ""
        assert "cannot read species file" in err

    def test_species_file_too_deep(self, capsys, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text('{"name":"x","Q":' + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, "compute", "--species", f"file:{f}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize("q", [
        '{"3": %s}', '{"3": "%s"}', '{"3": "1/%s"}', '{"3": 1, "%s": 0}',
    ], ids=["literal", "string", "fraction", "valence-key"])
    def test_species_file_past_str_digit_cap(self, capsys, tmp_path, q):
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not cap:
            pytest.skip("this Python converts integers of any length")
        f = tmp_path / "huge.json"
        f.write_text('{"name": "x", "Q": ' + q % ("1" + "0" * cap) + "}")
        code, out, err = run(capsys, "compute", "--species", f"file:{f}",
                             "--max-loops", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Exceeds the limit" in err
        assert len(err) < 300

    @pytest.mark.parametrize("text", ["x" * 5000, "a\nb"], ids=["long", "newline"])
    @pytest.mark.parametrize("doc", [
        '{"name": %s, "Q": {"3": 1, "4": 1}}', '{"name": "x", "Q": {%s: 1}}',
        '{"name": "x", "Q": {"3": %s}}',
    ], ids=["name", "valence-key", "count"])
    def test_species_file_text_on_one_short_line(self, capsys, tmp_path, doc, text):
        f = tmp_path / "quoted.json"
        f.write_text(doc % json.dumps(text))
        code, out, err = run(capsys, "compute", "--species", f"file:{f}",
                             "--max-loops", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert len(err) < 300

    @pytest.mark.parametrize("text", [None, '{"name": "x", "Q": {"3": 1, "5": 1}}'],
                             ids=["unreadable", "malformed"])
    def test_species_file_path_with_newline_on_one_line(self, capsys, tmp_path, text):
        f = tmp_path / "a\nb.json"
        if text is not None:
            f.write_text(text)
        code, out, err = run(capsys, "compute", "--species", f"file:{f}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(str(f)) in err

    def test_other_exception_is_one_line_exit_1(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ZeroDivisionError("division by zero")
        monkeypatch.setattr(orbchi.cli, "euler_characteristic", boom)
        code, out, err = run(capsys, "compute", "--species", "lie")
        assert code == 1
        assert out == ""
        assert err == "error: division by zero\n"

    def test_species_file_insufficient_coverage(self, capsys, tmp_path):
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"name": "short", "Q": {"3": 1, "4": 1}}))
        code, _, err = run(capsys, "compute", "--species", f"file:{f}",
                           "--max-loops", "3")
        assert code == 1
        assert "n=6" in err

    def test_species_file_repeated_valence(self, capsys, tmp_path):
        f = tmp_path / "twice.json"
        for text, message in [
            ('{"name": "twice", "Q": {"3": 1, "03": 5, "4": 0}}', "valence 3 given twice"),
            ('{"name": "dup", "Q": {"3": 1, "3": 5, "4": 0}}', "key '3' given twice"),
            ('{"name": "a", "name": "b", "Q": {"3": 1}}', "key 'name' given twice"),
        ]:
            f.write_text(text)
            code, out, err = run(capsys, "compute", "--species", f"file:{f}",
                                 "--max-loops", "2")
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert message in err

    def test_usage_error_from_argparse(self, capsys):
        code = main(["compute"])  # --species is required
        assert code == 2


@pytest.mark.parametrize("argv", [
    "compute --species lie --max-loops x",
    "verify analytic --t x",
    "compute --species lie --format xml",
    "compute",
    "verify",
    "frobnicate",
    "compute --species lie extra",
    "compute --species lie a\nb",  # an unrecognized argument holding a newline
])
def test_parse_failure_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv.split(" "))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "compute --species lie --max-loops {}",
    "verify analytic --t {}",
    "compute --species lie --format {}",
    "compute --species lie {}",
    "{}",
], ids=["int", "float", "choice", "unrecognized", "command"])
@pytest.mark.parametrize("value", ["x" * 5000, "1" * 5000, "'\"\n" * 1700],
                         ids=["letters", "digits", "quotes"])
def test_parse_failure_cuts_a_long_value(capsys, argv, value):
    # the value is echoed cut, as species-file text is: one short line
    code, out, err = run(capsys, *argv.format(value).split(" "))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len(err.encode()) < 200


def test_help_is_usage_on_stdout_exit_0(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: orbchi")


@pytest.mark.parametrize("command", [
    *[("compute", "--format", fmt, "--decimal") for fmt in FORMATS],
    ("verify", "oracle"),
], ids=[*FORMATS, "verify-oracle"])
def test_output_leaves_str_digit_cap_alone(capsys, monkeypatch, tmp_path, command):
    # values of 5000 and 10000 digits print in full with the cap untouched
    def refuse(limit):
        raise AssertionError(f"set_int_max_str_digits({limit}) called")
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    f = tmp_path / "huge.json"
    f.write_text(json.dumps({"name": "huge",
                             "Q": {str(n): "1" + "0" * 2500 for n in range(3, 13)}}))
    code, out, err = run(capsys, *command, "--species", f"file:{f}", "--max-loops", "3")
    assert (code, err) == (0, "")
    assert len(out) > 15000


@pytest.mark.parametrize("species, loops", [("chord", 40), ("file", 41), ("chord", 41)],
                         ids=["fraction-columns", "integer-columns", "inverse-series"])
def test_no_warning_in_a_fresh_process(tmp_path, species, loops):
    # each of the three sum routes once, with every warning an error: below
    # euler.INTEGER_FROM, and from it a file species and a built-in; a
    # deprecation in library code fails here on every interpreter, and a
    # fresh process makes warnings raised while importing count too
    if species == "file":  # chord's counts under its name, but no inverse-series row
        f = tmp_path / "chord.json"
        f.write_text(json.dumps({"name": "chord", "Q": {
            str(n): 0 if n % 2 else math.prod(range(1, n, 2)) for n in range(3, 2 * loops + 1)}}))
        species = f"file:{f}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(orbchi.cli.__file__).resolve().parent.parent),
                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "orbchi.cli", "compute",
                           "--species", species, "--max-loops", str(loops), "--all",
                           "--format", "json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(json.loads(proc.stdout)["entries"]) == [str(n) for n in range(2, loops + 1)]


@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
def test_approx_rounds_like_float_formatting(x):
    # format() rounds a float's exact binary value correctly, half to even
    assert orbchi.cli._approx(Fraction(x)) == format(x, ".15g")


class TestVerify:
    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "verify", "bernoulli", "--max-loops", "6")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10  # 5 loop orders x 2 species
        assert all(line.endswith("ok") for line in lines)

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--species", "commutative")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # all-graphs and connected at m = 1, 2
        assert all("ok" in line for line in lines)

    def test_oracle_beyond_str_digit_cap(self, capsys, tmp_path):
        # exact values of 5000 and 10000 digits, past str(int)'s default cap
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"name": "huge",
                                 "Q": {str(n): "1" + "0" * 2500 for n in range(3, 13)}}))
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "verify", "oracle", "--species", f"file:{f}",
                             "--max-loops", "3")
        assert code == 0, err
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith(" ok") for line in lines)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    @pytest.mark.parametrize("loops", [2, 3])
    @pytest.mark.parametrize("command", [("compute",), ("verify", "oracle")],
                             ids=["compute", "verify-oracle"])
    def test_oracle_needs_the_coverage_compute_needs(self, capsys, tmp_path, command, loops):
        # both need Q_3..Q_2N at --max-loops N, and neither needs more
        f = tmp_path / "sp.json"
        for top, expected in ((2 * loops, 0), (2 * loops - 1, 1)):
            f.write_text(json.dumps({"name": "x", "Q": {str(n): 1 for n in range(3, top + 1)}}))
            code, _, err = run(capsys, *command, "--species", f"file:{f}",
                               "--max-loops", str(loops))
            assert code == expected, err
            if expected:
                assert f"n={2 * loops} is required" in err

    def test_oracle_budget(self, capsys):
        # refused before the pairing walk is first entered
        before = orbchi.oracle._connected.cache_info()
        code, out, err = run(capsys, "verify", "oracle", "--species", "commutative",
                             "--max-loops", "12")
        assert code == 2
        assert out == ""
        assert err == "error: the oracle counts graphs up to 11 loops (m <= 10)\n"
        assert orbchi.oracle._connected.cache_info() == before

    def test_oracle_at_the_loop_cap(self, capsys):
        code, out, err = run(capsys, "verify", "oracle", "--species", "lie",
                             "--max-loops", "11")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 20  # all-graphs and connected at m = 1..10
        assert all(line.endswith(" ok") for line in lines)
        assert lines[-1].startswith("connected m=10: ")

    def test_analytic(self, capsys):
        code, out, _ = run(capsys, "verify", "analytic")
        assert code == 0
        assert "asymptotic check: pass" in out

    def test_analytic_flags(self, capsys):
        code, out, _ = run(capsys, "verify", "analytic", "--t", "0.2", "--terms", "1")
        assert code == 0
        assert "t=0.2 terms=1" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "0.5", "t must lie"),
        ("--terms", "6", "terms must lie"),
    ], ids=["t", "terms"])
    def test_analytic_domain_usage(self, capsys, flag, value, message):
        code, out, err = run(capsys, "verify", "analytic", flag, value)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("t", ["1e-7", "1e-20", "5e-324"])
    def test_analytic_t_below_floor_usage(self, capsys, t):
        code, out, err = run(capsys, "verify", "analytic", "--t", t)
        assert code == 2
        assert out == ""
        assert err == "error: t must be at least 1e-6: below it the float " \
                      "log-gamma expression carries no information\n"

    def test_analytic_at_t_floor_runs(self, capsys):
        code, out, err = run(capsys, "verify", "analytic", "--t", "1e-6")
        assert code in (0, 1)  # a report either way, not a usage error
        assert out.startswith("t=1e-06 terms=3\n")
        assert err == ""

    def test_equality(self, capsys):
        code, out, _ = run(capsys, "verify", "equality")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.endswith("ok") for line in lines)

    @pytest.mark.parametrize("patched, command, line", [
        ("euler_characteristic", ("bernoulli", "--max-loops", "6"),
         "associative n=4: 359/360 MISMATCH expected -1/360"),
        ("euler_characteristic", ("equality", "--max-loops", "6"),
         "n=4: associative 359/360 commutative -1/360 MISMATCH"),
        ("oracle_connected_coefficient", ("oracle", "--species", "lie"),
         "connected m=2: pipeline -1/48 oracle 47/48 MISMATCH"),
    ], ids=["bernoulli", "equality", "oracle"])
    def test_mismatch_line_and_exit_1(self, capsys, monkeypatch, patched, command, line):
        # one value off by 1 gives exactly one MISMATCH line; every other line is ok
        real = getattr(orbchi.cli, patched)

        def off_by_one(species, *args, **kwargs):
            result = real(species, *args, **kwargs)
            if patched == "oracle_connected_coefficient":
                return result + 1 if args[0] == 2 else result
            if result.species_name == "associative":
                result.entries[4] += 1
            return result
        monkeypatch.setattr(orbchi.cli, patched, off_by_one)
        code, out, err = run(capsys, "verify", *command)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [x for x in lines if not x.endswith(" ok")] == [line]

    def test_unknown_suite(self, capsys):
        code = main(["verify", "nothing"])
        assert code == 2
