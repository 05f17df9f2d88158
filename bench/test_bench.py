"""Tests of the benchmark itself: the reference is right and the checks bite.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import checks
import reference
import run

LIE = reference.BUILTIN_COUNTS["lie"]


def test_reference_known_values():
    lie = reference.Tables(LIE, 4).connected
    assert [lie[n] for n in (2, 3, 4)] == [F(-1, 24), F(-1, 48), F(-161, 5760)]
    comm = reference.Tables(reference.BUILTIN_COUNTS["commutative"], 4, True).connected
    assert [comm[2], comm[3], comm[4]] == [F(1, 12), 0, F(-1, 360)]
    chord = reference.Tables(reference.BUILTIN_COUNTS["chord"], 4).connected
    assert [chord[2], chord[3], chord[4]] == [F(-3, 8), F(7, 16), F(-131, 128)]
    assert reference.Tables(reference.BUILTIN_COUNTS["commutative"], 3).all == \
        {2: F(1, 12), 3: F(1, 288)}


def test_reference_routes_agree_for_associative():
    # raises if Lagrange inversion and B_n/(n(n-1)) disagree
    reference.Tables(reference.BUILTIN_COUNTS["associative"], 16, bernoulli_check=True)


def test_bernoulli_numbers():
    b = reference.bernoulli(12)
    assert [b[2], b[4], b[6], b[12]] == [F(1, 6), F(-1, 30), F(1, 42), F(-691, 2730)]


def _lie_op(fmt, decimal, all_graphs=False):
    return run.compute_op("lie", "lie", 6, fmt, all_graphs, decimal)


def _table(op):
    return reference.Tables(LIE, op["loops"]).table(connected=not op["all"])


def _drop_row(out, fmt):
    if fmt == "json":
        doc = json.loads(out)
        for key in ("entries", "decimals"):
            doc.get(key, {}).pop("5", None)
        return json.dumps(doc, separators=(",", ":"))
    prefix = {"plain": "5: ", "csv": "5,", "latex": "5 & "}[fmt]
    return "\n".join(line for line in out.splitlines() if not line.startswith(prefix))


@pytest.mark.parametrize("fmt", run.FORMATS)
@pytest.mark.parametrize("decimal", [False, True])
def test_compute_checks_bite(fmt, decimal):
    op = _lie_op(fmt, decimal)
    rc, out, err, _ = run.spawn(op)
    table = _table(op)
    assert checks.check_compute(op, rc, out, table) is None, out
    assert "5760" in out
    mutants = {
        "changed entry": out.replace("5760", "5761", 1),
        "flipped sign": out.replace("-", "", 1),
        "missing row": _drop_row(out, fmt),
        "truncated": out[: len(out) // 2],
    }
    for label, text in mutants.items():
        assert checks.check_compute(op, rc, text, table) is not None, label
    assert checks.check_compute(op, 1, out, table) == "exit code 1"


def test_all_graphs_checked_against_all_graphs_table():
    op = _lie_op("plain", False, all_graphs=True)
    rc, out, _, _ = run.spawn(op)
    assert checks.check_compute(op, rc, out, _table(op)) is None
    connected = reference.Tables(LIE, 6).connected
    assert checks.check_compute(op, rc, out, connected) is not None


def test_decimal_tolerance():
    op = _lie_op("plain", True)
    table = _table(op)
    good = "\n".join(f"{n}: {v} ~ {format(float(v), '.15g')}" for n, v in table.items())
    assert checks.check_compute(op, 0, good, table) is None
    off = good.replace(format(float(table[3]), ".15g"), format(float(table[3]) * 1.001, ".15g"))
    assert "decimal 3" in checks.check_compute(op, 0, off, table)


def test_verify_checks_bite():
    file_doc = run.seeded_species(7)
    ops = [{"kind": "oracle", "species": "chord", "name": "chord", "loops": 2},
           {"kind": "bernoulli", "loops": 5}, {"kind": "equality", "loops": 5}]
    ref = run.Reference(ops, "unused", file_doc)
    for op in ops:
        rc, out, _, _ = run.spawn(op)
        assert ref.check(op, rc, out) is None, out
        assert ref.check(op, 1, out) == "exit code 1"
        lines = out.splitlines()
        assert ref.check(op, rc, "\n".join(lines[:-1])) is not None
        assert ref.check(op, rc, out.replace("-", "", 1)) is not None
        assert ref.check(op, rc, out.replace(" ok", " MISMATCH", 1)) is not None


def test_analytic_pass_and_known_fault():
    ref = run.Reference([], "unused", run.seeded_species(7))
    passing = {"kind": "analytic", "t": 0.1, "terms": 3}
    rc, out, _, _ = run.spawn(passing)
    assert ref.check(passing, rc, out) is None
    assert ref.check(passing, rc, out.replace("partial sum       0.", "partial sum       1.")) \
        is not None
    failing = {"kind": "analytic", "t": 0.01, "terms": 5}
    rc, out, _, _ = run.spawn(failing)
    assert (0.01, 5) in run.KNOWN_FAULTS
    assert ref.check(failing, rc, out) == checks.KNOWN_FAULT
    assert ref.check(failing, 0, out) != checks.KNOWN_FAULT


def test_file_species_seeded_and_checked():
    assert run.seeded_species(3) == run.seeded_species(3)
    assert run.seeded_species(3) != run.seeded_species(4)
    assert all(v not in (0, "0") for v in run.seeded_species(3)["Q"].values())


def test_small_batch_round_covers_the_grid():
    (ops,) = run.workload_jobs("small-batch", 5, "file:x.json", "seeded-5")
    assert len(ops) == 5 * 16 + 2 + 15
    assert sorted(map(str, ops)) == sorted(map(str, run.workload_jobs(
        "small-batch", 6, "file:x.json", "seeded-5")[0]))
    assert sum((op.get("t"), op.get("terms")) in run.KNOWN_FAULTS for op in ops) == 5


def test_layer_metrics_self_time():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["euler.pipeline", 1.0, 8.0, 0, None],
             ["series.bivariate_exp", 1.0, 5.0, 1, 7],
             ["series.bivariate_mul", 2.0, 3.0, 2, None],
             ["species.load", 8.0, 9.0, 0, None]]
    m = run.layer_metrics([[spans], [spans]], overhead=1.0)
    assert m["cli.self_s"] == 2.0
    assert m["euler.pipeline_s"] == 7.0
    assert m["series.bivariate_exp_s"] == 4.0
    assert m["series.bivariate_mul_calls"] == 1
    assert m["series.exp_terms"] == 7


def test_traced_child_records_spans():
    op = _lie_op("plain", False)
    calls, spans = run.run_child([op], trace=True)
    assert calls[0][0] == 0
    names = {s[0] for s in spans}
    assert {"cli.main", "euler.pipeline", "series.bivariate_exp", "series.tseries_log",
            "moments.substitute", "series.bivariate_mul", "series.tseries_mul",
            "species.load"} <= names


def test_benchmark_json_matches_run():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-batch",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
