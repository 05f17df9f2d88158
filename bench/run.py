"""Benchmark of the orbchi CLI, driven from outside the program.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, one operation at a time):

    deep-lie     compute --species lie --max-loops 80, a fresh process per call
    deep-chord   compute --species chord --max-loops 100, a fresh process per call
    oracle       verify oracle --max-loops 3 for the four built-in species and
                 one seeded file species, a fresh process per call
    small-batch  97 small cli.main calls inside one child interpreter

A round is the workload's whole list of operations.  Rounds repeat while
one more would end nearer to ``--seconds`` than stopping; at least one
always runs.  Every
output is checked against ``reference.py``, which shares no code with
orbchi.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("deep-lie", "deep-chord", "oracle", "small-batch")
BUILTINS = ("commutative", "associative", "lie", "chord")
FORMATS = ("plain", "csv", "json", "latex")
ANALYTIC_GRID = [(t, k) for t in (0.2, 0.1, 0.05, 0.01, 0.001) for k in (1, 3, 5)]
# verify analytic prints FAIL on these: the double-precision residual of
# gamma_expression (~1e-14) exceeds a next-term bound as small as ~1e-36.
KNOWN_FAULTS = {(0.05, 5), (0.01, 3), (0.01, 5), (0.001, 3), (0.001, 5)}
SMALL_LOOPS = 11
FILE_VALENCES = range(3, 2 * SMALL_LOOPS + 1)
# half of the set-up samples are taken before the rounds and half after
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 90

# The console script's body: what `orbchi ARGS` runs.
ENTRY = "import sys; from orbchi.cli import main; sys.exit(main())"
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import orbchi.cli; "
                "print(time.perf_counter() - t0)")

END_TO_END = {"setup_s": "s", "table_s": "s", "oracle_s": "s",
              "batch_ops_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_TIMES = {
    "series.bivariate_exp_s": "series.bivariate_exp",
    "series.tseries_log_s": "series.tseries_log",
    "moments.substitute_s": "moments.substitute",
    "euler.pipeline_s": "euler.pipeline",
    "oracle.all_graphs_s": "oracle.all_graphs",
    "oracle.connected_s": "oracle.connected",
    "species.load_s": "species.load",
    "bernoulli.verify_s": "bernoulli.verify",
    "analytic.check_s": "analytic.check",
}
LAYER_COUNTS = {
    "series.bivariate_mul_calls": "series.bivariate_mul",
    "series.tseries_mul_calls": "series.tseries_mul",
}
PER_LAYER = {**{name: "s" for name in LAYER_TIMES},
             **{name: "count" for name in LAYER_COUNTS},
             "series.exp_terms": "count", "cli.self_s": "s",
             "trace.overhead_ratio": "ratio"}


# ---------------------------------------------------------------- inputs


def seeded_species(seed: int) -> dict:
    """A file species with nonzero rational counts Q_3..Q_22 fixed by the seed."""
    rng = random.Random(seed)
    counts = {}
    for n in FILE_VALENCES:
        num = rng.choice([k for k in range(-9, 10) if k])
        den = rng.randint(1, 9)
        counts[str(n)] = num if den == 1 else f"{num}/{den}"
    return {"name": f"seeded-{seed}", "Q": counts}


def compute_op(species: str, name: str, loops: int, fmt: str = "plain",
               all_graphs: bool = False, decimal: bool = False) -> dict:
    return {"kind": "compute", "species": species, "name": name, "loops": loops,
            "format": fmt, "all": all_graphs, "decimal": decimal}


def argv(op: dict) -> list[str]:
    kind = op["kind"]
    if kind == "compute":
        return (["compute", "--species", op["species"], "--max-loops", str(op["loops"]),
                 "--format", op["format"]] + ["--all"] * op["all"]
                + ["--decimal"] * op["decimal"])
    if kind == "oracle":
        return ["verify", "oracle", "--species", op["species"],
                "--max-loops", str(op["loops"])]
    if kind == "analytic":
        return ["verify", "analytic", "--t", repr(op["t"]), "--terms", str(op["terms"])]
    return ["verify", kind, "--max-loops", str(op["loops"])]


def workload_jobs(workload: str, seed: int, file_arg: str, file_name: str) -> list[list[dict]]:
    """One round of the workload, as a list of processes, each a list of ops."""
    if workload == "deep-lie":
        return [[compute_op("lie", "lie", 80)]]
    if workload == "deep-chord":
        return [[compute_op("chord", "chord", 100)]]
    if workload == "oracle":
        species = [(s, s) for s in BUILTINS] + [(file_arg, file_name)]
        return [[{"kind": "oracle", "species": s, "name": n, "loops": 3}]
                for s, n in species]
    ops = [compute_op(s, n, SMALL_LOOPS, fmt, all_graphs, decimal)
           for s, n in [(s, s) for s in BUILTINS] + [(file_arg, file_name)]
           for fmt in FORMATS for all_graphs in (False, True) for decimal in (False, True)]
    ops += [{"kind": "bernoulli", "loops": SMALL_LOOPS},
            {"kind": "equality", "loops": SMALL_LOOPS}]
    ops += [{"kind": "analytic", "t": t, "terms": k} for t, k in ANALYTIC_GRID]
    random.Random(seed).shuffle(ops)
    return [ops]


# -------------------------------------------------------------- reference


class Reference:
    """Reference tables for every species and loop order the ops use."""

    def __init__(self, ops: list[dict], file_arg: str, file_doc: dict):
        counts = dict(reference.BUILTIN_COUNTS)
        q = {int(n): Fraction(v) for n, v in file_doc["Q"].items()}
        counts[file_arg] = q.__getitem__
        need: dict[str, int] = {}
        for op in ops:
            if op["kind"] in ("compute", "oracle"):
                need[op["species"]] = max(need.get(op["species"], 2), op["loops"])
            elif op["kind"] in ("bernoulli", "equality"):
                for s in ("commutative", "associative"):
                    need[s] = max(need.get(s, 2), op["loops"])
        self.tables = {s: reference.Tables(counts[s], loops,
                                           bernoulli_check=s in ("commutative", "associative"))
                       for s, loops in need.items()}

    def check(self, op: dict, rc, out: str) -> str | None:
        kind = op["kind"]
        if not isinstance(rc, int):
            return f"raised {rc}"
        if kind == "compute":
            table = self.tables[op["species"]].table(connected=not op["all"])
            return checks.check_compute(op, rc, out, table)
        if kind == "oracle":
            t = self.tables[op["species"]]
            return checks.check_oracle(op, rc, out, t.g, t.c)
        if kind in ("bernoulli", "equality"):
            tables = {s: self.tables[s].connected for s in ("commutative", "associative")}
            fn = checks.check_bernoulli if kind == "bernoulli" else checks.check_equality
            return fn(op, rc, out, tables)
        t, k = op["t"], op["terms"]
        return checks.check_analytic(op, rc, out, reference.stirling_partial_sum(t, k),
                                     reference.stirling_next_term(t, k))


# -------------------------------------------------------------- processes


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(op: dict) -> list:
    """One `orbchi` process: [rc, stdout, stderr, seconds from spawn to exit]."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, "-c", ENTRY, *argv(op)], cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ["timeout", "", "", time.perf_counter() - t0]
    return [p.returncode, p.stdout, p.stderr, time.perf_counter() - t0]


def run_child(ops: list[dict], trace: bool) -> tuple[list, list]:
    """All ops as cli.main calls in one child interpreter: (calls, spans)."""
    job = {"src": str(SRC), "argvs": [argv(op) for op in ops], "trace": trace}
    try:
        p = subprocess.run([sys.executable, str(HERE / "child.py")], cwd=ROOT,
                           input=json.dumps(job), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        result = json.loads(p.stdout) if p.returncode == 0 else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        result = None
    if result is None:
        return [["child failed", "", "", 0.0] for _ in ops], []
    return result["calls"], result["spans"]


def setup_samples(count: int) -> list[float]:
    """Times for fresh interpreters to import orbchi.cli, one per process."""
    samples = []
    for _ in range(count):
        p = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if p.returncode != 0:
            raise SystemExit(f"error: cannot import orbchi.cli: {p.stderr.strip()}")
        samples.append(float(p.stdout))
    return samples


def rounds_until(seconds: float, run_round) -> list:
    """Run whole rounds while one more, at the mean pace so far, would end
    nearer to ``seconds`` than stopping now does."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (2 * len(rounds)) >= seconds:
            return rounds


# ---------------------------------------------------------------- metrics


def layer_metrics(traced_rounds: list[list[list]], overhead: float) -> dict:
    """Per-round means of the per-layer figures, from each child's spans."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    for spans_per_child in traced_rounds:
        for spans in spans_per_child:
            child_time = [0.0] * len(spans)
            for name, start, end, parent, extra in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (name, start, end, parent, extra), covered in zip(spans, child_time):
                for metric, span in LAYER_TIMES.items():
                    if name == span:
                        totals[metric] += end - start
                for metric, span in LAYER_COUNTS.items():
                    if name == span:
                        totals[metric] += 1
                if name == "series.bivariate_exp":
                    totals["series.exp_terms"] += extra
                if name == "cli.main":
                    totals["cli.self_s"] += end - start - covered
    n = len(traced_rounds)
    metrics = {name: value / n for name, value in totals.items()}
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def main(argv_in: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv_in)
    if not (SRC / "orbchi" / "cli.py").is_file():
        print(f"error: no orbchi sources under {SRC}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        file_doc = seeded_species(args.seed)
        file_path = Path(work) / "species.json"
        file_path.write_text(json.dumps(file_doc), encoding="utf-8")
        file_arg = f"file:{file_path}"
        jobs = workload_jobs(args.workload, args.seed, file_arg, file_doc["name"])
        ref = Reference([op for job in jobs for op in job], file_arg, file_doc)

        if args.trace:
            # untraced and traced rounds alternate, so a slow spell of the
            # machine weighs on both sides of the overhead ratio
            pairs = rounds_until(args.seconds, lambda: [
                [run_child(job, trace=traced) for job in jobs] for traced in (False, True)])
            rounds = [rnd for pair in pairs for rnd in pair]
        else:
            setup_samples(1)  # writes the bytecode cache
            setup = setup_samples(SETUP_SAMPLES // 2)
            if args.workload == "small-batch":
                rounds = rounds_until(args.seconds, lambda: [run_child(job, trace=False)
                                                             for job in jobs])
            else:
                rounds = rounds_until(args.seconds, lambda: [([spawn(op) for op in job], [])
                                                             for job in jobs])
            setup += setup_samples(SETUP_SAMPLES // 2)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

        attempted = failed = 0
        correct = True
        round_times, reasons = [], {}
        for rnd in rounds:
            round_time = 0.0
            for job, (calls, _spans) in zip(jobs, rnd):
                for op, (rc, out, err, seconds) in zip(job, calls):
                    attempted += 1
                    round_time += seconds
                    reason = ref.check(op, rc, out)
                    if reason is None:
                        continue
                    failed += 1
                    known = (reason == checks.KNOWN_FAULT
                             and (op.get("t"), op.get("terms")) in KNOWN_FAULTS)
                    correct = correct and known
                    key = f"{' '.join(argv(op))}: {reason}" + (f" [{err.strip()}]" if err else "")
                    reasons[key] = reasons.get(key, 0) + 1
            round_times.append(round_time)

    for key, count in sorted(reasons.items()):
        print(f"failed x{count}: {key}", file=sys.stderr)
    if args.trace:
        overhead = sum(round_times[1::2]) / sum(round_times[::2])
        values = layer_metrics([[spans for _calls, spans in rnd] for rnd in rounds[1::2]],
                               overhead)
        units = PER_LAYER
    else:
        ops_per_round = sum(map(len, jobs))
        values = {
            "setup_s": statistics.median(setup),
            "table_s": statistics.median(round_times) / ops_per_round,
            "oracle_s": statistics.median(round_times),
            "batch_ops_per_s": attempted / sum(round_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
