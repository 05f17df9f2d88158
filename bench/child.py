"""Run a list of ``orbchi.cli.main`` calls in this interpreter.

Reads a JSON job from stdin: ``{"src": DIR, "argvs": [[...], ...],
"trace": BOOL}``.  Each call's stdout and stderr are captured, and its
wall time is taken around ``main`` alone.  With ``trace`` on, the
functions below are wrapped at the names their callers look up, and
every call into them is kept as a span ``(name, start, end, parent)``;
the spans are written out with the results when the job ends.

Writes one JSON object to stdout:
``{"calls": [[rc, out, err, seconds], ...], "spans": [...]}``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

# (module, class, attribute, span name); a class attribute is wrapped on the class,
# so operator dispatch (``a * b``) reaches the wrapper as well.
TRACED = [
    ("orbchi.cli", None, "euler_characteristic", "euler.pipeline"),
    ("orbchi.cli", None, "all_graphs_series", "euler.pipeline"),
    ("orbchi.cli", None, "connected_series", "euler.pipeline"),
    ("orbchi.euler", None, "substitute_moments", "moments.substitute"),
    ("orbchi.series", "BivariatePoly", "exp", "series.bivariate_exp"),
    ("orbchi.series", "BivariatePoly", "__mul__", "series.bivariate_mul"),
    ("orbchi.series", "TSeries", "log", "series.tseries_log"),
    ("orbchi.series", "TSeries", "__mul__", "series.tseries_mul"),
    ("orbchi.cli", None, "oracle_all_graphs_coefficient", "oracle.all_graphs"),
    ("orbchi.cli", None, "oracle_connected_coefficient", "oracle.connected"),
    ("orbchi.cli", None, "builtin_species", "species.load"),
    ("orbchi.cli", None, "species_from_file", "species.load"),
    ("orbchi.cli", None, "verify_bernoulli", "bernoulli.verify"),
    ("orbchi.cli", None, "check_commutative_asymptotics", "analytic.check"),
]


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or -1, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name == "series.bivariate_exp":
                span[4] = sum(1 for _ in result.items())
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED name that exists; a missing one is skipped."""
        for module, cls, attr, name in TRACED:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self.wrap(fn, name))


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import orbchi.cli

    if Path(orbchi.cli.__file__).resolve().parent.parent != src:
        print(f"error: imported orbchi from {orbchi.cli.__file__}", file=sys.stderr)
        return 2
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    cli_main = orbchi.cli.main
    if tracer:
        cli_main = tracer.wrap(cli_main, "cli.main")
    calls = []
    for argv in job["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli_main(list(argv))
            except Exception as exc:  # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        calls.append([rc, out.getvalue(), err.getvalue(), seconds])
    json.dump({"calls": calls, "spans": tracer.spans if tracer else []}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
