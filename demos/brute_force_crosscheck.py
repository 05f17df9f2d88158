"""Check the series pipeline against literal graph counting.

The pipeline never touches an individual graph: it expands a formal
exponential and substitutes Gaussian moments.  The oracle does the
opposite: for every block shape of 2e half-edges into v vertices it
counts perfect matchings, and weighs the shape by (-1)^v prod q_n /
prod mult!, which is the number of labeled partitions of that shape
times prod Q_n over (2e)!.  The two must agree coefficient by
coefficient; here up to 7 loops (m <= 6, 2e <= 36), and
``orbchi verify oracle --max-loops 11`` goes to the oracle's cap.

Every shape has (2e-1)!! matchings, so the all-graphs sum needs no
enumeration.  Connected counting is the interesting case, because it
tests the logarithm step: log(all-graphs series) = connected series.
There the oracle pairs the half-edges one edge at a time and counts only
the matchings that leave one component.  A partial matching is
remembered only as its live components and the free half-edge counts
of their vertices, so equal states share one sub-walk, and no
generating-function machinery is used.
"""

import time

from orbchi import (
    all_graphs_series,
    builtin_species,
    connected_series,
    oracle_all_graphs_coefficient,
    oracle_connected_coefficient,
)

start = time.perf_counter()
for name in ("commutative", "associative", "lie", "chord"):
    sp = builtin_species(name)
    g = all_graphs_series(sp, 7)
    c = connected_series(g)
    for m in range(1, 7):
        ga = oracle_all_graphs_coefficient(sp, m, 3 * m)
        co = oracle_connected_coefficient(sp, m, 3 * m)
        assert g[m] == ga and c[m] == co
        print(f"  {name:>12} m={m}:  all {str(ga):>7}   connected {co}")
print()
print(f"pipeline = oracle for every species, {time.perf_counter() - start:.1f}s")
