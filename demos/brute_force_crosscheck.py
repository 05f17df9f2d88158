"""Check the series pipeline against literal graph counting.

The pipeline never touches an individual graph: it expands a formal
exponential and substitutes Gaussian moments.  The oracle does the
opposite: it enumerates every perfect matching of 2e half-edges, counts
the partitions into vertices of each block shape with the multinomial
formula, weighs each labeled graph by 1/(2e)!, and adds everything up.
The two must agree coefficient by coefficient.

Connected counting is the interesting case, because it tests the
logarithm step: log(all-graphs series) = connected series.  There the
pairing walk carries the component of each vertex down to every
finished pairing and keeps only those that leave one component.
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
    g = all_graphs_series(sp, 3)
    c = connected_series(g)
    for m in (1, 2):
        ga = oracle_all_graphs_coefficient(sp, m, 3 * m)
        co = oracle_connected_coefficient(sp, m, 3 * m)
        assert g[m] == ga and c[m] == co
        print(f"  {name:>12} m={m}:  all {str(ga):>7}   connected {co}")
print()
print(f"pipeline = oracle for every species, {time.perf_counter() - start:.1f}s")
