"""Check the series pipeline against literal graph counting.

The pipeline never touches an individual graph: it expands a formal
exponential and substitutes Gaussian moments.  The oracle does the
opposite: it counts the perfect matchings of 2e half-edges by pairing
them one edge at a time, counts the partitions into vertices of each
block shape with the multinomial formula, weighs each labeled graph by
1/(2e)!, and adds everything up.  Partial matchings that leave the same
free half-edges and component labels share one sub-walk, counted once,
and no generating-function machinery is used.  The two must agree
coefficient by coefficient.

Connected counting is the interesting case, because it tests the
logarithm step: log(all-graphs series) = connected series.  There the
pairing walk carries the component of each vertex down the walk and
counts only the matchings that leave one component.
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
