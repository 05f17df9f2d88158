"""End-to-end pipeline: species -> orbifold Euler characteristic table.

The coefficient of t^m in the all-graphs series is the signed
automorphism-weighted graph count sum (-1)^v / |Aut(G)| over all graphs
(including disconnected and empty ones) with m = #edges - #vertices and
every vertex at least trivalent.  Taking the series logarithm restricts the
sum to connected graphs, where the loop number is n = m + 1; the table is
indexed by that loop number, for n = 2..loops.

The pipeline has two steps:

1. ``all_graphs_series`` -- the vertex exponent E = -sum_{n>=3} q_n s^(n-2)
   y^n in variables (s, y) with s^2 = t, exponentiated (disjoint unions of
   vertices) with each y^j replaced by the Gaussian moment Ch_j = (j-1)!!
   (pairing up half-edges into edges).  E holds one term a_k s^k y^(k+2)
   per s-degree k, with a_k = -q_(k+2), so E = y^2 A(sy) for
   A(x) = sum_k a_k x^k and the v-vertex part of exp(E) is y^(2v) P_v(sy)
   with P_v = A^v / v!.  Its s^i term sits at y-degree i + 2v and adds
   Ch_(i+2v) P_v[i] to t^(i/2).  The sum runs over v, one column at a
   time, each made from the last by P_v[i] = (1/v) sum_k a_k P_(v-1)[i-k],
   so only two columns are ever live;
2. ``connected_series`` -- ``TSeries.log``, by the recurrence
   c_m = g_m - (1/m) sum_{k=1..m-1} k c_k g_{m-k}.

``BivariatePoly.exp`` followed by ``moments.substitute_moments`` computes
step 1 for any bivariate polynomial, holding every s-row of exp(E); the
tests keep it as the reference route.

Step 1's recurrence is ``_column_sum``, and step 2's is ``series._log``.
Both run on lists, over whatever exact ring the species' q_n lie in; only
the public functions wrap the result in a ``TSeries``.  The tests run them
on a species whose q_n are polynomial variables, so that one check covers
every species at once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .series import TSeries
from .species import Species, UsageError

__all__ = ["EulerTable", "all_graphs_series", "connected_series",
           "euler_characteristic"]

# The largest loop order accepted: the cost grows about as loops^3.8 (lie
# takes 5.8 s at 80 loops and 81 s at 160 on a 2-vCPU VM), so a 1000-loop
# table would take about a day.
MAX_LOOPS = 1000


class EulerTable(NamedTuple):
    """Exact Euler characteristics per loop number, with provenance.

    ``entries`` maps each loop number 2..N, in that order, to its value;
    N is ``max(entries)``.  ``table[n]`` reads entry n, not a field.
    """

    species_name: str
    connected: bool
    entries: dict[int, Fraction]

    def __getitem__(self, loops: int) -> Fraction:
        return self.entries[loops]


def all_graphs_series(species: Species, loops: int) -> TSeries:
    """Signed weighted count of all graphs, graded by m = edges - vertices.

    The result has order loops - 1 and constant term 1 (the empty graph);
    loops must lie in 2..MAX_LOOPS, and the species must cover valences up
    to 2 * loops.  Summed one vertex count at a time (step 1 above).
    """
    if loops < 2:
        raise UsageError("max-loops must be >= 2")
    if loops > MAX_LOOPS:
        raise UsageError(f"max-loops must be <= {MAX_LOOPS}")
    species.check_coverage(2 * loops)
    return TSeries(_column_sum(species, loops - 1))


def _column_sum(species: Species, order: int) -> list:
    """g_0..g_order of the all-graphs series, by step 1 above."""
    n = 2 * order
    # (k, a_k) in rising k, the nonzero terms of E's s-rows
    a = [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]
    ch = [1]  # ch[m] = Ch_(2m) = (2m-1)!!, up to the top y-degree 3n
    for m in range(1, 3 * order + 1):
        ch.append((2 * m - 1) * ch[-1])
    g = [Fraction(0)] * (order + 1)
    v, col = 0, {0: Fraction(1)}  # P_0 = 1; a column maps s-degree to coefficient
    while col:  # P_v is empty once v > n, or at once when E = 0
        for i, c in col.items():
            if not i % 2:
                g[i // 2] += ch[i // 2 + v] * c
        v += 1
        acc: dict[int, Fraction] = {}
        for j, c in col.items():
            for k, ak in a:
                if j + k > n:
                    break
                acc[j + k] = acc.get(j + k, 0) + ak * c
        col = {i: c / v for i, c in acc.items() if c}
    return g


def connected_series(g: TSeries) -> TSeries:
    """Restrict an all-graphs series to connected graphs via the logarithm."""
    return g.log()


def euler_characteristic(species: Species, loops: int, connected: bool = True) -> EulerTable:
    """Euler characteristic table for loop numbers 2..loops.

    Entry n is the coefficient of t^(n-1) of the connected (default) or
    all-graphs series; connected graphs with loop number n have
    edges - vertices = n - 1.
    """
    g = all_graphs_series(species, loops)
    c = connected_series(g) if connected else g
    entries = {n: c[n - 1] for n in range(2, loops + 1)}
    return EulerTable(species.name, connected, entries)
