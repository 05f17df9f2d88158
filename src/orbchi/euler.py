"""End-to-end pipeline: species -> orbifold Euler characteristic table.

The coefficient of t^m in the all-graphs series is the signed
automorphism-weighted graph count sum (-1)^v / |Aut(G)| over all graphs
(including disconnected and empty ones) with m = #edges - #vertices and
every vertex at least trivalent.  Taking the series logarithm restricts the
sum to connected graphs, where the loop number is n = m + 1; the table is
indexed by that loop number, for n = 2..loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .moments import build_exponent, substitute_moments
from .series import TSeries
from .species import Species, UsageError

__all__ = ["EulerTable", "all_graphs_series", "connected_series",
           "euler_characteristic"]

# The largest loop order accepted: the cost grows about as loops^4, so a
# 1000-loop table would take days.
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
    loops must lie in 2..MAX_LOOPS.
    """
    if loops < 2:
        raise UsageError("max-loops must be >= 2")
    if loops > MAX_LOOPS:
        raise UsageError(f"max-loops must be <= {MAX_LOOPS}")
    exponent = build_exponent(species, 2 * (loops - 1))
    return substitute_moments(exponent.exp())


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
