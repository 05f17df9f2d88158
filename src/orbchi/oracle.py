"""Brute-force enumeration oracle for the graph-sum coefficients.

A labeled graph on 2e half-edges is a pair (pairing, partition): the
partition blocks are the vertices, the pairs are the edges.  Summing
(-1)^v * prod Q_n / (2e)! over all such pairs gives the coefficient of
t^m (m = e - v) in the all-graphs series; restricting to connected pairs
gives the connected series.

Weight and connectivity depend on a partition only through its multiset
of block sizes (its shape), so the sum runs over shapes.  A shape with
blocks n_1..n_v stands for (2e)! / (prod n_b! * prod mult!) partitions,
where mult runs over the multiplicities of the sizes, so its weight is
(-1)^v * prod q_n / prod mult! (q_n = Q_n / n!) times its pairing count.

Every shape on 2e half-edges has (2e - 1)!! pairings, so only the
connecting ones are walked.  Half-edges of one vertex are
interchangeable, so a state is the sorted tuple of live components, each
the sorted tuple of its vertices' free half-edge counts.  A step pairs
one free half-edge of the first vertex of the first component with
another of the same vertex (f - 1 ways) or with one of any other vertex
w (f_w ways), merging two components in the latter case.  A step that
closes a component while another is still live cannot lead to a
connected graph, so it ends there.  Equal states have equal completions,
so one module-level cache serves every shape, order and species.  No
generating-function machinery is imported, so these sums are an
independent check on the series pipeline.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterator

from .species import Species, UsageError

__all__ = ["oracle_all_graphs_coefficient", "oracle_connected_coefficient"]

# The largest loop number counted (m = e - v <= MAX_LOOPS - 1).  At 11
# loops the walk meets 2e <= 60 half-edges: about 2-4 s for the first
# species in a process on a 2-vCPU VM, and ~84k cached states (~22 MB; a
# `verify oracle` process peaks at ~37 MB resident) that the cap also
# bounds for the life of the process.
MAX_LOOPS = 11


def oracle_all_graphs_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m in the all-graphs series, by direct counting.

    Graphs with m = e - v exist only for m <= e <= 3m, so the sum is
    complete once max_e >= 3m.  Cost is bounded by requiring
    m + 1 <= MAX_LOOPS.
    """
    return _shape_sum(sp, m, max_e, connected=False)


def oracle_connected_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m restricted to connected graphs.

    Only pairings that connect the vertices count.  Cost is bounded by
    requiring m + 1 <= MAX_LOOPS.
    """
    return _shape_sum(sp, m, max_e, connected=True)


def _shape_sum(sp: Species, m: int, max_e: int, connected: bool) -> Fraction:
    """Sum of (-1)^v * prod q_n / prod mult! * #pairings over the block
    shapes of every graph with e - v = m, m <= e <= 3m, counting all
    (2e - 1)!! pairings or only the connecting ones.  The empty graph is
    the shape with no blocks at e = 0, with one pairing that does not
    connect.

    The arguments are checked before any enumeration starts, and each
    valence a shape reads is checked by ``Species.q``.
    """
    if m < 0:
        raise UsageError("m must be >= 0")
    if max_e < 3 * m:
        raise UsageError("incomplete sum")
    if m + 1 > MAX_LOOPS:
        raise UsageError(f"the oracle counts graphs up to {MAX_LOOPS} loops "
                         f"(m <= {MAX_LOOPS - 1})")
    total = Fraction(0)
    for e in range(m, 3 * m + 1):
        v = e - m
        for shape in _block_shapes(2 * e, v):
            weight = prod(map(sp.q, shape), start=Fraction(1))  # a Fraction for no blocks too
            if weight:
                count = (_connected(tuple(sorted((n,) for n in shape))) if connected
                         else prod(range(2 * e - 1, 0, -2)))
                total += (-1) ** v * weight * count / prod(map(factorial, Counter(shape).values()))
    return total


def _block_shapes(total: int, parts: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into exactly ``parts`` parts, each >= 3,
    as weakly decreasing tuples."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if largest is None:
        largest = total
    # leave room for the remaining parts at minimum size 3
    for first in range(min(largest, total - 3 * (parts - 1)), 2, -1):
        for rest in _block_shapes(total - first, parts - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _connected(state: tuple[tuple[int, ...], ...]) -> int:
    """The ways to pair every free half-edge of ``state`` that leave one
    component.

    ``state`` is a sorted tuple of live components, each a sorted tuple of
    positive free half-edge counts.  The start state of a shape is
    ``tuple(sorted((n,) for n in shape))``, where a bare vertex (0,) is
    one component already closed; closing the last live component
    reaches ``((),)``.
    """
    if not state or not any(state[0]):  # none, or a closed one: connected only if alone
        return int(len(state) == 1)
    head = (state[0][0] - 1,) + state[0][1:]
    live = (head,) + state[1:]
    moves: Counter = Counter()
    for c, comp in enumerate(live):
        rest = live[1:c] + live[c + 1:]
        # w pairs with the head vertex, and w's component joins the first
        for w, f in enumerate(comp):
            joined = comp[:w] + (f - 1,) + comp[w + 1:] + (head if c else ())
            joined = tuple(sorted(x for x in joined if x))
            if f and (joined or not rest):  # a component closed early splits the graph
                moves[tuple(sorted(rest + (joined,)))] += f
    return sum(ways * _connected(nxt) for nxt, ways in moves.items())
