"""Brute-force enumeration oracle for the graph-sum coefficients.

A labeled graph on 2e half-edges is a pair (pairing, partition): the
partition blocks are the vertices, the pairs are the edges.  Summing
(-1)^v * weight / (2e)! over all such pairs gives the coefficient of t^m
(m = e - v) in the all-graphs series; restricting to connected pairs
gives the connected series.

Weight and connectivity depend on a partition only through its multiset
of block sizes (its shape), so the sum runs over shapes.  The number of
partitions of each shape comes from the multinomial formula.  One walk
pairs the 2e half-edges one edge at a time and tracks which vertices of
a canonical partition of the shape they join: every pairing counts for
the all-graphs sum, and those that leave a single component count for
the connected sum.  Partial pairings that leave the same free
half-edges and the same component labels lead to identical sub-walks,
so each such state is walked once and its counts reused.  No
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

# Joint (pairing, partition) enumeration is kept affordable by capping
# the half-edge count; 2e <= 12 covers coefficients m <= 2 completely.
JOINT_HALF_EDGE_LIMIT = 12


def oracle_all_graphs_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m in the all-graphs series, by direct counting.

    Graphs with m = e - v exist only for m+1 <= e <= 3m, so the sum is
    complete once max_e >= 3m.  The empty graph adds 1 at m = 0.  Cost
    is bounded by requiring 2 * max_e <= 12.
    """
    empty = Fraction(1) if m == 0 else Fraction(0)
    return empty + _shape_sum(sp, m, max_e, connected=False)


def oracle_connected_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m restricted to connected graphs.

    Only pairings that connect the vertices count.  Cost is bounded by
    requiring 2 * max_e <= 12.
    """
    return _shape_sum(sp, m, max_e, connected=True)


def _shape_sum(sp: Species, m: int, max_e: int, connected: bool) -> Fraction:
    """Sum of (-1)^v * #partitions * prod Q * #pairings / (2e)! over the
    block shapes of every graph with e - v = m, counting all pairings or
    only the connecting ones.

    The arguments are checked before any enumeration starts, and each
    valence a shape reads is checked by ``Species.structure_count``.
    """
    if m < 0:
        raise UsageError("m must be >= 0")
    if max_e < 3 * m:
        raise UsageError("incomplete sum")
    if 2 * max_e > JOINT_HALF_EDGE_LIMIT:
        raise UsageError(
            f"joint enumeration budget is 2e <= {JOINT_HALF_EDGE_LIMIT}"
        )
    total = Fraction(0)
    for e in range(m + 1, 3 * m + 1):
        k = 2 * e
        v = e - m
        sign = -1 if v % 2 else 1
        for shape in _block_shapes(k, v):
            weight = prod(sp.structure_count(size) for size in shape)
            count = _pairing_counts(shape)[connected] if weight else 0
            if count:
                total += sign * _shape_partition_count(shape) * weight * count / factorial(k)
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
def _shape_partition_count(shape: tuple[int, ...]) -> int:
    """Number of set partitions of {1..sum(shape)} with the given block sizes."""
    k = sum(shape)
    denom = prod(factorial(s) for s in shape)
    denom *= prod(factorial(mult) for mult in Counter(shape).values())
    return factorial(k) // denom


@lru_cache(maxsize=None)
def _pairing_counts(shape: tuple[int, ...]) -> tuple[int, int]:
    """(all, connected): the pairings of sum(shape) half-edges, and those
    among them that connect the canonical partition of the shape.

    The canonical partition takes blocks as consecutive runs; every
    partition with the same shape sees the same counts, since relabeling
    half-edges permutes pairings and preserves connectivity.  The walk
    pairs the first free half-edge with each other free one in turn,
    carrying each vertex's component label down.  A state is the free
    half-edges and the labels; the pairings that complete it depend on
    nothing else, so each distinct state is walked once.
    """
    block_of = [idx for idx, size in enumerate(shape) for _ in range(size)]

    @lru_cache(maxsize=None)
    def walk(free: tuple[int, ...], label: tuple[int, ...]) -> tuple[int, int]:
        if not free:
            return 1, int(len(set(label)) == 1)
        first, rest = free[0], free[1:]
        total = connected = 0
        for i, partner in enumerate(rest):
            a, b = label[block_of[first]], label[block_of[partner]]
            merged = tuple(a if c == b else c for c in label)
            all_, conn = walk(rest[:i] + rest[i + 1:], merged)
            total += all_
            connected += conn
        return total, connected

    return walk(tuple(range(len(block_of))), tuple(range(len(shape))))
