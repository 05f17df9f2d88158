"""Brute-force enumeration oracle for the graph-sum coefficients.

A labeled graph on 2e half-edges is a pair (pairing, partition): the
partition blocks are the vertices, the pairs are the edges.  Summing
(-1)^v * weight / (2e)! over all such pairs gives the coefficient of t^m
(m = e - v) in the all-graphs series; restricting to connected pairs
gives the connected series.

Weight and connectivity depend on a partition only through its multiset
of block sizes (its shape), so the sum runs over shapes.  The number of
partitions of each shape comes from the multinomial formula.  Pairings
are enumerated one by one: every pairing of the 2e half-edges counts
for the all-graphs sum, and a disjoint-set filter keeps those that
connect a canonical partition of the shape for the connected sum.  No
generating-function machinery is imported, so these sums are an
independent check on the series pipeline.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Callable, Iterator, Sequence

from .species import Species, UsageError

__all__ = [
    "iter_pairings",
    "count_pairings",
    "oracle_all_graphs_coefficient",
    "oracle_connected_coefficient",
]

# Joint (pairing, partition) enumeration is kept affordable by capping
# the half-edge count; 2e <= 12 covers coefficients m <= 2 completely.
JOINT_HALF_EDGE_LIMIT = 12


def iter_pairings(points: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield every perfect matching of ``points`` as a tuple of pairs.

    The first element is always paired first, so each matching appears
    exactly once.  An odd number of points yields nothing; an empty
    sequence yields the empty matching.
    """
    items = tuple(points)
    if not items:
        yield ()
        return
    if len(items) % 2:
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in iter_pairings(remaining):
            yield ((first, partner),) + tail


@lru_cache(maxsize=None)
def count_pairings(k: int) -> int:
    """Number of perfect matchings on k labeled points, by enumeration."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum(1 for _ in iter_pairings(range(k)))


def oracle_all_graphs_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m in the all-graphs series, by direct counting.

    Graphs with m = e - v exist only for m+1 <= e <= 3m, so the sum is
    complete once max_e >= 3m.  The empty graph adds 1 at m = 0.  Cost
    is bounded by requiring 2 * max_e <= 12.
    """
    empty = Fraction(1) if m == 0 else Fraction(0)
    return empty + _shape_sum(sp, m, max_e, lambda shape: count_pairings(sum(shape)))


def oracle_connected_coefficient(sp: Species, m: int, max_e: int) -> Fraction:
    """Coefficient of t^m restricted to connected graphs.

    Only pairings that connect the vertices count.  Cost is bounded by
    requiring 2 * max_e <= 12.
    """
    return _shape_sum(sp, m, max_e, _connected_pairing_count)


def _shape_sum(sp: Species, m: int, max_e: int,
               pairings: Callable[[tuple[int, ...]], int]) -> Fraction:
    """Sum of (-1)^v * #partitions * prod Q * pairings(shape) / (2e)!
    over the block shapes of every graph with e - v = m.

    The arguments are checked before any enumeration starts.
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
        sp.check_coverage(k)
        sign = -1 if v % 2 else 1
        for shape in _block_shapes(k, v):
            weight = prod(sp.structure_count(size) for size in shape)
            count = pairings(shape) if weight else 0
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
def _connected_pairing_count(shape: tuple[int, ...]) -> int:
    """Pairings of sum(shape) points that connect the canonical partition.

    The canonical partition takes blocks as consecutive runs; every
    partition with the same shape sees the same count, since relabeling
    points permutes pairings and preserves connectivity.
    """
    k = sum(shape)
    block_of = []
    for idx, size in enumerate(shape):
        block_of.extend([idx] * size)

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = 0
    for pairing in iter_pairings(range(k)):
        parent = list(range(len(shape)))
        for a, b in pairing:
            ra, rb = find(parent, block_of[a]), find(parent, block_of[b])
            if ra != rb:
                parent[ra] = rb
        root = find(parent, 0)
        if all(find(parent, i) == root for i in range(len(shape))):
            count += 1
    return count
