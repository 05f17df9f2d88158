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

Step 1's sum is ``_column_sum``, and step 2's recurrence is ``series._log``.
Both run on lists, over whatever exact ring the species' q_n lie in; only
the public functions wrap the result in a ``TSeries``.  The tests run them
on a species whose q_n are polynomial variables, so that one check covers
every species at once.

``_column_sum`` takes the columns from a generator, as pairs (col, d)
with P_v[i] = col[i] / d at each even s-degree i; ``_times`` is the
product by A that both generators share.  ``_columns`` holds A^v in the
ring of the a_k, with d = v!.  A table of ``INTEGER_FROM`` loops or more,
for any species, takes ``_integer_columns``, the same recurrence in
integers: A scaled by the lcm D of its denominators to integer
coefficients alpha_k, and each column held as integer numerators N_v
over one denominator d_v, with N_v[i] = sum_k alpha_k N_(v-1)[i-k] and
d_v = v D d_(v-1), reduced by one gcd per column.  Only the terms added to
g are ``Fraction``s, so the two layouts give the same sums, bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .series import TSeries
from .species import Species, UsageError

__all__ = ["EulerTable", "all_graphs_series", "connected_series",
           "euler_characteristic"]

# The largest loop order accepted: in one process on a 2-vCPU VM, the lie
# table's sum takes 0.3-0.55 s at 80 loops, 2.1 s at 120, 8-11 s at 160 and
# 22 s at 200 (the log adds 2-4%), about loops^4.4, so a 1000-loop table
# would take about 8-12 hours.
MAX_LOOPS = 1000

# The sum takes ``_integer_columns`` from this many loops on, for every
# species.  Shallower sums take ``_columns`` until the benchmark's
# peak-memory metric measures the program alone (ROADMAP.md, integer
# arithmetic).
INTEGER_FROM = 41


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
    to 2 * loops.  Summed one vertex count at a time (step 1 above), over
    integer columns from ``INTEGER_FROM`` loops on.
    """
    if loops < 2:
        raise UsageError("max-loops must be >= 2")
    if loops > MAX_LOOPS:
        raise UsageError(f"max-loops must be <= {MAX_LOOPS}")
    species.check_coverage(2 * loops)
    n = 2 * (loops - 1)
    # (k, a_k) in rising k, the nonzero terms of E's s-rows
    a = [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]
    columns = _integer_columns if loops >= INTEGER_FROM else _columns
    return TSeries(_column_sum(columns(a, n), loops - 1))


def _column_sum(columns, order: int) -> list:
    """g_0..g_order of the all-graphs series, by step 1 above, from the
    columns v = 0, 1, ... as pairs (col, d) with P_v[i] = col[i] / d for
    every even s-degree i."""
    ch = [1]  # ch[m] = Ch_(2m) = (2m-1)!!, up to y-degree 3n, the top one reached
    for m in range(1, 3 * order + 1):
        ch.append((2 * m - 1) * ch[-1])
    g = [Fraction(0)] * (order + 1)
    for v, (col, d) in enumerate(columns):
        for i, c in col.items():
            g[i // 2] += ch[i // 2 + v] * c / d
    return g


def _columns(a: list, n: int):
    """P_v = A^v / v! up to s-degree n, for v = 0, 1, ... while nonzero, as
    ``_column_sum`` takes them: A^v's even-s-degree terms, over the ring of
    the a_k, and d = v!.  ``a`` lists A's nonzero terms (k, a_k) in rising
    k."""
    # s-degree -> coefficient; a Fraction 1, as col[0] / d with an int 1 is a float
    v, col, d = 0, {0: Fraction(1)}, 1
    while col:  # P_v is empty once v > n, or at once when A = 0
        yield {i: c for i, c in col.items() if not i % 2}, d
        v += 1
        d *= v
        col = {i: c for i, c in _times(col, a, n).items() if c}


def _integer_columns(a: list, n: int):
    """``_columns`` for rational a_k, in integers: N_v's even terms, and
    d = d_v as a ``Fraction``, so that N_v[i] / d is exact."""
    scale = lcm(*(c.denominator for _, c in a))  # D
    alpha = [(k, c.numerator * (scale // c.denominator)) for k, c in a]
    v, col, d = 0, {0: 1}, 1
    while col:
        yield {i: c for i, c in col.items() if not i % 2}, Fraction(d)
        v += 1
        acc = _times(col, alpha, n)
        d *= v * scale
        common = gcd(d, *acc.values())
        col = {i: c // common for i, c in acc.items() if c}
        d //= common


def _times(col: dict, a: list, n: int) -> dict:
    """The product of a column with A = sum a_k s^k, up to s-degree n."""
    acc: dict = {}
    for j, c in col.items():
        for k, ak in a:
            if j + k > n:
                break
            acc[j + k] = acc.get(j + k, 0) + ak * c
    return acc


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
