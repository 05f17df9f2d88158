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
for a species other than a built-in, takes ``_integer_columns``, the same
recurrence in integers: A scaled by the lcm D of its denominators to
integer coefficients alpha_k, and each column held as integer numerators
N_v over one denominator d_v, with N_v[i] = sum_k alpha_k N_(v-1)[i-k] and
d_v = v D d_(v-1), reduced by one gcd per column.  Only the terms added to
g are ``Fraction``s, so the two layouts give the same sums, bit for bit.

A built-in's table of ``INTEGER_FROM`` loops or more takes
``_inverse_sum``, O(N^2) ring operations against the column sum's O(N^3).
Putting x = s y turns step 1 into the paper's integral in one variable,
Z(t) = int e^(-f(x)/t) dx / sqrt(2 pi t) with f(x) = x^2/2 + sum_n q_n x^n.
The substitution f(x) = w^2/2, x = w + O(w^2), makes it Gaussian,
Z(t) = int e^(-w^2/(2t)) x'(w) dw / sqrt(2 pi t), so that
g_m = (2m-1)!! [w^(2m)] x' = (2m+1)!! x_(2m+1).  From w dw = f' dx,
f'(x) x' = w, and each built-in's f' is a short expression in x and
f = w^2/2, so x solves u x' = w (1 + c1 x), u = (1 + a2 w^2) x + b2 w^2:

=============  ==================  ===============  ==============
species        f(x)                f'(x)            (a2, b2, c1)
=============  ==================  ===============  ==============
commutative    e^x - 1 - x         x + f            (0, 1/2, 0)
associative    -log(1-x) - x       x / (1-x)        (0, 0, -1)
lie            (1-x)log(1-x) + x   (x - f) / (1-x)  (0, -1/2, -1)
chord          e^(x^2/2) - 1       x (1 + f)        (1/2, 0, 0)
=============  ==================  ===============  ==============

As u_1 = 1, the w^k terms give x_k for k >= 2:
(k+1) x_k = c1 x_(k-1) - sum_{i=2..k-1} u_i (k-i+1) x_(k-i+1) - (u_k - x_k),
where u_k - x_k = a2 x_(k-2) + b2 [k = 2] holds no x_k.  The row is the
``Species`` slot ``_ode``, which only ``builtin_species`` sets, so a file
species keeps the columns even under a built-in's name: its f is a
polynomial with no short relation between f' and f.  All three routes
give the same rationals, so the output does not depend on the route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .series import TSeries
from .species import Species, UsageError

__all__ = ["EulerTable", "all_graphs_series", "connected_series",
           "euler_characteristic"]

# The largest loop order accepted.  Sum and log in one process on a 2-vCPU
# VM, one run each: a built-in takes the inverse series, and lie, the
# slowest, takes 0.27 s at 80 loops, 1.9 s at 160, 22 s at 320 and 109 s at
# 500, about loops^3.6 from 320 on, so about 20-30 minutes at 1000
# (commutative 17 s and chord 3.4 s at 320).  A file species takes the
# integer columns: a copy of lie's counts 0.34 s at 80, 5.8 s at 160 and
# 16 s at 200, about loops^4.4, and a copy of commutative's, whose
# denominators are larger, 67 s at 200, about loops^5, so a dense file
# species would take from about 5 hours to a few days at 1000 loops.
MAX_LOOPS = 1000

# From this many loops on, a built-in's sum takes ``_inverse_sum`` and any
# other species' ``_integer_columns``.  Shallower sums take ``_columns``, for
# every species, until the benchmark's peak-memory metric measures the
# program alone: either faster route at every order lifts the throughput of
# small tables, and with it the harness's own memory, past that metric's
# bound (ROADMAP.md, items 1 and 4).
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
    integer columns from ``INTEGER_FROM`` loops on, where a built-in takes
    the inverse series instead.
    """
    if loops < 2:
        raise UsageError("max-loops must be >= 2")
    if loops > MAX_LOOPS:
        raise UsageError(f"max-loops must be <= {MAX_LOOPS}")
    species.check_coverage(2 * loops)
    if loops >= INTEGER_FROM and species._ode is not None:
        return TSeries(_inverse_sum(species._ode, loops - 1))
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


def _inverse_sum(ode: tuple, order: int) -> list:
    """g_0..g_order of a built-in species by the inverse series (above):
    x_1..x_(2 order + 1) from u x' = w (1 + c1 x), u = (1 + a2 w^2) x +
    b2 w^2, with ``ode`` = (a2, b2, c1), and g_m = (2m+1)!! x_(2m+1)."""
    a2, b2, c1 = ode
    x = [Fraction(0), Fraction(1)]  # x_k
    u = [Fraction(0), Fraction(1)]  # u_k
    dx = [Fraction(1)]  # dx[j] = (j+1) x_(j+1), the w^j term of x'
    for k in range(2, 2 * order + 2):
        rest = a2 * x[k - 2] + (b2 if k == 2 else 0)  # u_k without x_k
        acc = c1 * x[k - 1] - rest - sum(u[i] * dx[k - i] for i in range(2, k))
        x.append(acc / (k + 1))
        u.append(x[k] + rest)
        dx.append(k * x[k])
    g, double_factorial = [], 1  # (2m+1)!!
    for m in range(order + 1):
        double_factorial *= 2 * m + 1
        g.append(double_factorial * x[2 * m + 1])
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
