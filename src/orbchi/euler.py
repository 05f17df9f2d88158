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

A deep sum splits between two processes (``_split_sum``): a forked child
starts from the column P_v0 = A^v0 / v0!, made in one pass of Miller's
power recurrence over A's terms (``_power_column``), and sums the columns
v >= v0 while the parent sums v < v0.  Both halves run the same
``_column_sum``, and the two exact partial sums add up to the serial one,
bit for bit.
"""

from __future__ import annotations

import marshal
import os
import sys
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .series import TSeries
from .species import Species, UsageError

__all__ = ["EulerTable", "all_graphs_series", "connected_series",
           "euler_characteristic"]

# The largest loop order accepted: lie takes 3.6 s at 80 loops and 44 s at
# 160 on a 2-vCPU VM with the column sum split between two processes (about
# 6.4 s and 74 s in one), and the cost grows about as loops^3.4-3.8, so a
# 1000-loop table would take about half a day.
MAX_LOOPS = 1000

# ``_split_sum`` forks once n / k_min reaches this (lie from 41 loops, chord
# from 81).  On a 2-vCPU VM, whole processes, the split won there (lie 41:
# 0.76 -> 0.46 s, chord 81: 0.82 -> 0.52 s) and tied at lie 30 and 36.
# chord already won at 60 loops (0.35 -> 0.27 s), where its serial sum is
# longer than lie's at the same n / k_min; one threshold serves both.
SPLIT_FROM = 80


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
    to 2 * loops.  Summed one vertex count at a time (step 1 above), in
    two processes where ``_split_sum`` splits the sum.
    """
    if loops < 2:
        raise UsageError("max-loops must be >= 2")
    if loops > MAX_LOOPS:
        raise UsageError(f"max-loops must be <= {MAX_LOOPS}")
    species.check_coverage(2 * loops)
    return TSeries(_split_sum(species, loops - 1) or _column_sum(species, loops - 1))


def _column_sum(species: Species, order: int, start: int = 0, stop: int | None = None) -> list:
    """g_0..g_order of the all-graphs series, by step 1 above.

    Only vertex counts start..stop-1 are summed (all of them by default),
    from the column P_start: P_0 = 1, or ``_power_column``.
    """
    n = 2 * order
    # (k, a_k) in rising k, the nonzero terms of E's s-rows
    a = [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]
    ch = [1]  # ch[m] = Ch_(2m) = (2m-1)!!, up to the top y-degree 3n
    for m in range(1, 3 * order + 1):
        ch.append((2 * m - 1) * ch[-1])
    g = [Fraction(0)] * (order + 1)
    v = start
    col = _power_column(a, n, v) if v else {0: Fraction(1)}  # s-degree -> coefficient
    while col and v != stop:  # P_v is empty once v > n, or at once when E = 0
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


def _power_column(a: list, n: int, v: int) -> dict:
    """The column P_v = A^v / v! up to s-degree n, for 1 <= v <= n / k0,
    from A's nonzero terms ``a`` = [(k, a_k)] in rising k, lowest (k0, b_0).

    With A = x^k0 B, B^v = sum_m p_m x^m obeys Miller's power recurrence
    (Knuth, TAOCP vol. 2, sec. 4.7)
    m b_0 p_m = sum_{j=1..m} ((v+1) j - m) b_j p_(m-j), p_0 = b_0^v / v!,
    and P_v[v k0 + m] = p_m.
    """
    k0, b0 = a[0]
    b = [(k - k0, ak) for k, ak in a[1:]]  # (j, b_j) for j >= 1
    p = [b0 ** v / factorial(v)]
    for m in range(1, n - v * k0 + 1):
        p.append(sum(((v + 1) * j - m) * bj * p[m - j] for j, bj in b if j <= m) / (m * b0))
    return {v * k0 + m: c for m, c in enumerate(p) if c}


def _split_point(species: Species, order: int) -> int:
    """The vertex count v0 at which ``_split_sum`` splits, or 0 for none.

    With k_min the lowest s-degree of A, column v spans s-degrees
    v * k_min..n, so n / k_min bounds the number of columns and sets the
    work.  v0 = n / (4 k_min) leaves the parent's head, v < v0, a little
    more work than the child's start column and tail: at lie 80 loops,
    3.4-3.8 s against 2.9-3.3 s.  A lower v0, 2n / (9 k_min), won on
    commutative, tied on lie and associative and lost on chord (whole
    processes at 80 and 100 loops), so this one stays.
    """
    n = 2 * order
    k_min = next((k for k in range(1, n + 1) if species.q(k + 2)), 0)
    if not k_min or n // k_min < SPLIT_FROM:
        return 0
    return n // (4 * k_min)


def _split_sum(species: Species, order: int) -> list | None:
    """g_0..g_order, with the vertex counts v >= v0 summed in a forked
    child; None, and no child, where ``_split_point`` gives no v0 or the
    platform cannot split (one CPU, another thread alive, no ``os.fork``).

    The child sends its partial sums back over a pipe as marshalled
    (numerator, denominator) pairs, or a message if it fails, and always
    ends in ``os._exit``.  The parent sums v < v0, adds the halves exactly
    and reaps the child, killing it first if its own half raises.
    """
    v0 = _split_point(species, order)
    threading = sys.modules.get("threading")  # never imported: no thread started
    if not (v0 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and (threading is None or threading.active_count() == 1)):
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if not pid:
        status = 1  # kept if an interrupt ends the child, which then sends nothing
        try:
            try:
                tail = _column_sum(species, order, v0)
                data, status = marshal.dumps([(c.numerator, c.denominator) for c in tail]), 0
            except Exception as exc:
                data = marshal.dumps(str(exc) or type(exc).__name__)
            with open(w, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(status)
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            head = _column_sum(species, order, 0, v0)
            data = pipe.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL, without loading the signal module
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status:
        # a message only from a child that sent one and exited 1; a killed
        # child may have sent its sums, or part of them
        sent = data and os.waitstatus_to_exitcode(status) == 1
        why = marshal.loads(data) if sent else f"wait status {status}"
        raise RuntimeError(f"the forked half of the column sum failed: {why}")
    return [h + Fraction(*t) for h, t in zip(head, marshal.loads(data))]


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
