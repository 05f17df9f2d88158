"""Independent reference values for the orbchi tables.

Nothing here imports ``orbchi``; the arithmetic is stdlib ``Fraction``.

Lagrange-inversion route (any species).  With q_k = Q_k / k! and
phi(x) = 1 + 2 sum_{k>=3} q_k x^(k-2), the all-graphs coefficient of t^n
is the zero-dimensional Gaussian integral term

    g_n = (2n-1)!! [x^(2n)] phi(x)^(-(2n+1)/2),

where the power is taken with Miller's recurrence (TAOCP 4.7).  The
connected series is log g, by the O(N^2) recurrence
c_m = g_m - (1/m) sum_{k<m} k c_k g_(m-k).

Bernoulli route (commutative and associative only): chi_n = B_n/(n(n-1)),
with B_n from the Akiyama-Tanigawa algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# Structure counts Q_n of the built-in species, as documented for the CLI.
BUILTIN_COUNTS = {
    "commutative": lambda n: 1,
    "associative": lambda n: factorial(n - 1),
    "lie": lambda n: factorial(n - 2),
    "chord": lambda n: double_factorial(n - 1) if n % 2 == 0 else 0,
}


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1 (with (-1)!! = 1)."""
    out = 1
    for odd in range(k, 0, -2):
        out *= odd
    return out


def egf(counts, top: int) -> list[Fraction]:
    """q_0..q_top, with q_n = Q_n/n! for n >= 3 and zero below."""
    return [Fraction(0)] * 3 + [Fraction(counts(n)) / factorial(n)
                                for n in range(3, top + 1)]


def all_graphs(q: list[Fraction], order: int) -> list[Fraction]:
    """g_0..g_order of the all-graphs series, by Lagrange inversion.

    ``q`` must hold q_0..q_(2*order+2).
    """
    a = [(j, 2 * q[j + 2]) for j in range(1, 2 * order + 1) if q[j + 2]]
    g = [Fraction(1)]
    for n in range(1, order + 1):
        # b = phi^alpha, alpha = -(2n+1)/2:
        # m b_m = sum_k ((alpha+1)k - m) a_k b_(m-k)
        #       = -(1/2) sum_k ((2n-1)k + 2m) a_k b_(m-k)
        b = [Fraction(1)]
        for m in range(1, 2 * n + 1):
            acc = Fraction(0)
            for k, ak in a:
                if k > m:
                    break
                bm = b[m - k]
                if bm:
                    acc += ((2 * n - 1) * k + 2 * m) * ak * bm
            b.append(acc / (-2 * m))
        g.append(double_factorial(2 * n - 1) * b[2 * n])
    return g


def log_series(g: list[Fraction]) -> list[Fraction]:
    """c = log g for g_0 = 1: c_m = g_m - (1/m) sum_{k<m} k c_k g_(m-k)."""
    c = [Fraction(0)]
    for m in range(1, len(g)):
        acc = sum((k * c[k] * g[m - k] for k in range(1, m)), Fraction(0))
        c.append(g[m] - acc / m)
    return c


def bernoulli(n_max: int) -> list[Fraction]:
    """B_0..B_n_max by Akiyama-Tanigawa (B_1 = +1/2; B_n for n >= 2 standard)."""
    out = []
    row: list[Fraction] = []
    for m in range(n_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def bernoulli_table(loops: int) -> dict[int, Fraction]:
    """chi_n = B_n/(n(n-1)) for n = 2..loops."""
    bern = bernoulli(loops)
    return {n: bern[n] / (n * (n - 1)) for n in range(2, loops + 1)}


class Tables:
    """Exact tables of one species: all-graphs and connected, by loop number.

    Entry n of either table is the coefficient of t^(n-1), for n = 2..loops.
    """

    def __init__(self, counts, loops: int, bernoulli_check: bool = False):
        self.loops = loops
        self.g = all_graphs(egf(counts, 2 * loops), loops - 1)
        self.c = log_series(self.g)
        self.all = {n: self.g[n - 1] for n in range(2, loops + 1)}
        self.connected = {n: self.c[n - 1] for n in range(2, loops + 1)}
        if bernoulli_check and self.connected != bernoulli_table(loops):
            raise AssertionError("Lagrange and Bernoulli references disagree")

    def table(self, connected: bool) -> dict[int, Fraction]:
        return self.connected if connected else self.all


def stirling_partial_sum(t: float, terms: int) -> Fraction:
    """Exact sum_{n=1..terms} B_2n/(2n(2n-1)) t^(2n-1) at the float t."""
    bern = bernoulli(2 * terms)
    tq = Fraction(t)
    return sum((bern[2 * n] / (2 * n * (2 * n - 1)) * tq ** (2 * n - 1)
                for n in range(1, terms + 1)), Fraction(0))


def stirling_next_term(t: float, terms: int) -> Fraction:
    """|B_(2K+2)/((2K+2)(2K+1))| t^(2K+1), the first omitted term, K = terms."""
    k = 2 * terms + 2
    return abs(bernoulli(k)[k] / (k * (k - 1)) * Fraction(t) ** (k - 1))
