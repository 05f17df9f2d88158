"""Test helpers shared by more than one test module."""

import json
from pathlib import Path

from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from orbchi.species import Species

# every built-in species' all-graphs and connected tables to 60 loops,
# {"loops": 60, "species": {name: {"all": {n: "p/q"}, "connected": ...}}}
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_60.json").read_text())

# q_n as a variable: each g_m of this species is a polynomial in the q_n,
# and two equal polynomials agree at every species
R, *Q = ring([f"q{n}" for n in range(3, 33)], QQ)
GENERIC = Species("generic", lambda n: Q[n - 3])


def exponent_terms(species, n):
    """A's nonzero terms (k, a_k), a_k = -q_(k+2), for k = 1..n."""
    return [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]


def perfect_matchings(points):
    """Every perfect matching of ``points`` as a list of pairs; none if odd."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, partner in enumerate(rest):
        for matching in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, partner)] + matching
