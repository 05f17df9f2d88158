"""Test helpers shared by more than one test module."""

from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from orbchi.species import Species

# q_n as a variable: each g_m of this species is a polynomial in the q_n,
# and two equal polynomials agree at every species
R, *Q = ring([f"q{n}" for n in range(3, 33)], QQ)
GENERIC = Species("generic", lambda n: Q[n - 3])


def exponent_terms(species, n):
    """A's nonzero terms (k, a_k), a_k = -q_(k+2), for k = 1..n."""
    return [(k, -q) for k in range(1, n + 1) if (q := species.q(k + 2))]
