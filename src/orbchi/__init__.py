"""Exact orbifold Euler characteristics of graph complexes.

The pipeline (``orbchi.euler``): a vertex species assigns a count Q_n
to each allowed vertex valence; ``all_graphs_series`` expands
exp(-(1/t) Q(sqrt(t) y)) one vertex count at a time, replacing each y^k
by the Gaussian moment (k-1)!! as it goes, into the all-graphs series
in t; its logarithm is the connected series whose coefficients are the
Euler characteristics, one rational number per loop order.  A
brute-force enumeration oracle, a Bernoulli-number closed form, and a
log-gamma asymptotic check give three independent verification routes.
"""

from .series import BivariatePoly, TSeries
from .moments import gaussian_moment, substitute_moments
from .species import Species, UsageError, builtin_species, species_from_file
from .euler import EulerTable, all_graphs_series, connected_series, euler_characteristic
from .oracle import oracle_all_graphs_coefficient, oracle_connected_coefficient
from .analytic import bernoulli_numbers, check_commutative_asymptotics, verify_bernoulli

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "TSeries",
    "gaussian_moment",
    "substitute_moments",
    "Species",
    "UsageError",
    "builtin_species",
    "species_from_file",
    "EulerTable",
    "all_graphs_series",
    "connected_series",
    "euler_characteristic",
    "bernoulli_numbers",
    "verify_bernoulli",
    "oracle_all_graphs_coefficient",
    "oracle_connected_coefficient",
    "check_commutative_asymptotics",
    "__version__",
]
