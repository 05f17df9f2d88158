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

from .series import *
from .moments import *
from .species import *
from .euler import *
from .oracle import *
from .analytic import *

__version__ = "0.1.0"

# each import of a submodule also binds its name here
__all__ = [*series.__all__, *moments.__all__, *species.__all__, *euler.__all__,
           *oracle.__all__, *analytic.__all__, "__version__"]
