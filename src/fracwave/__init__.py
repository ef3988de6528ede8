"""Simulation and verification laboratory for the one-dimensional stochastic
wave equation driven by noise that is white in time and fractionally
correlated in space.

Layers:

- ``noise``: exact synthesis of the driving noise on a space-time grid.
- ``analytic``: closed forms and quadrature oracles for covariances,
  asymptotic variances and first-chaos quantities.
- ``solver``: the leapfrog scheme on the unit-ratio lattice, its kernel
  calibration and a fixed-point reference integrator.
- ``estimators``: replica ensembles, spatial-average statistics, chaos
  decomposition, normality distances, merge-safe summaries.
- ``cli``: command line front end over the same functionality.
"""

from . import noise, analytic, solver, estimators
from .noise import *
from .analytic import *
from .solver import *
from .estimators import *

# the package's public names: each module's __all__ is the one list of its API
__all__ = [*noise.__all__, *analytic.__all__, *solver.__all__, *estimators.__all__]
__version__ = "0.1.0"
