"""Slotted-Aloha games with spatial reuse.

A solver-plus-simulator for random-access games on interference
graphs: players pick transmission probabilities to hit target rates,
the least fixed point of the clipped best-response map is the game's
unique Nash equilibrium, and a Krasovskii-style certificate decides
whether the dynamics actually settle there. On top of the core sit
topology generators and experiment drivers for bifurcation, feasible
region, and connectivity-versus-throughput studies.
"""

from . import dynamics, experiments, game, solver, stability, topology
from .dynamics import *
from .experiments import *
from .game import *
from .solver import *
from .stability import *
from .topology import *

__version__ = "0.1.0"

# Each public name is declared once, in its submodule's __all__.
__all__ = [
    *game.__all__,
    *solver.__all__,
    *stability.__all__,
    *dynamics.__all__,
    *topology.__all__,
    *experiments.__all__,
    "__version__",
]
