"""Dual variational solver for critical Lane-Emden systems with Neumann
boundary conditions.

The library computes entire-space ground-state bubbles by radial shooting,
maximizes the dual quotient on discretized radially symmetric domains,
recovers least-energy nodal solutions, and runs the quantitative checks
(compactness thresholds, bubble norm rates, symmetry diagnostics) at desk
scale.
"""

__version__ = "0.1.0"

from .exponents import ExponentPack, hyperbola_partner, derived_constants, admissibility
from .mesh import Mesh, build
from .neumann import NeumannSolver
from .groundstate import BubbleProfile, shoot, profile_constants, scaled_quantities
from .dualsolve import DualReport, maximize_D, rayleigh_ratio, energy

__all__ = [
    "ExponentPack",
    "hyperbola_partner",
    "derived_constants",
    "admissibility",
    "Mesh",
    "build",
    "NeumannSolver",
    "BubbleProfile",
    "shoot",
    "profile_constants",
    "scaled_quantities",
    "DualReport",
    "maximize_D",
    "rayleigh_ratio",
    "energy",
]
