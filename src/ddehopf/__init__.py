"""Series expansions of the periodic orbits born at Hopf bifurcations of
autonomous single-delay differential equations, with explicit reconstruction
at delays beyond the bifurcation and validation against a reference DDE
integrator."""

from .bifurcation import HopfPoint, find_hopf
from .ddeint import (Alignment, Trajectory, cross_validate,
                     detect_steady_state, integrate, relative_error)
from .epsseries import EpsSeries
from .expansion import ExpansionResult, expand
from .models import (BUILTIN_MODELS, DdeModel, equilibrium,
                     equilibrium_series, linearization, make_ndde, make_sir,
                     sir_r0)
from .orbit import (ReconstructedOrbit, bifurcation_diagram, residual,
                    solve_epsilon)
from .trigpoly import TrigPoly

__version__ = "0.1.0"

__all__ = [
    "Alignment", "BUILTIN_MODELS", "DdeModel", "EpsSeries", "ExpansionResult",
    "HopfPoint", "ReconstructedOrbit", "Trajectory", "bifurcation_diagram",
    "cross_validate", "detect_steady_state", "equilibrium",
    "equilibrium_series", "expand", "find_hopf", "integrate", "linearization",
    "make_ndde", "make_sir", "relative_error", "residual", "sir_r0",
    "solve_epsilon",
]
