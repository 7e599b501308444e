"""Finite differences and optimal control for Hamilton-Jacobi junctions.

The package solves evolutive Hamilton-Jacobi equations on a star of
half-lines (the real line being the two-edge case) with a flux-limited
junction condition, by two independent routes: a monotone Godunov scheme
and a dynamic-programming value function for control systems that induce
the Hamiltonians. Approximation utilities smooth merely-measurable time
dependence and price the substitution with an integrable error signal.

Each module's __all__ is the one declaration of what the package exports
from it; the package's __all__ is their sorted union.
"""

from . import (approximation, control_system, dpp_oracle, errors, fd_scheme, grid, hamiltonian,
               junction_problem, time_signal)
from .approximation import *
from .control_system import *
from .dpp_oracle import *
from .errors import *
from .fd_scheme import *
from .grid import *
from .hamiltonian import *
from .junction_problem import *
from .time_signal import *

__version__ = "0.1.0"

__all__ = sorted(name for module in (approximation, control_system, dpp_oracle, errors, fd_scheme,
                                     grid, hamiltonian, junction_problem, time_signal)
                 for name in module.__all__)
