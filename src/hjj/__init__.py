"""Finite differences and optimal control for Hamilton-Jacobi junctions.

The package solves evolutive Hamilton-Jacobi equations on a star of
half-lines (the real line being the two-edge case) with a flux-limited
junction condition, by two independent routes: a monotone Godunov scheme
and a dynamic-programming value function for control systems that induce
the Hamiltonians. Approximation utilities smooth merely-measurable time
dependence and price the substitution with an integrable error signal.
"""

from .approximation import (
    ApproximationStudy,
    KnResult,
    WidthReport,
    approx_hamiltonian,
    approx_problem,
    comparison_diagnostic,
    compute_kn,
    shifted_fields,
    smoothing_ladder,
)
from .control_system import (
    ControlEdge,
    ControlForm,
    ControlSystem,
    RestrictedEnvelopes,
    control_edge,
    edge_hamiltonian,
    flux_limiter,
    induced_hamiltonian,
)
from .dpp_oracle import (
    TrajectorySample,
    dpp_consistency_check,
    enumerate_trajectories,
    oracle_grid,
    value_function,
)
from .errors import (
    BudgetExceeded,
    CflViolation,
    ConfigError,
    FluxLimiterBelowFloor,
    HjjError,
    NoAdmissibleControl,
    NumericalFailure,
)
from .fd_scheme import godunov_flux, grid_for, solve, solve_many, step
from .grid import Grid, SolutionField, make_grid
from .hamiltonian import (
    EnvelopePair,
    Hamiltonian,
    a0_floor,
    abs_shift,
    argmin_p,
    check_convexity,
    eikonal,
    quadratic,
    reflected,
)
from .junction_problem import (
    Edge,
    JunctionProblem,
    control_system_from_config,
    from_line,
    induced_problem,
    problem_from_config,
    validate,
)
from .time_signal import TimeSignal, constant, l1_distance, union_mesh

__version__ = "0.1.0"

__all__ = [
    "ApproximationStudy",
    "BudgetExceeded",
    "CflViolation",
    "ConfigError",
    "ControlEdge",
    "ControlForm",
    "ControlSystem",
    "Edge",
    "EnvelopePair",
    "FluxLimiterBelowFloor",
    "Grid",
    "Hamiltonian",
    "HjjError",
    "JunctionProblem",
    "KnResult",
    "NoAdmissibleControl",
    "NumericalFailure",
    "RestrictedEnvelopes",
    "SolutionField",
    "TimeSignal",
    "TrajectorySample",
    "WidthReport",
    "a0_floor",
    "abs_shift",
    "approx_hamiltonian",
    "approx_problem",
    "argmin_p",
    "check_convexity",
    "comparison_diagnostic",
    "compute_kn",
    "constant",
    "control_edge",
    "control_system_from_config",
    "dpp_consistency_check",
    "edge_hamiltonian",
    "eikonal",
    "enumerate_trajectories",
    "flux_limiter",
    "from_line",
    "godunov_flux",
    "grid_for",
    "induced_hamiltonian",
    "induced_problem",
    "l1_distance",
    "make_grid",
    "oracle_grid",
    "problem_from_config",
    "quadratic",
    "reflected",
    "shifted_fields",
    "smoothing_ladder",
    "solve",
    "solve_many",
    "step",
    "union_mesh",
    "validate",
    "value_function",
]
