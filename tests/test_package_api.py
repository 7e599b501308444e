"""hjj's public API: each module's __all__ declares it, and the package exports their union."""

from __future__ import annotations

import importlib

import hjj

# The 55 names the package exports, in order; a name joins or leaves only on purpose.
EXPORTED = [
    "ApproximationStudy", "BudgetExceeded", "CflViolation", "ConfigError", "ControlEdge",
    "ControlForm", "ControlSystem", "Edge", "EnvelopePair", "FluxLimiterBelowFloor", "Grid",
    "Hamiltonian", "HjjError", "JunctionProblem", "KnResult", "NoAdmissibleControl",
    "NumericalFailure", "RestrictedEnvelopes", "SolutionField", "TimeSignal", "TrajectorySample",
    "WidthReport", "abs_shift", "approx_hamiltonian", "approx_problem", "argmin_p",
    "check_convexity", "comparison_diagnostic", "compute_kn", "constant", "control_edge",
    "control_system_from_config", "dpp_consistency_check", "edge_hamiltonian", "eikonal",
    "enumerate_trajectories", "flux_limiter", "from_line", "grid_for", "induced_hamiltonian",
    "induced_problem", "l1_distance", "make_grid", "oracle_grid", "problem_from_config",
    "quadratic", "reflected", "shifted_fields", "smoothing_ladder", "solve", "solve_many", "step",
    "union_mesh", "validate", "value_function",
]

MODULES = ("approximation", "control_system", "dpp_oracle", "errors", "fd_scheme", "grid",
           "hamiltonian", "junction_problem", "time_signal")


def test_the_package_exports_the_same_names_in_the_same_order():
    assert hjj.__all__ == EXPORTED


def test_a_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from hjj import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTED)


def test_every_name_in_a_module_all_is_defined_in_that_module():
    for name in MODULES:
        module = importlib.import_module(f"hjj.{name}")
        for export in module.__all__:
            assert getattr(module, export).__module__ == module.__name__, (name, export)
