"""hjj's public API: each module's __all__ declares it, and the package exports their union."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import hjj

# The 46 names the package exports, in order; a name joins or leaves only on purpose.
EXPORTED = [
    "ApproximationStudy", "CflViolation", "ConfigError", "ControlEdge", "ControlForm",
    "ControlSystem", "Edge", "EnvelopePair", "FluxLimiterBelowFloor", "Grid", "Hamiltonian",
    "HjjError", "JunctionProblem", "KnResult", "NoAdmissibleControl", "NumericalFailure",
    "SolutionField", "TimeSignal", "WidthReport", "abs_shift", "approx_hamiltonian",
    "approx_problem", "argmin_p", "check_convexity", "comparison_diagnostic", "compute_kn",
    "constant", "control_edge", "control_system_from_config", "eikonal", "flux_limiter",
    "from_line", "grid_for", "induced_hamiltonian", "induced_problem", "make_grid",
    "oracle_grid", "problem_from_config", "quadratic", "reflected", "smoothing_ladder", "solve",
    "solve_many", "union_mesh", "validate", "value_function",
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


def test_no_hjj_module_defines_a_reference_name():
    """The test references (tests/reference.py) stay out of the package: none of their
    public module-level names is defined in an hjj module or exported by hjj."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    names = {name for name in names if not name.startswith("_")}
    assert {"enumerate_trajectories", "shifted_fields", "NegativeKn", "step"} <= names
    assert not names & set(hjj.__all__)
    for module in (hjj, *(importlib.import_module(f"hjj.{name}") for name in MODULES)):
        assert not {name for name in names if hasattr(module, name)}, module.__name__
