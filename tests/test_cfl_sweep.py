from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import hjj.dpp_oracle as dpp_oracle_module
import hjj.fd_scheme as fd_scheme_module
from hjj import grid_for, problem_from_config, solve, validate, value_function
from hjj.errors import FluxLimiterBelowFloor, NumericalFailure

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cfl_sweep.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("cfl_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_short_sweep_marches_every_seed_without_a_failure(capsys):
    """tdq solve seeds 1-3, approx 1-2 and tdc 1-3: 26 runs through solve, value, compare
    and approx, none raising."""
    assert _sweep().main(["3", "2", "3"]) == 0
    tdq, tdc = capsys.readouterr().out.splitlines()
    assert tdq.startswith("tdq: 8 runs, 0 failed;") and tdc.startswith("tdc: 18 runs, 0 failed;")


def test_a_sweep_whose_march_raises_exits_1(monkeypatch, capsys):
    """Every run reads the field it makes, so a step that raises fails each run: tdq solve
    seed 1 at two dx, and tdc seed 1's solve, value and compare at two dx."""
    def fail(*args):
        raise NumericalFailure("a step that fails")

    monkeypatch.setattr(fd_scheme_module, "_advance", fail)
    monkeypatch.setattr(dpp_oracle_module, "_bellman", fail)
    assert _sweep().main(["1", "0", "1"]) == 1
    *runs, tdq, tdc = capsys.readouterr().out.splitlines()
    assert len(runs) == 8 and all(line.endswith("NumericalFailure: a step that fails")
                                  for line in runs)
    assert tdq == "tdq: 2 runs, 2 failed" and tdc.startswith("tdc: 6 runs, 6 failed")


def test_the_two_routes_agree_near_the_junction_where_the_floor_holds():
    """tdc seeds 1-10 at dx 0.04: where validate passes the floor A >= A_0, solve and
    value_function agree to round-off on every level at |x| <= 0.5; where it refuses the
    limiter, the routes part there. The outflow end (|x| near R) is left out: the scheme's
    closure and the Bellman mask differ there even on valid data."""
    sweep, gaps = _sweep(), {True: [], False: []}
    for seed in range(1, 11):
        problem, cs = problem_from_config(sweep._tdc_config(seed))
        try:
            validate(problem)
            holds = True
        except FluxLimiterBelowFloor:
            holds = False
        grid = grid_for(problem, 0.04, 2.0)
        near = grid.line_flat_indices()[np.abs(grid.line_x()) <= 0.5]
        fd, dp = solve(problem, grid), value_function(cs, problem.initial_data, grid)
        gaps[holds].append(float(np.max(np.abs(fd.values[:, near] - dp.values[:, near]))))
    assert gaps[True] and max(gaps[True]) <= 1e-12
    assert gaps[False] and max(gaps[False]) > 1e-4
