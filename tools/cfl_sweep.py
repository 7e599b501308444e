"""Run seed-drawn time-dependent problems through every march and count CFL failures.

    python tools/cfl_sweep.py              # tdq solve 1-300, approx 1-100, tdc 1-100
    python tools/cfl_sweep.py 50 20 30     # tdq solve 1-50, approx 1-20, tdc 1-30

Two families, each read as the CLI reads a problem file:

- tdq, the benchmark's time-dependent quadratic (perfbench/problems.py).
  solve marches every seed at dx 0.02 and 0.04; approx runs the CLI's
  default widths on their shared grid at dx 0.04.
- tdc, time-dependent control systems drawn below (_tdc_config): two line
  edges whose speeds f = c0(t) + c1(t) a and costs l = c0(t) + c2(t) a^2
  carry step signals, a step parking cost l0 and datum s |x|. solve, value
  and compare (both routes on one grid) run every seed at dx 0.02 and 0.04.

Everything runs in this process, with src on the path, and writes nothing.
A field from solve or value_function marches when it is read, and the march
stops at its first non-finite level, so each run reads its field once
(values, or linf_gap for compare).
Each run that raises prints one line. The summary gives, per family, the
runs, the failures and the median ratio of per-window steps to uniform
steps (dt = 0.5 dx / sup C2), and for tdc the largest gap between the two
routes. Exits 1 when a run raised; under `python -W error` a run that warns
raises, so it fails too.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hjj import (comparison_diagnostic, grid_for, problem_from_config,  # noqa: E402
                 smoothing_ladder, solve, value_function)
from hjj.errors import HjjError  # noqa: E402

WIDTHS = [0.2, 0.1, 0.05, 0.025]


def _tdq_problem(seed: int):
    spec = importlib.util.spec_from_file_location(
        "_bench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return problem_from_config(module.tdq_problem(seed))[0]


def _tdc_config(seed: int) -> dict:
    """A line control system on [0, 1] with one to four step cells per signal.

    Speeds span [c0 - c1, c0 + c1] with |c0| <= 0.2 and c1 >= 0.5, 41
    controls apart by at most 0.1, so delta = 0.3 holds at every time.
    """
    rng = np.random.default_rng(seed)

    def step(lo: float, hi: float) -> dict:
        cells = int(rng.integers(1, 5))
        inner = np.sort(rng.uniform(0.05, 0.95, cells - 1)).round(3)
        return {"breakpoints": [0.0, *inner.tolist(), 1.0],
                "values": rng.uniform(lo, hi, cells).round(2).tolist()}

    edges = [{"f": {"c0": step(-0.2, 0.2), "c1": step(0.5, 2.0)},
              "l": {"c0": step(0.2, 1.0), "c2": step(0.25, 1.0)},
              "controls": {"min": -1.0, "max": 1.0, "n": 41}} for _ in range(2)]
    return {"schema": "hjj/1", "T": 1.0, "R_domain": 2.0,
            "control_system": {"edges": edges, "delta": 0.3,
                               "junction": {"l0": step(-0.5, 0.5), "A0": -1.0}},
            "u0": {"form": "abs", "scale": round(float(rng.uniform(0.2, 0.8)), 2)}}


def _ratio(problem, grid) -> float:
    """Per-window steps over the uniform steps at the sup of C2."""
    return grid.steps / math.ceil(problem.cfl_speed()[0] / (0.5 * grid.dx) - 1e-12)


def _summary(family: str, runs: int, failures: int, ratios: list) -> str:
    if not ratios:
        return f"{family}: {runs} runs, {failures} failed"
    return (f"{family}: {runs} runs, {failures} failed; per-window / uniform steps: median "
            f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-{max(ratios):.3f}")


def main(argv: list) -> int:
    solve_seeds = int(argv[0]) if argv else 300
    approx_seeds = int(argv[1]) if len(argv) > 1 else 100
    control_seeds = int(argv[2]) if len(argv) > 2 else 100
    runs, failures, ratios = 0, 0, []
    for seed in range(1, max(solve_seeds, approx_seeds) + 1):
        problem = _tdq_problem(seed)
        jobs = [(f"solve dx={dx}", dx) for dx in (0.02, 0.04) if seed <= solve_seeds]
        jobs += [("approx dx=0.04", None)] if seed <= approx_seeds else []
        for name, dx in jobs:
            runs += 1
            try:
                if dx is None:
                    ladder = smoothing_ladder(problem, WIDTHS)
                    comparison_diagnostic(problem, ladder,
                                          grid_for([problem, *ladder.values()], 0.04, 2.0))
                else:
                    grid = grid_for(problem, dx, 2.0)
                    solve(problem, grid).values
                    ratios.append(_ratio(problem, grid))
            except (HjjError, ValueError) as exc:
                failures += 1
                print(f"tdq seed {seed} {name}: {type(exc).__name__}: {exc}")
    lines = [_summary("tdq", runs, failures, ratios)]
    raised = failures

    runs, failures, ratios, gap = 0, 0, [], 0.0
    for seed in range(1, control_seeds + 1):
        problem, cs = problem_from_config(_tdc_config(seed))
        for dx in (0.02, 0.04):
            for name in ("solve", "value", "compare"):
                runs += 1
                try:
                    grid = grid_for(problem, dx, 2.0)
                    if name == "solve":
                        solve(problem, grid).values
                        ratios.append(_ratio(problem, grid))
                    elif name == "value":
                        value_function(cs, problem.initial_data, grid).values
                    else:
                        dp = value_function(cs, problem.initial_data, grid)
                        gap = max(gap, solve(problem, grid).linf_gap(dp))
                except (HjjError, ValueError) as exc:
                    failures += 1
                    print(f"tdc seed {seed} {name} dx={dx}: {type(exc).__name__}: {exc}")
    lines.append(_summary("tdc", runs, failures, ratios) + f"; largest route gap {gap:.3g}")
    print("\n".join(lines))
    return 1 if raised + failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
