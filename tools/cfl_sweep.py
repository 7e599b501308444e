"""Run every tdq problem of a seed range through solve and approx and count CFL failures.

    python tools/cfl_sweep.py                    # solve seeds 1-300, approx seeds 1-100
    python tools/cfl_sweep.py 50 20              # solve seeds 1-50, approx seeds 1-20

The problems are the benchmark's tdq family (perfbench/problems.py), read
as the CLI reads them. solve marches every seed at dx 0.02 and 0.04;
approx runs the CLI's default widths on their shared grid at dx 0.04. Both
run in this process, with src on the path, and write nothing. Each run
that raises prints one line; the summary gives the runs, the failures and
the median ratio of per-window steps to uniform steps (dt = 0.5 dx /
sup C2). Exits 1 when a run raised.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hjj import (comparison_diagnostic, grid_for, problem_from_config,  # noqa: E402
                 smoothing_ladder, solve)
from hjj.errors import HjjError  # noqa: E402

WIDTHS = [0.2, 0.1, 0.05, 0.025]


def _tdq_problem(seed: int):
    spec = importlib.util.spec_from_file_location(
        "_bench_problems", ROOT / "perfbench" / "problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return problem_from_config(module.tdq_problem(seed))[0]


def main(argv: list) -> int:
    solve_seeds = int(argv[0]) if argv else 300
    approx_seeds = int(argv[1]) if len(argv) > 1 else 100
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
                    solve(problem, grid)
                    uniform = math.ceil(problem.cfl_speed()[0] / (0.5 * dx) - 1e-12)
                    ratios.append(grid.steps / uniform)
            except (HjjError, ValueError) as exc:
                failures += 1
                print(f"seed {seed} {name}: {type(exc).__name__}: {exc}")
    print(f"{runs} runs, {failures} failed; per-window / uniform steps: median "
          f"{statistics.median(ratios):.3f}, range {min(ratios):.3f}-{max(ratios):.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
