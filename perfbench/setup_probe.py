"""Time hjj's set-up for one CLI invocation in a fresh process.

    python3 perfbench/setup_probe.py PROBLEM.json DX

Set-up is what every command does before its first time step: import the
package with its CLI, load the JSON problem, build the problem (including
the randomized convexity probe) and construct the grid. The probe uses the
public entry points; for the workloads' problems `grid_for` gives the same
grid as the compare command's common grid (C2 = max speed = 1 there).
Prints one JSON line with the seconds taken and the grid's size.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import hjj.cli  # noqa: E402,F401
from hjj import grid_for, problem_from_config  # noqa: E402


def main() -> int:
    path, dx = sys.argv[1], float(sys.argv[2])
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    problem, _ = problem_from_config(cfg)
    grid = grid_for(problem, dx, float(cfg.get("R_domain", 2.0)))
    elapsed = time.perf_counter() - T0
    print(json.dumps({"setup_s": elapsed, "steps": grid.steps, "nodes": grid.n_nodes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
