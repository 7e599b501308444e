from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

import hjj.dpp_oracle as dpp_oracle_module
import hjj.fd_scheme as fd_scheme_module
from hjj import (ControlEdge, ControlForm, ControlSystem, Grid, Hamiltonian, JunctionProblem,
                 SolutionField, TimeSignal, constant, control_edge, eikonal, from_line, make_grid,
                 problem_from_config, quadratic)
from hjj.grid import _CFL_SAFETY
from hjj.time_signal import coeff_average, upper_envelope

from reference import step


def build_model_system(l0_value: float = 0.0, horizon: float = 1.0,
                       n_controls: int = 21) -> ControlSystem:
    """Line system with velocity f = a and running cost l = 1 for a in [-1, 1].

    The junction floor is A0 = -1, so the flux limiter is max(-l0_value, -1):
    l0_value = 0 gives A = 0, l0_value = 1 gives A = -1.
    """
    edges = [
        control_edge(ControlForm(c1=1.0), ControlForm(c0=1.0), -1.0, 1.0, n=n_controls)
        for _ in range(2)
    ]
    return ControlSystem(edges, l0=constant(l0_value, horizon), A0=-1.0, delta=1.0)


def share_grid(share: float, dx: float, source, radius, horizon: float | None = None) -> Grid:
    """A grid whose windows each hold an integral of C2 of at most share * dx.

    make_grid's share is the constant grid._CFL_SAFETY; this calls make_grid
    with C2 scaled by _CFL_SAFETY / share. For a share that is a power of
    two the scaling is exact, and so the grid is the one make_grid would
    build at that share, bit for bit. source sets C2 and the radii as the
    package's builders do: a JunctionProblem or a batch of them as grid_for
    (radius capped by each edge length, their horizon), a ControlSystem as
    oracle_grid (radius on every edge, on [0, horizon]), or C2 itself, a
    float or a TimeSignal, as make_grid (radius is the radii).
    """
    if isinstance(source, ControlSystem):
        radii = [radius] * len(source.edges)
        c2 = source.speed_signal(horizon, dx, radii)
    elif isinstance(source, (JunctionProblem, list)):
        batch = source if isinstance(source, list) else [source]
        radii, horizon = [min(radius, e.length) for e in batch[0].edges], batch[0].horizon
        c2 = upper_envelope([p.speed_signal(dx, radii) for p in batch])
    else:
        radii, c2 = radius, source
    scale = _CFL_SAFETY / share
    c2 = c2.shift_values(lambda v: v * scale) if isinstance(c2, TimeSignal) else c2 * scale
    return make_grid(dx, horizon, radii, c2=c2)


def _random_coefficient(rng: np.random.Generator, lo: float, hi: float, horizon: float):
    """A coarse float or, half the time, a three-cell TimeSignal."""
    if rng.random() < 0.5:
        breakpoints = np.concatenate(([0.0], np.sort(rng.uniform(0.0, horizon, 2)), [horizon]))
        return TimeSignal(breakpoints, np.round(rng.uniform(lo, hi, 3), 2))
    return float(np.round(rng.uniform(lo, hi), 1))


def random_control_system(rng: np.random.Generator, horizon: float = 0.5,
                          n_edges: int = 2) -> ControlSystem:
    """Control system whose samples have duplicates, ties and zero speeds.

    Each edge samples 17 evenly spaced controls plus up to 11 repeats from a
    coarser grid, with speeds c1 a + c2 a^2 and costs c0 + c1 a + c2 a^2 that
    are convex, concave or affine in a; coefficients are coarse, so cost ties
    are common. Two edges make a line, more a star; delta = 0.8 holds for
    every draw.
    """
    edges = []
    for _ in range(n_edges):
        controls = np.concatenate((np.linspace(-1.0, 1.0, 17),
                                   rng.choice(np.linspace(-1.0, 1.0, 9), rng.integers(0, 12))))
        f = ControlForm(c1=_random_coefficient(rng, 1.0, 2.0, horizon),
                        c2=float(rng.choice([0.0, 0.0, 0.1, -0.1])))
        l = ControlForm(c0=_random_coefficient(rng, -0.5, 1.0, horizon),
                        c1=float(rng.choice([0.0, 0.3, -0.2])),
                        c2=float(rng.choice([-0.5, 0.0, 0.5, 1.0])))
        edges.append(ControlEdge(f, l, controls))
    l0 = _random_coefficient(rng, -0.5, 0.5, horizon)
    if not isinstance(l0, TimeSignal):
        l0 = constant(l0, horizon)
    return ControlSystem(edges, l0=l0, A0=-1.0, delta=0.8,
                         orientation="line" if n_edges == 2 else "star")


def frozen(h: Hamiltonian, a: float, b: float) -> Hamiltonian:
    """h with every coefficient averaged over [a, b]; h itself when time-independent.

    A callable control edge has no coefficients to average, and
    with_coefficients refuses it.
    """
    if h.time_independent:
        return h
    return h.with_coefficients({k: coeff_average(v, a, b) for k, v in h.coefficients.items()})


def record_line_max(monkeypatch) -> list:
    """(speeds, costs, shape of p) of every later call of control_system._line_max.

    That function is how every H of control-form lines is evaluated: by an
    induced evaluator over all lines, and by a frozen EnvelopePair over the
    lines it keeps. The recorded arrays stay alive, so ids tell pairs apart.
    """
    import hjj.control_system as control_system_module

    calls = []
    real = control_system_module._line_max

    def recorded(speeds, costs, p):
        calls.append((speeds, costs, np.shape(p)))
        return real(speeds, costs, p)

    monkeypatch.setattr(control_system_module, "_line_max", recorded)
    return calls


def count_updates(monkeypatch) -> dict:
    """Counts of the updates each route makes from now on: "fd" for the scheme's
    _advance, "dp" for the value function's _bellman."""
    counts = {"fd": 0, "dp": 0}
    for module, name, route in ((fd_scheme_module, "_advance", "fd"),
                                (dpp_oracle_module, "_bellman", "dp")):
        def counted(*args, real=getattr(module, name), route=route):
            counts[route] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def zero_datum(x: float) -> float:
    return 0.0


_READ_DT = 1e-3  # small enough for the slope check of every edge these helpers read


def _read_grid(problem: JunctionProblem) -> Grid:
    return make_grid(dx=0.1, horizon=problem.horizon, radii=[1.0] * problem.n_edges, c2=40.0)


def junction_operator(problem: JunctionProblem, t: float, slopes) -> float:
    """F_A(t, q) = max{A, max_i H_i^-(0, q_i)} as the scheme applies it over [t, t + 1e-3].

    One step of a level that is 0 at the junction and affine on each edge
    with the given slopes gives new[0] = -dt F_A. Line problems take
    whole-line one-sided slopes (u_x(0+), u_x(0-)), so edge 1's local slope
    is the negated second one; stars take edge-local slopes.
    """
    q = np.array(slopes, dtype=float)
    if problem.line_convention:
        q[1] = -q[1]
    grid = _read_grid(problem)
    u = np.empty(grid.n_nodes)
    for i in range(problem.n_edges):
        u[grid.edge_full_indices(i)] = q[i] * grid.edge_y(i)
    return float(-step(problem, grid, u, t, _READ_DT)[0] / _READ_DT)


def godunov_flux(problem: JunctionProblem, p_minus: float, p_plus: float) -> float:
    """The scheme's interior flux max{H^+(p_minus), H^-(p_plus)} on edge 0 over [0, 1e-3].

    One step of a level that is 0 at edge 0's first interior node, whose
    slopes there are p_minus and p_plus and flat elsewhere, gives
    new[node] = -dt F.
    """
    grid = _read_grid(problem)
    idx = grid.edge_full_indices(0)
    u = np.full(grid.n_nodes, -p_minus * grid.dx)
    u[idx[1]] = 0.0
    u[idx[2:]] = p_plus * grid.dx
    return float(-step(problem, grid, u, 0.0, _READ_DT)[idx[1]] / _READ_DT)


def random_tdq_problem(seed: int, horizon: float = 1.0, cells: int = 8) -> JunctionProblem:
    """Line problem: eikonal on x > 0, a(t) (p - b(t))^2 - 1 on x < 0, zero datum.

    a in [0.5, 2], b in [-0.25, 0.25] and the flux limiter A in [-1, 0.5]
    are step signals, each on its own random cells.
    """
    rng = np.random.default_rng(seed)

    def signal(lo: float, hi: float) -> TimeSignal:
        inner = np.sort(rng.uniform(0.0, horizon, cells - 1))
        return TimeSignal(np.concatenate(([0.0], inner, [horizon])), rng.uniform(lo, hi, cells))

    quad = quadratic(signal(0.5, 2.0), signal(-0.25, 0.25), -1.0)
    return from_line(eikonal(), quad, signal(-1.0, 0.5), zero_datum, 0.0, horizon)


def _repo_module(relative: str):
    """The module at a path relative to the repository root, loaded by path."""
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location("_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_tdq_config(seed: int) -> dict:
    """The benchmark's tdq problem file for seed (perfbench/problems.py)."""
    return _repo_module("perfbench/problems.py").tdq_problem(seed)


def tdc_config() -> dict:
    """TDC, the time-dependent control problem file of tools/artifact_digests.py."""
    return _repo_module("tools/artifact_digests.py").TDC


def bench_tdq_problem(seed: int) -> JunctionProblem:
    """bench_tdq_config(seed) parsed as hjj reads it."""
    return problem_from_config(bench_tdq_config(seed))[0]


def cost_bound(cs: ControlSystem, dx: float | None = None, radii=None) -> float:
    """L = max over edges of max|l_i| over the controls and every coefficient value.

    A callable l is bounded at t = 0 at the nodes dx and radii give
    (ControlEdge.cost_bound), and needs them.
    """
    return max(e.cost_bound(xs) for e, xs in zip(cs.edges, cs._positions(dx, radii)))


def abar_bound(cs: ControlSystem) -> float:
    """|A0| + sup|l0|, the a priori bound on the flux limiter scale."""
    return abs(cs.A0) + max(abs(cs.l0.min()), abs(cs.l0.max()))


def check_value_function_bounds(cs: ControlSystem, field: SolutionField,
                                slack_space: float = 0.1) -> float:
    """Assert the a priori regularity of a dynamic-programming output.

    With C = 2 * (max_i sup|l_i|) + (|A0| + sup|l0|) the checks are:
    sup|u| <= C*T + sup|u0|, |u(., t) - u(., s)| <= C|t - s| + 2*dx, and
    per-edge slopes <= 2*C/delta + slack_space.  Returns C for callers that
    want to report the constant.
    """
    big_c = 2.0 * cost_bound(cs) + abar_bound(cs)
    grid = field.grid
    vals = field.values
    tol = 1e-9

    sup_u0 = float(np.max(np.abs(vals[0])))
    assert float(np.max(np.abs(vals))) <= big_c * grid.horizon + sup_u0 + tol

    times = grid.times
    for n in range(len(times)):
        gap = np.max(np.abs(vals - vals[n]), axis=1)
        bound = big_c * np.abs(times - times[n]) + 2.0 * grid.dx + tol
        assert np.all(gap <= bound), f"time regularity broken against level {n}"

    slope_bound = 2.0 * big_c / cs.delta + slack_space
    for i in range(grid.n_edges):
        profiles = vals[:, grid.edge_full_indices(i)]
        slopes = np.abs(np.diff(profiles, axis=1)) / grid.dx
        assert float(np.max(slopes)) <= slope_bound + tol, f"edge {i} slope too steep"
    return big_c
