"""Monotone Godunov finite differences for junction problems.

Each time window [t_n, t_n + dt] is handled with exactly integrated data:
piecewise-constant coefficient signals and the flux limiter are replaced by
their window averages (never sampled pointwise, so merely-measurable time
dependence is fine). A march computes every window average once, as one
table per signal, and each step reads its row. Interior nodes use the
Godunov numerical Hamiltonian

    F(p_minus, p_plus) = max{ h_plus(p_minus), h_minus(p_plus) }

built from the monotone envelopes, in closed form for catalog Hamiltonians.
Any other Hamiltonian that ignores x is evaluated once per step on all the
slopes of its edge; both envelopes are cut from that one array at its
minimiser, and the interior, outflow and junction terms are read off them.
The junction node uses max{ A_avg, max_i h_i^-(q_i) } on the edge-local
junction slopes; the truncation end of each edge uses the nondecreasing
branch on the interior slope only, an outflow closure that keeps the update
monotone. Under the CFL condition dt <= dx / C2 every update is
nondecreasing in the data, so discrete comparison holds to round-off.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import CflViolation
from .grid import Grid, SolutionField, make_grid
from .hamiltonian import CATALOG, EnvelopePair, FixedEnvelopes, Hamiltonian, argmin_p
from .junction_problem import JunctionProblem
from .time_signal import coeff_window_averages

__all__ = ["godunov_flux", "step", "solve", "grid_for"]


def godunov_flux(env, t: float, x: float, p_minus, p_plus):
    """Godunov two-point flux from the envelope splitting, elementwise.

    env is an EnvelopePair or FixedEnvelopes; the slopes may be floats or
    equal-length arrays. Consistent (equal slopes give H back), nondecreasing
    in p_minus and nonincreasing in p_plus.
    """
    flux = np.maximum(env.h_plus(t, x, p_minus), env.h_minus(t, x, p_plus))
    return float(flux) if np.ndim(flux) == 0 else flux


def grid_for(problem: JunctionProblem, dx: float, r_domain: float,
             dt: float | None = None, cfl_safety: float = 0.5) -> Grid:
    """Grid whose per-edge radius is r_domain capped by the edge length."""
    radii = [min(e.length, r_domain) for e in problem.edges]
    return make_grid(dx, problem.horizon, radii, c2=problem.c2_max(),
                     dt=dt, cfl_safety=cfl_safety)


def _split(h: Hamiltonian, pair: EnvelopePair | None, t: float,
           ys: np.ndarray) -> EnvelopePair:
    """Envelopes of a time-independent non-catalog h: one minimisation, or one per node."""
    if h.x_independent:
        return pair or EnvelopePair(h)
    minima = {float(y): argmin_p(h, t, float(y)) for y in ys}
    return EnvelopePair(h, argmin=lambda t, x: minima[x])


def _edge_windows(h: Hamiltonian, pair: EnvelopePair, times: np.ndarray,
                  ys: np.ndarray) -> Callable:
    """env(n) for one edge: its envelopes on the window [times[n], times[n+1]].

    Catalog forms read closed-form envelopes off per-window coefficient
    tables. Any other Hamiltonian is minimised once per march, or rebuilt
    from the window's averaged coefficients if it depends on time.
    """
    form = CATALOG.get(h.form)
    if form is None and h.time_independent:
        pair = _split(h, pair, float(times[0]), ys)
        return lambda n: pair
    cols = {k: coeff_window_averages(v, times) for k, v in h.coefficients.items()}
    if form is not None:
        names = [cols[k] for k in form.names]
        return lambda n: FixedEnvelopes(form, tuple(col[n] for col in names))
    return lambda n: _split(h.with_coefficients({k: float(col[n]) for k, col in cols.items()}),
                            None, float(times[n]), ys)


def _windows(problem: JunctionProblem, grid: Grid, times: np.ndarray) -> Callable:
    """at(n) -> (limiter average, per-edge envelopes) on window n of times."""
    a_avg = problem.flux_limiter.window_averages(times)
    edges = [_edge_windows(e.hamiltonian, problem.envelope(i), times, grid.edge_y(i))
             for i, e in enumerate(problem.edges)]
    return lambda n: (float(a_avg[n]), [env(n) for env in edges])


def step(problem: JunctionProblem, grid: Grid, u: np.ndarray,
         t: float, dt: float, _window: tuple | None = None) -> np.ndarray:
    """One explicit Euler update over the window [t, t + dt].

    solve passes this window's row of its tables as _window.
    """
    if dt > grid.dx / problem.c2_max() * (1.0 + 1e-9):
        raise CflViolation(
            f"dt={dt:.6g} exceeds dx/C2={grid.dx / problem.c2_max():.6g}")
    if _window is None:
        _window = _windows(problem, grid, np.array([t, t + dt]))(0)
    junction_flux, envs = _window

    new = np.empty_like(u)
    for i, env in enumerate(envs):
        idx = grid.edge_full_indices(i)
        ys = grid.edge_y(i)
        uu = u[idx]
        q = np.diff(uu) / grid.dx
        if problem.edges[i].hamiltonian.x_independent:
            plus, minus = env.split(t, 0.0, q)
            flux = np.append(np.maximum(plus[:-1], minus[1:]), plus[-1])
            inflow = minus[0]
        else:
            flux = np.empty(len(q))
            for j in range(1, len(q)):
                flux[j - 1] = godunov_flux(env, t, float(ys[j]), q[j - 1], q[j])
            flux[-1] = env.h_plus(t, float(ys[-1]), q[-1])
            inflow = env.h_minus(t, 0.0, q[0])
        new[idx[1:]] = uu[1:] - dt * flux
        junction_flux = max(junction_flux, float(inflow))
    new[0] = u[0] - dt * junction_flux
    return new


def solve(problem: JunctionProblem, grid: Grid) -> SolutionField:
    """March the scheme from the initial datum to the horizon."""
    at = _windows(problem, grid, grid.times)
    values = np.empty((grid.steps + 1, grid.n_nodes))
    values[0] = grid.sample(problem.initial_data)
    for n in range(grid.steps):
        a, b = float(grid.times[n]), float(grid.times[n + 1])
        values[n + 1] = step(problem, grid, values[n], a, b - a, _window=at(n))
    out = SolutionField(grid, values, line=problem.line_convention)
    out.check_finite()
    return out
