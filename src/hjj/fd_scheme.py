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

solve_many marches several problems that share one grid as one loop over a
leading problem axis; solve is the batch of one. Values are stored as
(problems, levels, nodes), and the limiter and catalog coefficient tables
hold one column per problem. An edge whose envelopes the whole batch shares
(one catalog form with per-problem coefficient columns, or one
time-independent Hamiltonian object) is evaluated once per step on the
slopes of every problem; any other edge is handled problem by problem.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import CflViolation
from .grid import Grid, SolutionField, make_grid
from .hamiltonian import CATALOG, EnvelopePair, FixedEnvelopes, Hamiltonian, argmin_p
from .junction_problem import JunctionProblem
from .time_signal import coeff_window_averages

__all__ = ["godunov_flux", "step", "solve", "solve_many", "grid_for"]


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


def _edge_windows(hs: list, pairs: list, times: np.ndarray, ys: np.ndarray) -> Callable:
    """env(n): one edge's envelopes on the window [times[n], times[n+1]], for a batch.

    hs and pairs hold the edge's Hamiltonian and EnvelopePair in each problem.
    Catalog forms read closed-form envelopes off (windows x problems)
    coefficient tables, one (problems, 1) column per coefficient. Any other
    Hamiltonian is minimised once per march, or rebuilt from the window's
    averaged coefficients if it depends on time. env(n) is one envelope
    object when the batch shares it, else a list with one per problem.
    """
    h = hs[0]
    form = CATALOG.get(h.form)
    if form is not None and all(g.form == h.form for g in hs):
        cols = [np.stack([coeff_window_averages(g.coefficients[k], times) for g in hs], axis=1)
                for k in form.names]
        return lambda n: FixedEnvelopes(form, tuple(col[n][:, None] for col in cols))
    if all(g is h for g in hs) and h.time_independent:
        pair = _split(h, pairs[0], float(times[0]), ys)
        return lambda n: pair
    if len(hs) > 1:
        each = [_edge_windows([g], [pair], times, ys) for g, pair in zip(hs, pairs)]
        return lambda n: [env(n) for env in each]
    cols = {k: coeff_window_averages(v, times) for k, v in h.coefficients.items()}
    return lambda n: _split(h.with_coefficients({k: float(col[n]) for k, col in cols.items()}),
                            None, float(times[n]), ys)


def _windows(problems, grid: Grid, times: np.ndarray) -> Callable:
    """at(n) -> (limiter averages, per-edge envelopes) on window n of times.

    problems is one JunctionProblem or a batch of them sharing grid; the
    limiter averages hold one entry per problem.
    """
    if isinstance(problems, JunctionProblem):
        problems = [problems]
    a_avg = np.stack([p.flux_limiter.window_averages(times) for p in problems], axis=1)
    edges = [_edge_windows([p.edges[i].hamiltonian for p in problems],
                           [p.envelope(i) for p in problems], times, grid.edge_y(i))
             for i in range(problems[0].n_edges)]
    return lambda n: (a_avg[n], [env(n) for env in edges])


def _edge_terms(env, x_independent: bool, t: float, q: np.ndarray,
                ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior and outflow fluxes (rows, m) and junction inflow (rows,) of one edge.

    q holds each row's m edge-local slopes.
    """
    if x_independent:
        plus, minus = env.split(t, 0.0, q)  # fresh arrays: the flux is built in plus
        np.maximum(plus[:, :-1], minus[:, 1:], out=plus[:, :-1])
        return plus, minus[:, 0]
    flux = np.empty(q.shape)
    inflow = np.empty(len(q))
    for b, row in enumerate(q):
        for j in range(1, len(row)):
            flux[b, j - 1] = godunov_flux(env, t, float(ys[j]), row[j - 1], row[j])
        flux[b, -1] = env.h_plus(t, float(ys[-1]), row[-1])
        inflow[b] = env.h_minus(t, 0.0, row[0])
    return flux, inflow


def _advance(problems: Sequence[JunctionProblem], grid: Grid, u: np.ndarray,
             t: float, dt: float, window: tuple | None) -> np.ndarray:
    """The explicit Euler update of every row of u (problems, nodes) over [t, t + dt]."""
    for problem in problems:
        if dt > grid.dx / problem.c2_max() * (1.0 + 1e-9):
            raise CflViolation(
                f"dt={dt:.6g} exceeds dx/C2={grid.dx / problem.c2_max():.6g}")
    if window is None:
        window = _windows(problems, grid, np.array([t, t + dt]))(0)
    a_avg, envs = window

    new = np.empty_like(u)
    inflows = [a_avg.tolist()]
    for i, env in enumerate(envs):
        idx = grid.edge_full_indices(i)
        ys = grid.edge_y(i)
        uu = u.take(idx, axis=1)
        q = np.subtract(uu[:, 1:], uu[:, :-1])
        q /= grid.dx
        if isinstance(env, list):
            terms = [_edge_terms(e, p.edges[i].hamiltonian.x_independent, t, q[b:b + 1], ys)
                     for b, (e, p) in enumerate(zip(env, problems))]
            flux = np.concatenate([f for f, _ in terms])
            inflow = np.concatenate([g for _, g in terms])
        else:
            flux, inflow = _edge_terms(env, problems[0].edges[i].hamiltonian.x_independent,
                                       t, q, ys)
        # an edge's interior nodes are contiguous in the grid's node order
        np.subtract(uu[:, 1:], dt * flux, out=new[:, idx[1]:idx[-1] + 1])
        inflows.append(inflow.tolist())
    # the first largest of A and the inflows, as the builtin max picks it
    new[:, 0] = u[:, 0] - dt * np.array([max(terms) for terms in zip(*inflows)])
    return new


def step(problem: JunctionProblem, grid: Grid, u: np.ndarray,
         t: float, dt: float, _window: tuple | None = None) -> np.ndarray:
    """One explicit Euler update over the window [t, t + dt].

    _window may hold this window's row of _windows(problem, grid, times), as
    a march reads it; by default the row is built for [t, t + dt].
    """
    return _advance([problem], grid, u[None], t, dt, _window)[0]


def solve_many(problems: Sequence[JunctionProblem], grid: Grid) -> list[SolutionField]:
    """March problems that share grid from their initial data to the horizon, as one loop.

    Each field is bit-equal to solve(problem, grid) and a view into one
    (problems, levels, nodes) array.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("need at least one problem")
    at = _windows(problems, grid, grid.times)
    values = np.empty((len(problems), grid.steps + 1, grid.n_nodes))
    values[:, 0] = [grid.sample(p.initial_data) for p in problems]
    for n in range(grid.steps):
        a, b = float(grid.times[n]), float(grid.times[n + 1])
        values[:, n + 1] = _advance(problems, grid, values[:, n], a, b - a, at(n))
    out = [SolutionField(grid, vals, line=p.line_convention)
           for p, vals in zip(problems, values)]
    for field in out:
        field.check_finite()
    return out


def solve(problem: JunctionProblem, grid: Grid) -> SolutionField:
    """March the scheme from the initial datum to the horizon."""
    return solve_many([problem], grid)[0]
