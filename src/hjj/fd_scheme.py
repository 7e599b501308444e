"""Monotone Godunov finite differences for junction problems.

Each time window [t_n, t_n + dt] is handled with exactly integrated data:
piecewise-constant coefficient signals and the flux limiter are replaced by
their window averages (never sampled pointwise, so merely-measurable time
dependence is fine). A march computes every window average once, as one
table per signal, and each step reads its row. Interior nodes use the
Godunov numerical Hamiltonian

    F(p_minus, p_plus) = max{ h_plus(p_minus), h_minus(p_plus) }

built from the monotone envelopes. Every edge's envelopes on a window are
one EnvelopePair, its Hamiltonian frozen at values (Hamiltonian.freeze):
a closed form (a catalog form, or an edge of control forms) at the
window's coefficients, or once per march when it is time-independent; a
control edge with a callable f or l at the window's table on its nodes,
the one the value function reads (ControlEdge.lines); a time-independent
black box at its nodes, once per march, or once per problem when it
ignores x. A windowed edge (coefficients or table) is frozen again only
when its values differ from the last window's, byte for byte, and the
frozen pair is a function of those bytes. The pair is evaluated on
all the slopes of its edge at once: once per step, with both envelopes
cut from that one array, or twice when it is read per node (H depends on
x), at the right and at the left node of every slope. The interior,
outflow and junction terms are read off the envelopes.
The junction node uses max{ A_avg, max_i h_i^-(q_i) } on the edge-local
junction slopes; the truncation end of each edge uses the nondecreasing
branch on the interior slope only, an outflow closure that keeps the update
monotone. Under the CFL condition every update is nondecreasing in the
data, so discrete comparison holds to round-off. The speed is
JunctionProblem.speed_signal, C2(t): exact for |p| + c, max|f| per
coefficient cell for control-induced edges, and for a quadratic edge
2 a(t) K on the slope box that the data give. A grid's windows need not be
equal: make_grid gives each the same integral of C2, and a march checks
once, before its first step, that every window's integral is at most dx
(grid.check_cfl, the value function's check too). A callable control
edge is bounded at t = 0 only, so its table is read through
ControlEdge.window_lines, which checks dt |f| <= dx on the nodes of every
window before the table is frozen, as the value function reads it.
A window's frozen coefficients are averages, and a quadratic's bound is
linear in a as a control's speed is in f's coefficients, so dt C2(frozen
window) stays within that integral. That box is the a priori choice of
the steps, and each step checks dt |dH/dp| <= dx at the slopes
it reads on every edge whose pair carries a speed (a quadratic frozen at
the window's coefficients), raising CflViolation on a breach.

solve_many marches several problems on one grid as one stream of levels
(grid._levels) over a leading problem axis, and stores the values as
(problems, levels, nodes); solve is the stream of one problem, which its
field runs when it is read. Each level of the batch is checked for a
non-finite value as it is made, so the march stops at the first one. The
limiter and coefficient tables hold one column per problem. The batch
shares each edge's envelopes: one closed form with per-problem coefficient
columns, one callable control edge frozen at each window's table, or one
time-independent Hamiltonian object. Each edge is
evaluated once per step on the slopes of every problem, and a batch that
does not share an edge raises ValueError naming it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .control_system import TableHamiltonian
from .errors import CflViolation, NonSeparableTimeDependence
from .grid import _CFL_SLACK, Grid, SolutionField, _levels, check_cfl, make_grid
from .hamiltonian import EnvelopePair
from .junction_problem import JunctionProblem
from .time_signal import coeff_window_averages, upper_envelope

__all__ = ["solve", "solve_many", "grid_for"]


def grid_for(problems, dx: float, r_domain: float) -> Grid:
    """Grid whose per-edge radius is r_domain capped by the edge length.

    problems is one JunctionProblem or a batch that shares its edge lengths
    and horizon; make_grid sizes the time steps by the pointwise largest
    speed_signal, so each window holds an integral of C2 of at most
    grid._CFL_SAFETY * dx.
    """
    batch = [problems] if isinstance(problems, JunctionProblem) else list(problems)
    radii = [min(r_domain, e.length) for e in batch[0].edges]  # a NaN r_domain stays NaN
    speed = upper_envelope([p.speed_signal(dx, radii) for p in batch])
    return make_grid(dx, batch[0].horizon, radii, c2=speed)


def _check_cfl(problems: Sequence[JunctionProblem], grid: Grid, times: np.ndarray) -> None:
    """grid.check_cfl on each problem's speed_signal over the windows of times."""
    for problem in problems:
        check_cfl(grid, problem.speed_signal(grid.dx, grid.edge_radii),
                  problem.cfl_speed(grid.dx, grid.edge_radii)[1], times)


def _edge_windows(hs: list, pair: EnvelopePair, times: np.ndarray, grid: Grid, i: int) -> Callable:
    """env(n): edge i's EnvelopePair on the window [times[n], times[n+1]], for a batch.

    hs holds the edge's Hamiltonian in each problem, and pair is the first
    problem's EnvelopePair. The batch shares the edge: one Hamiltonian
    object, or one closed form with per-problem coefficients, and env(n)
    is one pair for all of it. A windowed edge is frozen at its values on
    each window: a callable control edge at its table on the edge's nodes,
    read and checked against the window's step by ControlEdge.window_lines,
    as the value function reads it; a closed form at each window's averaged
    coefficients, read off (windows x problems) tables as one (problems, 1)
    column per coefficient. It is frozen again only when its values differ
    from the last window's, byte for byte, so an edge constant in t is
    frozen once per march and a -0.0 that turns 0.0 is frozen again. Any
    other time-independent Hamiltonian keeps one pair for the march: pair
    when h ignores x, else h frozen at the edge's nodes. A time-dependent
    black box has no coefficients to freeze, and raises
    NonSeparableTimeDependence; a batch that does not share the edge raises
    ValueError naming it.
    """
    h, ys = hs[0], grid.edge_y(i)
    shared = all(g is h for g in hs)
    if shared and isinstance(h, TableHamiltonian):
        def values(n):
            a, b = float(times[n]), float(times[n + 1])
            return (*h.edge.window_lines(h.sign, a, b, grid, i), ys)
    elif shared and h.time_independent:
        if pair.values is None:
            pair = EnvelopePair(h, values=h.values_at(float(times[0]), ys))
        return lambda n: pair
    elif h.form is not None and all(g.form is h.form for g in hs):
        cols = [np.stack([coeff_window_averages(g.coefficients[k], times) for g in hs], axis=1)
                for k in h.form.names]

        def values(n):
            return tuple(col[n][:, None] for col in cols)
    elif shared:
        raise NonSeparableTimeDependence("a time-dependent black box has no coefficients to freeze")
    else:
        raise ValueError(f"the batch does not share edge {i}'s Hamiltonian or closed form")
    last = []

    def env(n):
        vals = values(n)
        if not (last and all(a.tobytes() == b.tobytes() for a, b in zip(vals, last[0]))):
            last[:] = vals, EnvelopePair(h, values=vals)
        return last[1]
    return env


def _windows(problems: Sequence[JunctionProblem], grid: Grid, times: np.ndarray) -> Callable:
    """at(n) -> (limiter averages, per-edge envelopes) on window n of times.

    problems is a batch that shares each edge (_edge_windows), one problem
    a batch of one; the limiter averages hold one entry per problem.
    """
    a_avg = np.stack([p.flux_limiter.window_averages(times) for p in problems], axis=1)
    edges = [_edge_windows([p.edges[i].hamiltonian for p in problems], problems[0].envelope(i),
                           times, grid, i)
             for i in range(problems[0].n_edges)]
    return lambda n: (a_avg[n], [env(n) for env in edges])


def _edge_terms(env: EnvelopePair, t: float, q: np.ndarray,
                ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior and outflow fluxes (rows, m) and junction inflow (rows,) of one edge.

    q holds each row's m edge-local slopes, slope j running from node j to
    node j + 1. Node j + 1 reads h_plus of slope j and h_minus of slope
    j + 1, so a pair read per node takes h_plus at ys[1:] and h_minus at
    ys[:-1]; any other pair cuts both from one evaluation.
    """
    if env.per_node:
        plus, minus = env.split(t, ys[1:], q)[0], env.split(t, ys[:-1], q)[1]
    else:
        plus, minus = env.split(t, 0.0, q)  # fresh arrays: the flux is built in plus
    np.maximum(plus[:, :-1], minus[:, 1:], out=plus[:, :-1])
    return plus, minus[:, 0]


def _first_breach(env: EnvelopePair, q: np.ndarray, dt: float, dx: float) -> tuple | None:
    """(row, slope, dt |dH/dp| / dx) at the first slope of q (rows, m) with dt |dH/dp| > dx.

    Only pairs that carry a speed (a catalog form whose C2 holds on a slope
    box alone, frozen at fixed coefficients) are checked; None when nothing
    breaches.
    """
    if env.speed is None:
        return None
    speed = env.speed(q)
    limit = dx * _CFL_SLACK / dt
    if not speed.max() > limit:  # NaN slopes are left to the non-finite check
        return None
    b, j = np.argwhere(speed > limit)[0]
    return b, j, float(speed[b, j]) * dt / dx


def _advance(problems: Sequence[JunctionProblem], grid: Grid, u: np.ndarray,
             t: float, dt: float, window: tuple) -> np.ndarray:
    """The explicit Euler update of every row of u (problems, nodes) over [t, t + dt].

    window is this window's row of _windows(problems, grid, times). Raises
    CflViolation when a slope of u on a quadratic edge has dt |dH/dp| > dx
    under this window's coefficients, naming the first problem of the
    batch, then edge, then slope. The window's own CFL bound is checked by
    the caller (_check_cfl).
    """
    a_avg, envs = window

    new = np.empty_like(u)
    inflows = [a_avg.tolist()]
    breaches = []
    for i, env in enumerate(envs):
        idx = grid.edge_full_indices(i)
        uu = u.take(idx, axis=1)
        q = np.subtract(uu[:, 1:], uu[:, :-1])
        q /= grid.dx
        breach = _first_breach(env, q, dt, grid.dx)
        if breach is not None:
            b, j, achieved = breach
            breaches.append((int(b), i, int(idx[j]), int(idx[j + 1]), achieved))
        flux, inflow = _edge_terms(env, t, q, grid.edge_y(i))
        # an edge's interior nodes are contiguous in the grid's node order
        np.subtract(uu[:, 1:], dt * flux, out=new[:, idx[1]:idx[-1] + 1])
        inflows.append(inflow.tolist())
    if breaches:
        b, i, start, end, achieved = min(breaches)
        c2, source = problems[b].cfl_speed(grid.dx, grid.edge_radii)
        raise CflViolation(
            f"dt |dH/dp| / dx = {achieved:.6g} > 1 at level {grid.level_index(t)}, on the "
            f"slope from node {start} to node {end} (edge {i}); C2 = {c2:.6g} from {source}")
    # the first largest of A and the inflows, as the builtin max picks it
    new[:, 0] = u[:, 0] - dt * np.array([max(terms) for terms in zip(*inflows)])
    return new


def _stream(problems: list, grid: Grid) -> Callable[[], Iterator[np.ndarray]]:
    """levels(): a fresh march of problems on grid, a stream of (problems, nodes) levels.

    What needs no step is done here, once: the CFL check of every window,
    the window tables (and their refusals) and the sample of the initial
    data. Each call of levels() marches from the start (grid._levels).
    """
    if not problems:
        raise ValueError("need at least one problem")
    _check_cfl(problems, grid, grid.times)
    at, times = _windows(problems, grid, grid.times), grid.times.tolist()
    start = np.array([grid.sample(p.initial_data) for p in problems])

    def update(u, n):
        return _advance(problems, grid, u, times[n], times[n + 1] - times[n], at(n))

    return lambda: _levels(grid, start, update)


def solve_many(problems: Sequence[JunctionProblem], grid: Grid) -> list[SolutionField]:
    """March problems on grid from their initial data to the horizon, as one stream.

    The problems share each edge's Hamiltonian object or closed form, as
    every ladder of approximation does; a batch that does not share an edge
    raises ValueError naming it. The march runs here, and each field is
    bit-equal to solve(problem, grid) and a view into one (problems, levels,
    nodes) array. Raises CflViolation before the first step when C2
    integrates above dx over a window of grid, and NumericalFailure at the
    first level that holds a non-finite value (grid._levels checks each
    level as it is made).
    """
    problems = list(problems)
    levels = _stream(problems, grid)
    values = np.empty((len(problems), grid.steps + 1, grid.n_nodes))
    for n, level in enumerate(levels()):
        values[:, n] = level
    return [SolutionField(grid, vals, line=p.line_convention) for p, vals in zip(problems, values)]


def solve(problem: JunctionProblem, grid: Grid) -> SolutionField:
    """The scheme from the initial datum to the horizon, as a field that marches when read.

    The checks that need no step run here and raise here (solve_many's
    window CFL check and table refusals); the march is solve_many's stream
    of one problem, run by each read of the field: levels() marches again,
    values marches once and keeps the array. A level's own failure, a
    slope CflViolation or a NumericalFailure, is raised by the first read.
    """
    levels = _stream([problem], grid)
    return SolutionField(grid, lambda: (level[0] for level in levels()),
                         line=problem.line_convention)
