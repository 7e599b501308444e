"""Optimal-control value function on the junction, independent of the scheme.

The value function is computed by forward dynamic programming on the same
kind of grid the difference scheme uses: one semi-Lagrangian Bellman update
per time window, with window-averaged speeds and running costs and linear
interpolation in space. A march tabulates those averages once, one
(windows x controls) table per edge and quantity, and each update gathers
the departure points of all controls of an edge with one interpolation
call. The updates run as the scheme's do, as a stream of levels
(grid._levels), which value_function's field runs when it is read: each
level is checked as it is made, for a non-finite value and against the
a-priori sup bound. Transitions never jump across the junction inside a
window (the step restriction, an integral of max|f| of at most dx over
each window, keeps departure points inside one cell), so a crossing
trajectory passes through the junction node and the running cost
switches regime exactly there. Parking at the junction costs -A(t) per
unit time, A = max(-l0, A0).

The tables keep only the columns of controls that are undominated
(control_system.undominated) in at least one window of the march; the
rest can never set a minimum. That holds bit for bit when every nonzero
departure lands strictly inside its upwind cell. Then np.interp applies
one interval formula per node and sign of speed, which is monotone in the
departure point (itself monotone in f); adding l dt is monotone in l; and
the far or the near dominator wins as the cell's slope is >= 0 or < 0. At
the end of the edge that a departure leaves, it is masked or clamped to
the end value, where the near dominator wins. (A tied zero minimum could
change its sign only through a cost of -0.0 or an l dt that underflows.)
So the columns are dropped only when every nonzero |f| dt of the edge lies
in [c eps R, dx - c eps R], with eps the machine epsilon, R the edge
length and c = _GUARD_ULPS: a margin that covers the rounding of the nodes
and of y - f dt. Otherwise, for example at dt max|f| = dx, all columns
stay. A callable (x-dependent) edge is read on all nodes at once, one
(controls x nodes) table per window (the table the scheme freezes too),
and keeps every control. The grid's C2 bounds a callable's |f| on those
nodes at t = 0, and a time-dependent callable may speed up later, so both
routes read its table through ControlEdge.window_lines, which checks
dt |f| <= dx node by node before the update uses the table.
"""

from __future__ import annotations

import numpy as np

from .control_system import ControlSystem, flux_limiter, undominated
from .errors import NoAdmissibleControl, NumericalFailure
from .grid import Grid, SolutionField, _levels, check_cfl, edge_data, make_grid
from .time_signal import TimeSignal

__all__ = ["oracle_grid", "value_function"]


def oracle_grid(cs: ControlSystem, dx: float, horizon: float, r_domain: float) -> Grid:
    """make_grid on [0, horizon], radius r_domain per edge, with C2(t) = max|f| at each time.

    For a caller that holds only a control system; grid_for on its induced
    problem builds the same grid. C2 is ControlSystem.speed_signal: max|f|
    over the controls per cell of f's signals, cut to the horizon, and at
    t = 0 on the grid's nodes for a callable f. Each window holds an
    integral of C2 of at most grid._CFL_SAFETY * dx.
    """
    radii = [r_domain] * len(cs.edges)
    return make_grid(dx, horizon, radii, c2=cs.speed_signal(horizon, dx, radii))


_GUARD_ULPS = 32  # the c of the pruning guard: departures stay c eps R inside a cell


def _kept_columns(speeds: np.ndarray, costs: np.ndarray, dts: np.ndarray,
                  dx: float, length: float) -> np.ndarray:
    """Columns of an edge's (windows x controls) tables that a march must keep.

    The union over windows of each row's undominated controls, when every
    nonzero departure |f| dt (formed as _bellman forms f dt) clears the
    cell ends by _GUARD_ULPS eps R; every column otherwise. The first row
    of each run of equal consecutive rows is ranked, all in one undominated
    call on the table of those rows. Rows are window averages, which inside
    one signal cell may differ in their last bit from window to window, so
    a cell can give several runs.
    """
    margin = _GUARD_ULPS * np.finfo(float).eps * length
    jump = np.abs(speeds) * dts[:, None]
    if not np.all((speeds == 0.0) | ((jump >= margin) & (jump <= dx - margin))):
        return np.ones(speeds.shape[1], dtype=bool)
    new_row = np.ones(len(speeds), dtype=bool)
    new_row[1:] = (np.any(speeds[1:] != speeds[:-1], axis=1)
                   | np.any(costs[1:] != costs[:-1], axis=1))
    return np.any(undominated(speeds[new_row].T, costs[new_row].T), axis=1)


def _windows(cs: ControlSystem, grid: Grid, A: TimeSignal, times: np.ndarray):
    """at(n) -> (integral of A, per-edge (speeds, costs) rows) on window n of times.

    Every row is (controls, nodes or 1). Form edges read (controls, 1) rows
    of tables built here once (ControlEdge.window_tables), cut to the
    columns _kept_columns keeps, one column serving every node. A callable
    edge reads ControlEdge.window_lines on all its nodes, window by window,
    so a window with dt |f| > dx raises CflViolation before it is used: one
    (controls x nodes) array per quantity, one column for a form quantity.
    """
    parking = A.window_integrals(times)
    dts = np.diff(times)
    rows = []
    for i, edge in enumerate(cs.edges):
        sign, y = cs.sign(i), grid.edge_y(i)
        if edge.x_independent:
            speeds, costs = edge.window_tables(sign, times)
            keep = _kept_columns(speeds, costs, dts, grid.dx, float(y[-1]))
            rows.append(lambda n, f=speeds[:, keep, None], l=costs[:, keep, None]: (f[n], l[n]))
        else:
            rows.append(lambda n, e=edge, s=sign, i=i:
                        e.window_lines(s, *map(float, times[n:n + 2]), grid, i))
    return lambda n: (float(parking[n]), [row(n) for row in rows])


def _bellman(cs: ControlSystem, grid: Grid, level: np.ndarray, a: float, b: float,
             window: tuple) -> np.ndarray:
    """One Bellman update over [a, b]: one (controls x nodes) gather per edge.

    window is this window's row of _windows(cs, grid, A, times), read and
    checked already. The departure points y - f dt of every kept control
    are interpolated in a single np.interp call (which holds the end values
    outside [0, R]), the running costs are added, departures that leave the
    edge are masked and the minimum is taken over controls; a node that no
    transition reaches raises NoAdmissibleControl. Parking at the junction
    is always admissible, since its control set contains 0. cs is not
    read: perfbench/tracer.py counts each update's transitions off cs and
    grid, the first two arguments.
    """
    dtn = b - a
    parking, rows = window
    new = np.empty(grid.n_nodes)
    junction_best = level[0] - parking
    for i, (fmat, lmat) in enumerate(rows):
        idx = grid.edge_full_indices(i)
        y = grid.edge_y(i)
        ztol = 1e-10 * max(1.0, float(y[-1]))
        z = y - fmat * dtn
        vals = np.interp(z.ravel(), y, level[idx]).reshape(z.shape)
        vals += lmat * dtn
        vals[(z < -ztol) | (z > y[-1] + ztol)] = np.inf  # departure outside the edge
        best = vals.min(axis=0)
        new[idx[1]:idx[-1] + 1] = best[1:]  # an edge's interior nodes are contiguous
        junction_best = min(junction_best, float(best[0]))
    new[0] = junction_best
    if not np.all(np.isfinite(new)):
        node = int(np.flatnonzero(~np.isfinite(new))[0])
        raise NoAdmissibleControl(
            f"no admissible transition reaches node {node} on [{a}, {b}]")
    return new


def _march(cs: ControlSystem, grid: Grid, v0: np.ndarray):
    """levels(): v0 as level 0, then one Bellman update per window (grid._levels).

    The window tables are built here, once, on the grid's windows; each
    call of levels() marches afresh.
    """
    A, times = flux_limiter(cs), grid.times.tolist()
    at = _windows(cs, grid, A, grid.times)

    def update(v, n):
        return _bellman(cs, grid, v, times[n], times[n + 1], at(n))

    return lambda: _levels(grid, v0, update)


def value_function(cs: ControlSystem, u0, grid: Grid) -> SolutionField:
    """Forward dynamic-programming value function on the junction grid, marched when read.

    u0 is a per-edge list of edge-local data, such as a problem's
    initial_data, or one function: the whole-line datum for the line
    convention, a function of the local coordinate for stars. The grid (from
    oracle_grid, grid_for or make_grid) must hold an integral of
    ControlSystem.speed_signal of at most dx on each window (grid.check_cfl,
    as the scheme checks it), with max|f| taken on its nodes; any grid that
    does not raises CflViolation here. The window tables, the datum sample
    and the a priori sup bound (2L + Abar) T + sup|u0|, with T the grid's
    horizon and L = sup|l| over the controls and the grid's nodes, are made
    here too. The returned field runs the march when it is read (levels()
    marches again, values once and keeps the array), and the read stops at
    the first level that holds a non-finite value or breaks the bound
    (NumericalFailure naming the level), or that no transition reaches
    (NoAdmissibleControl).
    """
    check_cfl(grid, cs.speed_signal(grid.horizon, grid.dx, grid.edge_radii), "max|f|", grid.times)
    v0 = grid.sample(edge_data(u0, len(cs.edges), cs.orientation == "line"))
    bound = ((2.0 * cs.cost_bound(grid.dx, grid.edge_radii) + cs.abar_bound()) * grid.horizon
             + float(np.max(np.abs(v0))))
    march = _march(cs, grid, v0)

    def levels():
        for n, level in enumerate(march()):
            sup = float(np.abs(level).max())
            if sup > bound + 1e-7 * (1.0 + bound):
                raise NumericalFailure(
                    f"value function breaks its a priori bound at level {n}: {sup:.6g} "
                    f"> {bound:.6g}; the Bellman recursion is inconsistent")
            yield level

    return SolutionField(grid, levels, line=(cs.orientation == "line"))
