"""Optimal-control value function on the junction, independent of the scheme.

The value function is computed by forward dynamic programming on the same
kind of grid the difference scheme uses: one semi-Lagrangian Bellman update
per time window, with window-averaged speeds and running costs and linear
interpolation in space. A march tabulates those averages once, one
(windows x controls) table per edge and quantity, and each update gathers
the departure points of all controls of an edge with one interpolation
call. The updates run as the scheme's do, as a stream of levels
(grid._levels): each level is checked as it is made, for a non-finite value
and against the a-priori sup bound, and a restart (dpp_consistency_check)
folds its deviation one level at a time. Transitions never jump across the
junction inside a window (the step restriction, an integral of max|f| of at
most dx over each window, keeps departure points inside one cell), so a
crossing trajectory passes through the junction node and the running cost
switches regime exactly there. Parking at the junction costs -A(t) per unit
time, A = max(-l0, A0).

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
(controls x nodes) table per window (ControlEdge.lines, the table the
scheme freezes too), and keeps every control. The grid's C2 bounds a
callable's |f| on those nodes at t = 0, so each update checks dt |f| <= dx
node by node as well (ControlEdge.check_speeds, as the scheme does): a
time-dependent callable may speed up later.

A tiny exhaustive enumerator over piecewise-constant controls doubles as an
oracle for the oracle on desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_system import ControlForm, ControlSystem, flux_limiter, undominated
from .errors import BudgetExceeded, NoAdmissibleControl, NumericalFailure
from .grid import Grid, SolutionField, _levels, _max_abs, check_cfl, edge_data, make_grid
from .time_signal import TimeSignal

__all__ = [
    "TrajectorySample",
    "oracle_grid",
    "value_function",
    "enumerate_trajectories",
    "dpp_consistency_check",
]


def oracle_grid(cs: ControlSystem, dx: float, horizon: float, r_domain: float,
                dt: float | None = None, cfl_safety: float = 0.5) -> Grid:
    """make_grid on [0, horizon], radius r_domain per edge, with C2(t) = max|f| at each time.

    For a caller that holds only a control system; grid_for on its induced
    problem builds the same grid. C2 is ControlSystem.speed_signal: max|f|
    over the controls per cell of f's signals, cut to the horizon, and at
    t = 0 on the grid's nodes for a callable f. Without dt each window holds
    an integral of C2 of at most cfl_safety * dx.
    """
    radii = [r_domain] * len(cs.edges)
    return make_grid(dx, horizon, radii, c2=cs.speed_signal(horizon, dx, radii),
                     dt=dt, cfl_safety=cfl_safety)


_GUARD_ULPS = 32  # the c of the pruning guard: departures stay c eps R inside a cell


def _kept_columns(speeds: np.ndarray, costs: np.ndarray, dts: np.ndarray,
                  dx: float, length: float) -> np.ndarray:
    """Columns of an edge's (windows x controls) tables that a march must keep.

    The union over windows of each row's undominated controls, when every
    nonzero departure |f| dt (formed as _bellman forms f dt) clears the
    cell ends by _GUARD_ULPS eps R; every column otherwise. Rows repeat
    between signal breakpoints, so each distinct run of rows is ranked once.
    """
    margin = _GUARD_ULPS * np.finfo(float).eps * length
    jump = np.abs(speeds) * dts[:, None]
    if not np.all((speeds == 0.0) | ((jump >= margin) & (jump <= dx - margin))):
        return np.ones(speeds.shape[1], dtype=bool)
    new_row = np.ones(len(speeds), dtype=bool)
    new_row[1:] = (np.any(speeds[1:] != speeds[:-1], axis=1)
                   | np.any(costs[1:] != costs[:-1], axis=1))
    keep = np.zeros(speeds.shape[1], dtype=bool)
    for f, l in zip(speeds[new_row], costs[new_row]):
        keep |= undominated(f, l)
    return keep


def _windows(cs: ControlSystem, grid: Grid, A: TimeSignal, times: np.ndarray):
    """at(n) -> (integral of A, per-edge (speeds, costs) rows) on window n of times.

    Form edges read 1-D rows of (windows x controls) tables built here once
    (ControlEdge.window_tables), cut to the columns _kept_columns keeps. A
    callable edge reads ControlEdge.lines on all its nodes, window by
    window: one (controls x nodes) array per quantity, one column for a form
    quantity.
    """
    parking = A.window_integrals(times)
    dts = np.diff(times)
    rows = []
    for i, edge in enumerate(cs.edges):
        sign, y = cs.sign(i), grid.edge_y(i)
        if edge.x_independent:
            speeds, costs = edge.window_tables(sign, times)
            keep = _kept_columns(speeds, costs, dts, grid.dx, float(y[-1]))
            rows.append(lambda n, f=speeds[:, keep], l=costs[:, keep]: (f[n], l[n]))
        else:
            rows.append(lambda n, e=edge, s=sign, y=y: e.lines(s, *map(float, times[n:n + 2]), y))
    return lambda n: (float(parking[n]), [row(n) for row in rows])


def _bellman(cs: ControlSystem, grid: Grid, A: TimeSignal, level: np.ndarray,
             a: float, b: float, window: tuple) -> np.ndarray:
    """One Bellman update over [a, b]: one (controls x nodes) gather per edge.

    window is this window's row of _windows(cs, grid, A, times). The
    departure points y - f dt of every kept control are interpolated in a
    single np.interp call (which holds the end values outside [0, R]), the
    running costs are added, departures that leave the edge are masked and
    the minimum is taken over controls. On a callable edge, whose rows hold
    one column per node, a speed with dt |f| > dx raises CflViolation
    naming the node and the window (ControlEdge.check_speeds), after the
    check for nodes that no transition reaches. Parking at the junction is
    always admissible, since its control set contains 0.
    """
    dtn = b - a
    parking, rows = window
    new = np.full(grid.n_nodes, np.inf)
    junction_best = level[0] - parking
    for i, (fmat, lmat) in enumerate(rows):
        idx = grid.edge_full_indices(i)
        y = grid.edge_y(i)
        ztol = 1e-10 * max(1.0, float(y[-1]))
        if fmat.ndim == 1:  # a form edge's table row serves every node
            fmat, lmat = fmat[:, None], lmat[:, None]
        z = y - fmat * dtn
        vals = np.interp(z.ravel(), y, level[idx]).reshape(z.shape)
        vals += lmat * dtn
        vals[(z < -ztol) | (z > y[-1] + ztol)] = np.inf  # departure outside the edge
        best = vals.min(axis=0)
        new[idx[1:]] = np.minimum(new[idx[1:]], best[1:])
        junction_best = min(junction_best, float(best[0]))
    new[0] = junction_best
    if not np.all(np.isfinite(new)):
        node = int(np.flatnonzero(~np.isfinite(new))[0])
        raise NoAdmissibleControl(
            f"no admissible transition reaches node {node} on [{a}, {b}]")
    for i, (fmat, _) in enumerate(rows):
        if fmat.ndim > 1:
            cs.edges[i].check_speeds(cs.sign(i), fmat, a, b, grid, i)
    return new


def _march(cs: ControlSystem, grid: Grid, v0: np.ndarray, first: int):
    """v0 as level first, then one Bellman update per later window, as a stream (grid._levels).

    The window tables are built on the windows from level first on, so a
    restart keeps the columns its own windows keep.
    """
    A, times = flux_limiter(cs), grid.times.tolist()
    at = _windows(cs, grid, A, grid.times[first:])

    def update(v, n):
        return _bellman(cs, grid, A, v, times[n], times[n + 1], at(n - first))

    return _levels(grid, v0, update, first)


def value_function(cs: ControlSystem, u0, grid: Grid) -> SolutionField:
    """Forward dynamic-programming value function on the junction grid.

    u0 is a per-edge list of edge-local data, such as a problem's
    initial_data, or one function: the whole-line datum for the line
    convention, a function of the local coordinate for stars. The grid (from
    oracle_grid, grid_for or make_grid) must hold an integral of
    ControlSystem.speed_signal of at most dx on each window (grid.check_cfl,
    as the scheme checks it), with max|f| taken on its nodes; any grid that
    does not raises CflViolation before the march. The march stops at the
    first level that holds a non-finite value or breaks the a-priori sup
    bound (2L + Abar) T + sup|u0|, with T the grid's horizon and L = sup|l|
    over the controls and the grid's nodes: NumericalFailure naming the
    level.
    """
    check_cfl(grid, cs.speed_signal(grid.horizon, grid.dx, grid.edge_radii), "max|f|", grid.times)
    v0 = grid.sample(edge_data(u0, len(cs.edges), cs.orientation == "line"))
    bound = ((2.0 * cs.cost_bound(grid.dx, grid.edge_radii) + cs.abar_bound()) * grid.horizon
             + float(np.max(np.abs(v0))))
    values = np.empty((grid.steps + 1, grid.n_nodes))
    for n, level in enumerate(_march(cs, grid, v0, 0)):
        sup = float(np.abs(level).max())
        if sup > bound + 1e-7 * (1.0 + bound):
            raise NumericalFailure(
                f"value function breaks its a priori bound at level {n}: {sup:.6g} "
                f"> {bound:.6g}; the Bellman recursion is inconsistent")
        values[n] = level
    return SolutionField(grid, values, line=(cs.orientation == "line"))


def dpp_consistency_check(cs: ControlSystem, field: SolutionField, s: float) -> float:
    """Max deviation between a value-function run and its restart from the level at time s.

    field is value_function's result for cs; the restart takes its
    piecewise-linear profile at s as a fresh datum on the same grid, so by
    the programming principle the deviation should be at the
    interpolation-composition scale (and zero when nothing is lost). s must
    be a time of the grid. The deviation is folded one restarted level at a
    time (grid._max_abs), and the restart, like any march, raises
    NumericalFailure at its first non-finite level.
    """
    grid = field.grid
    ns = grid.level_index(s)
    if abs(float(grid.times[ns]) - s) > 1e-9 * max(1.0, grid.horizon):
        raise ValueError(f"restart time {s} is not a grid time")

    data = []
    for i in range(grid.n_edges):
        ys = grid.edge_y(i)
        vals = field.edge_profile(ns, i).copy()
        data.append(lambda y, _ys=ys, _v=vals: float(np.interp(y, _ys, _v)))
    restarted = _march(cs, grid, grid.sample(data), ns)
    return _max_abs(a - b for a, b in zip(restarted, field.values[ns:]))


# ---------------------------------------------------------------------------
# exhaustive enumeration over piecewise-constant controls (desk scale)

@dataclass
class TrajectorySample:
    """Inspectable optimal path: segment times, positions and labels."""

    times: list
    positions: list
    labels: list
    cost: float
    encoding: tuple


def _form_only(edge) -> tuple[ControlForm, ControlForm]:
    if not (isinstance(edge.f, ControlForm) and isinstance(edge.l, ControlForm)):
        raise ValueError(
            "trajectory enumeration needs coefficient-form dynamics and costs")
    return edge.f, edge.l


def _signal_knots(form: ControlForm, a: float, b: float) -> np.ndarray:
    knots = {a, b}
    for sig in form.signals().values():
        for t in sig.breakpoints:
            if a < t < b:
                knots.add(float(t))
    return np.array(sorted(knots))


def _form_integral(form: ControlForm, alpha: float, a: float, b: float) -> float:
    def ival(c):
        return c.integrate(a, b) if isinstance(c, TimeSignal) else float(c) * (b - a)

    return ival(form.c0) + ival(form.c1) * alpha + ival(form.c2) * alpha * alpha


class _Enumerator:
    def __init__(self, edges, A: TimeSignal, budget: int, arrival_tol: float):
        self.edges = edges
        self.A = A
        self.forms = [_form_only(e) for e in edges]
        self.budget = budget
        self.nodes = 0
        self.arrival_tol = arrival_tol
        self.best_cost = math.inf
        self.best_enc: tuple | None = None
        self.best_segs: tuple | None = None

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"enumeration exceeded {self.budget} nodes")

    def _advance(self, side: int, alpha: float, x: float, a: float, b: float):
        """Drive one control on one side until the piece ends or 0 is hit.

        Returns (hit_time_or_None, x_final, cost, segments). side is +1 for
        the right half-line, -1 for the left; x stays on that side.
        """
        f_form, l_form = self.forms[0 if side > 0 else 1]
        knots = _signal_knots(f_form, a, b)
        cost = 0.0
        segs = []
        for j in range(len(knots) - 1):
            s0, s1 = float(knots[j]), float(knots[j + 1])
            v = float(f_form.eval(0.5 * (s0 + s1), np.array([alpha]))[0])
            x_next = x + v * (s1 - s0)
            hit = None
            if side > 0 and x > 0 and x_next <= 0 and v < 0:
                hit = s0 + x / (-v)
            elif side < 0 and x < 0 and x_next >= 0 and v > 0:
                hit = s0 + (-x) / v
            stop = s1 if hit is None else hit
            cost += _form_integral(l_form, alpha, s0, stop)
            segs.append((s0, stop, x, 0.0 if hit is not None else x_next,
                         f"drive(edge{1 if side > 0 else 2},a={alpha:g})"))
            if hit is not None:
                return hit, 0.0, cost, segs
            x = x_next
        return None, x, cost, segs

    def _leave_options(self, t: float):
        """(side, alpha) choices that strictly leave the junction at time t."""
        out = []
        for side, edge in ((+1, self.edges[0]), (-1, self.edges[1])):
            f_form, _ = self.forms[0 if side > 0 else 1]
            for alpha in edge.controls:
                v = float(f_form.eval(t, np.array([alpha]))[0])
                if (side > 0 and v > 0) or (side < 0 and v < 0):
                    out.append((side, float(alpha)))
        return out

    def _park_cost(self, a: float, b: float) -> float:
        return -self.A.integrate(a, b) if b > a else 0.0

    def explore_piece(self, tau: np.ndarray, j: int, x: float,
                      acc: float, enc: tuple, segs: tuple, target: float):
        self._tick()
        if j == len(tau) - 1:
            if abs(x - target) <= self.arrival_tol:
                if (acc < self.best_cost
                        or (acc == self.best_cost
                            and (self.best_enc is None or enc < self.best_enc))):
                    self.best_cost = acc
                    self.best_enc = enc
                    self.best_segs = segs
            return
        a, b = float(tau[j]), float(tau[j + 1])
        at_junction = abs(x) <= 1e-12
        if at_junction:
            seg = (a, b, 0.0, 0.0, "park")
            self.explore_piece(tau, j + 1, 0.0, acc + self._park_cost(a, b),
                               enc + ((0,),), segs + (seg,), target)
            for side, alpha in self._leave_options(a):
                self._drive_from(tau, j, side, alpha, 0.0, a, acc,
                                 enc + ((1, side, alpha),), segs, target)
        else:
            side = 1 if x > 0 else -1
            edge = self.edges[0 if side > 0 else 1]
            for alpha in edge.controls:
                self._drive_from(tau, j, side, float(alpha), x, a, acc,
                                 enc + ((1, side, float(alpha)),), segs, target)

    def _drive_from(self, tau, j, side, alpha, x, s_from, acc, enc, segs, target):
        self._tick()
        b = float(tau[j + 1])
        hit, x_end, cost, new_segs = self._advance(side, alpha, x, s_from, b)
        if hit is None:
            self.explore_piece(tau, j + 1, x_end, acc + cost,
                               enc, segs + tuple(new_segs), target)
            return
        # junction reached inside the piece: stick, or cross immediately
        park_seg = (hit, b, 0.0, 0.0, "park")
        self.explore_piece(tau, j + 1, 0.0,
                           acc + cost + self._park_cost(hit, b),
                           enc + ((2,),), segs + tuple(new_segs) + (park_seg,),
                           target)
        if b - hit > 1e-13:
            for side2, alpha2 in self._leave_options(hit):
                self._drive_from(tau, j, side2, alpha2, 0.0, hit,
                                 acc + cost, enc + ((3, side2, alpha2),),
                                 segs + tuple(new_segs), target)


def _subsample(controls: np.ndarray, m: int) -> np.ndarray:
    if len(controls) <= m:
        return controls
    idx = np.unique(np.round(np.linspace(0, len(controls) - 1, m)).astype(int))
    return controls[idx]


def enumerate_trajectories(
    cs: ControlSystem,
    start: tuple,
    end: tuple,
    pieces: int,
    u0=None,
    controls_per_piece: int = 5,
    budget: int = 10_000_000,
    arrival_tol: float = 1e-9,
) -> tuple[float, TrajectorySample | None]:
    """Exact minimum over piecewise-constant controls between two events.

    start and end are (position, time) pairs in whole-line coordinates. The
    per-piece choices are: park at the junction, or drive one control of the
    current side; a trajectory hitting the junction mid-piece either sticks
    there (accruing the junction cost -A) or crosses with any control that
    strictly enters the opposite side, with the running-cost integral split
    exactly at the crossing. Costs include u0 at the start point when u0 is
    given. Returns (inf, None) when no combination reaches the end point.
    """
    x0, t0 = float(start[0]), float(start[1])
    x1, t1 = float(end[0]), float(end[1])
    if t1 < t0:
        raise ValueError("end time precedes start time")
    base = float(u0(x0)) if u0 is not None else 0.0
    if t1 == t0:
        if abs(x1 - x0) <= arrival_tol:
            return base, TrajectorySample([t0], [x0], [], base, ())
        return math.inf, None
    if pieces < 1:
        raise ValueError("need at least one piece")

    if cs.orientation != "line":
        raise ValueError("enumeration is implemented for the line convention")
    sub_edges = []
    for e in cs.edges:
        sub = _subsample(e.controls, controls_per_piece)
        sub_edges.append(type(e)(e.f, e.l, sub))

    n1, n2 = len(sub_edges[0].controls), len(sub_edges[1].controls)
    branch = 1 + n1 + n2 + 2 * n1 * n2
    if branch ** pieces > budget:
        raise BudgetExceeded(
            f"worst-case branching {branch}^{pieces} exceeds {budget}")

    enum = _Enumerator(sub_edges, flux_limiter(cs), budget,
                       arrival_tol * max(1.0, abs(x1)))
    tau = np.linspace(t0, t1, pieces + 1)
    enum.explore_piece(tau, 0, x0, 0.0, (), (), x1)
    if enum.best_enc is None:
        return math.inf, None

    segs = enum.best_segs or ()
    times = [t0] + [s[1] for s in segs]
    positions = [x0] + [s[3] for s in segs]
    labels = [s[4] for s in segs]
    total = enum.best_cost + base
    return total, TrajectorySample(times, positions, labels, total, enum.best_enc)
