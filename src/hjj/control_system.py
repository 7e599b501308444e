"""Two-regime optimal control data on a junction and its induced Hamiltonians.

Each edge carries a compact control interval (stored as a finite sample),
a velocity field f(t, x, a) and a running cost l(t, x, a). The junction
carries a running cost signal l0 and a constant A0; the effective flux
limiter is A(t) = max(-l0(t), A0). Stationary behavior at the junction is
the only junction control that matters (trajectories parked at 0 move with
velocity zero), so no junction control set is stored: it always contains
0, and parking at the junction is always admissible.

The induced Hamiltonian of an edge is H(t, x, p) = sup_a [f p - l]; its
monotone envelopes coincide with the sign-restricted suprema over f <= 0
and f >= 0. An edge whose f
and l are both ControlForms has an induced Hamiltonian with a ClosedForm
in the six coefficients of f and l (f_c0 ... l_c2): its lines come from one
line function (_lines), which also gives the Bellman route's window
tables. An edge with a callable f or l has a TableHamiltonian: its lines
at (t, x) are the edge's table (ControlEdge.lines), and on every window of
a march both routes read that table through ControlEdge.window_lines,
which refuses a window too fast for its step. Every control edge is
minimised exactly, over its lines (line_argmin).

Only the lower cost-speed front of a control sample can set that supremum
(or the minimum of a Bellman update). undominated(speeds, costs) marks it:
a control with speed v > 0 is dropped when one control with speed in
(0, v] and one with speed >= v both cost no more (a "near" and a "far"
dominator; the mirror rule for v < 0, and a zero-speed control only yields
to a cheaper-or-equal zero-speed one). Every line of the induced H is
fl(fl(f p) - l), and rounding is monotone, so for p >= 0 the far
dominator's line is >= line k and for p <= 0 the near dominator's is: the
maximum over the kept lines equals the full maximum (bit for bit but for
the sign of a tied zero, see undominated). A form edge frozen at fixed
coefficient values or at a window's table (hamiltonian.EnvelopePair)
therefore evaluates only its undominated lines. The evaluators keep all
lines.

A problem file's control_system block is read by
junction_problem.control_system_from_config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, CflViolation, EmptyControlSet
from .grid import _CFL_SLACK, _finite, _positive_finite, edge_nodes
from .hamiltonian import ClosedForm, ClosedHamiltonian, Hamiltonian, elementwise
from .time_signal import (TimeSignal, _midpoints, coeff_average, coeff_bounds, coeff_eval,
                          coeff_signals, coeff_window_averages, on_horizon, union_mesh,
                          upper_envelope)

__all__ = [
    "ControlForm",
    "ControlEdge",
    "ControlSystem",
    "control_edge",
    "flux_limiter",
    "induced_hamiltonian",
]


@dataclass(frozen=True)
class ControlForm:
    """g(t, a) = c0 + c1 a + c2 a^2 with float or TimeSignal coefficients.

    A float coefficient that is not finite raises ConfigError, naming it.
    """

    c0: object = 0.0
    c1: object = 0.0
    c2: object = 0.0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            _finite(f"ControlForm {name}", getattr(self, name))

    def eval(self, t: float, alphas: np.ndarray) -> np.ndarray:
        a = np.asarray(alphas, dtype=float)
        return (coeff_eval(self.c0, t)
                + coeff_eval(self.c1, t) * a
                + coeff_eval(self.c2, t) * a * a)

    def bounds(self, alphas: np.ndarray) -> tuple[float, float]:
        """Range of g over the sampled controls and all coefficient values (_range)."""
        return _range([coeff_bounds(c) for c in (self.c0, self.c1, self.c2)], alphas)

    def signals(self) -> dict:
        return coeff_signals({"c0": self.c0, "c1": self.c1, "c2": self.c2})


def _range(ranges, alphas: np.ndarray) -> tuple[float, float]:
    """Range of c0 + c1 a + c2 a^2 over the controls a, with each c_k in its (lo, hi) range.

    Each term c_k a^k is linear in c_k, so it ranges between its values at
    the two ends of c_k's range, control by control.
    """
    a = np.asarray(alphas, dtype=float)
    t0, t1, t2 = (np.multiply.outer(r, ak) for r, ak in zip(ranges, (1.0, a, a * a)))
    return (float(np.min(t0.min(axis=0) + t1.min(axis=0) + t2.min(axis=0))),
            float(np.max(t0.max(axis=0) + t1.max(axis=0) + t2.max(axis=0))))


def _is_form(g) -> bool:
    return isinstance(g, ControlForm)


def _call_g(g, t: float, x, alphas: np.ndarray) -> np.ndarray:
    """A ControlForm or raw callable at every control: (controls,) at one float x.

    An array of positions x gives (controls, positions), one column for a
    form; a callable is called as elementwise does.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        return g.eval(t, alphas) if _is_form(g) else elementwise(g, t, x, alphas)
    if _is_form(g):
        return g.eval(t, alphas)[:, None]
    a = np.asarray(alphas, dtype=float)
    return elementwise(g, t, x, np.broadcast_to(a[:, None], (len(a), len(x))))


def _averaged(g, a: float, b: float):
    """A form with its coefficients averaged exactly over [a, b]; a callable as it is.

    On [t, t] a form is returned as it is too, to be read at time t.
    """
    if not _is_form(g) or a == b:
        return g
    return ControlForm(*(coeff_average(c, a, b) for c in (g.c0, g.c1, g.c2)))


@dataclass
class ControlEdge:
    """One edge of the control system: dynamics, running cost and sampled controls.

    A callable f or l is (t, x, a) -> value. a may arrive as a 1-D array of
    controls, and x as one float or as an array elementwise with a; a
    callable that cannot take arrays raises TypeError or ValueError and is
    then called one position (and if need be one control) at a time. A
    callable is bounded on the positions it is given, so its bounds need
    the grid's nodes; a form's bounds ignore positions.

    lines is the edge's table on a window, the data that both routes read:
    a form averaged exactly over the window, a callable read at the
    window's midpoint. A form edge's tables for every window of a march come
    in one call (window_tables). A callable edge is read window by window on
    the grid's nodes, by both routes through window_lines, and its induced
    TableHamiltonian is frozen node by node at that table, so both routes
    mean the same H.

    speed_signal sizes the time steps of both routes: max|f| on each cell
    of a form's TimeSignals, and for a callable one bound at t = 0 on the
    grid's nodes, which window_lines checks again on every window before
    the table is used.
    """

    f: object  # ControlForm or callable (t, x, a)
    l: object  # ControlForm or callable (t, x, a)
    controls: np.ndarray

    def __post_init__(self):
        c = _finite("controls", self.controls)
        if c.size == 0:
            raise EmptyControlSet("edge has no control samples")
        self.controls = np.sort(c)

    @property
    def x_independent(self) -> bool:
        return _is_form(self.f) and _is_form(self.l)

    def lines(self, sign: float, a: float, b: float, xs=0.0) -> tuple[np.ndarray, np.ndarray]:
        """(speeds, costs) on the window [a, b]: sign f_k and l_k for every control k.

        A form is averaged exactly over [a, b], a callable read at the
        midpoint; [t, t] reads time t. f and l take the edge-local positions
        xs as sign * xs: one float gives (controls,) arrays, an array of
        positions (controls, positions), one column for a form.
        """
        f, l = (_call_g(_averaged(g, a, b), 0.5 * (a + b), sign * xs, self.controls)
                for g in (self.f, self.l))
        return sign * f, l

    def window_tables(self, sign: float, times) -> tuple[np.ndarray, np.ndarray]:
        """lines of a form edge on every window of times, as (windows, controls) tables.

        One call of the edge's line function on (windows,) coefficient
        averages; row n is bit-equal to lines on window n.
        """
        cols = (coeff_window_averages(v, times) for v in _coefficients(self).values())
        return tuple(a.T for a in _lines(self.controls, sign, *cols))

    def window_lines(self, sign: float, a: float, b: float, grid, i: int) -> tuple:
        """lines on [a, b] at edge i's nodes, refused where (b - a) |f| > dx.

        The one reader of a callable edge's window table, for both routes.
        The grid's C2 bounds |f| at t = 0 on the nodes (speed_bound), and a
        callable may speed up later, so the table is checked before it is
        used: CflViolation names the first node too fast and the window.
        """
        ys = grid.edge_y(i)
        speeds, costs = self.lines(sign, a, b, ys)
        speed = np.max(np.abs(speeds), axis=0)
        over = np.flatnonzero(speed * (b - a) > grid.dx * _CFL_SLACK)
        if over.size:
            j = int(over[0])
            raise CflViolation(
                f"dt={b - a:.6g} exceeds dx/|f|={grid.dx / speed[j]:.6g} at node "
                f"{int(grid.edge_full_indices(i)[j])} on [{a}, {b}]: the speed bound "
                f"{self.speed_bound(sign * ys):.6g} understates |f|={speed[j]:.6g} there")
        return speeds, costs

    def speed_bound(self, xs=None) -> float:
        """max |f| over the controls and every coefficient value.

        A callable f is evaluated at t = 0 at the array of positions xs.
        """
        return _abs_max(self.f, self.controls, xs)

    def speed_signal(self, xs=None):
        """max |f| over the controls at each time, where f's TimeSignals give it.

        A form f is read by _form_speed. A callable f gives speed_bound's
        float.
        """
        return _form_speed(self.f, self.controls) if _is_form(self.f) else self.speed_bound(xs)

    def cost_bound(self, xs=None) -> float:
        """max |l|, in the same way as speed_bound."""
        return _abs_max(self.l, self.controls, xs)


def _form_speed(f: ControlForm, controls: np.ndarray):
    """max |f| over the controls: with TimeSignal coefficients a TimeSignal, max_k |f_k|
    on each cell of their union mesh; without, a float over every coefficient value."""
    signals = f.signals()
    if not signals:
        return _abs_max(f, controls, None)
    mesh = union_mesh(list(signals.values()))
    mids = _midpoints(mesh)
    return TimeSignal(mesh, np.max(np.abs(f.eval(mids[:, None], controls)), axis=1))


def _abs_max(g, controls: np.ndarray, xs) -> float:
    if _is_form(g):
        return max(map(abs, g.bounds(controls)))
    if xs is None:
        raise ValueError("a bound on an x-dependent control edge needs the grid's nodes")
    return float(np.max(np.abs(_call_g(g, 0.0, xs, controls))))


_CONTROL_COUNT = 101  # samples per control set when neither caller nor problem file says


def control_edge(f, l, lo: float, hi: float, n: int = _CONTROL_COUNT) -> ControlEdge:
    """Edge with controls sampled uniformly from the interval [lo, hi]."""
    if n < 3:
        raise ValueError("need at least 3 control samples")
    lo, hi = _finite("controls", (lo, hi))
    return ControlEdge(f, l, np.linspace(lo, hi, int(n)))


@dataclass
class ControlSystem:
    """Edges plus junction data; orientation fixes the coordinate convention.

    orientation "line": exactly two edges with whole-line dynamics; edge 0
    lives on (0, inf), edge 1 on (-inf, 0) with x = -y in edge-local terms.
    orientation "star": any number >= 2 of edges, dynamics already given in
    edge-local coordinates (y >= 0 away from the junction).
    """

    edges: list
    l0: TimeSignal
    A0: float
    delta: float
    orientation: str = "line"

    def __post_init__(self):
        if self.orientation not in ("line", "star"):
            raise ValueError("orientation must be 'line' or 'star'")
        if len(self.edges) < 2:
            raise ValueError("need at least two edges")
        if self.orientation == "line" and len(self.edges) != 2:
            raise ValueError("line orientation needs exactly two edges")
        _positive_finite("delta", self.delta)
        _finite("A0", self.A0)
        for i in range(len(self.edges)):
            self._check_coverage(i)

    def sign(self, i: int) -> float:
        """Edge-local velocity sign: local speed = sign * f(t, sign * y, a)."""
        return -1.0 if (self.orientation == "line" and i == 1) else 1.0

    def _check_coverage(self, i: int) -> None:
        # Normal controllability: the sampled speeds must cover [-delta, delta]
        # without holes wider than delta/2. Probes time breakpoints only; the
        # catalog forms are x-independent.
        edge = self.edges[i]
        signals = edge.f.signals().values() if _is_form(edge.f) else ()
        for t in [0.0] + [b for sig in signals for b in sig.breakpoints[:-1]]:
            speeds = np.sort(edge.lines(self.sign(i), float(t), float(t))[0])
            tol = 1e-9 * max(1.0, self.delta)
            if speeds[0] > -self.delta + tol or speeds[-1] < self.delta - tol:
                raise ValueError(
                    f"edge {i}: sampled speeds [{speeds[0]:.3g}, {speeds[-1]:.3g}] "
                    f"do not span [-{self.delta}, {self.delta}] at t={t}")
            inside = speeds[(speeds >= -self.delta - tol) & (speeds <= self.delta + tol)]
            grid = np.concatenate(([-self.delta], inside, [self.delta]))
            if np.max(np.diff(grid)) > 0.5 * self.delta + tol:
                raise ValueError(
                    f"edge {i}: speed samples leave a hole wider than delta/2 "
                    f"inside [-{self.delta}, {self.delta}] at t={t}")

    def _positions(self, dx: float | None, radii) -> list:
        """Edge i's grid nodes y as its f and l take x, sign(i) * y; None without dx."""
        if dx is None:
            return [None] * len(self.edges)
        return [self.sign(i) * ys for i, ys in enumerate(edge_nodes(dx, radii))]

    def speed_signal(self, horizon: float, dx: float | None = None, radii=None) -> TimeSignal:
        """C2(t) on [0, horizon]: the largest edge's ControlEdge.speed_signal at each time.

        A signal that runs past horizon is cut there (time_signal.on_horizon).
        A callable f is bounded at t = 0 at the nodes dx and radii give, and
        needs them; a system of forms alone does not.
        """
        return upper_envelope([on_horizon(e.speed_signal(xs), horizon)
                               for e, xs in zip(self.edges, self._positions(dx, radii))])


def flux_limiter(cs: ControlSystem) -> TimeSignal:
    """A(t) = max(-l0(t), A0); stays within [A0, |A0| + sup|l0|]."""
    return TimeSignal(cs.l0.breakpoints.copy(),
                      np.maximum(-cs.l0.values, cs.A0))


def _beaten(costs: np.ndarray, member: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Mask of the members whose cost a member ranked earlier matches or beats, per column.

    costs, member and keys are (controls, *columns). Each column ranks its
    members by keys (the last one primary), then cost, then index; the
    non-members are keyed last, so none is ranked before a member.
    """
    order = np.lexsort((np.indices(costs.shape)[0], costs, *keys, ~member), axis=0)
    ranked = np.take_along_axis(costs, order, axis=0)
    beaten = np.zeros(costs.shape, dtype=bool)
    np.put_along_axis(beaten, order[1:],
                      ranked[1:] >= np.minimum.accumulate(ranked, axis=0)[:-1], axis=0)
    return beaten & member


def undominated(speeds, costs) -> np.ndarray:
    """Mask of the controls that can set sup_k [v_k p - l_k] or min_k of a Bellman update.

    speeds and costs are tables (controls, *columns), and every column is
    ranked on its own: the mask has the table's shape, and a 1-D table is
    one column. Control k with v_k > 0 is dropped only if there are both a
    near dominator j (0 < v_j <= v_k, l_j <= l_k) and a far dominator j'
    (v_j' >= v_k, l_j' <= l_k); v_k < 0 is the mirror image, and a
    zero-speed control is dropped only for another zero-speed one with
    l <= l_k. Among identical (v, l) pairs the lowest index is kept. Sorting
    each sign group by (|v|, l, index) puts exactly the near dominators of k
    before k, so k has one iff the running minimum of l before k is <= l_k;
    sorting by (-|v|, l, index) does the same for far dominators. That is
    one lexsort along the controls per group and order, O(K log K) per
    column. The first entry of either order with l <= l_k, the
    lexicographically smallest dominator of its kind, has no dominator of
    that kind itself and is kept: every dropped control keeps a kept near
    and a kept far dominator.

    Why dropping is exact: every line fl(fl(v p) - l) is monotone in v for
    a fixed sign of p and in l, because rounding is monotone. For p >= 0 the
    dominator with the larger signed speed (the far one for v_k > 0, the
    near one for v_k < 0) gives a line >= line k, for p <= 0 the other one
    does, and a zero-speed dominator gives a line >= line k for every p.
    So the kept maximum equals the full one, bit for bit unless it is a
    zero that zeros of both signs attain: np.max returns the last tied
    zero, which may be a dropped line. A line is -0.0 only if its cost is
    exactly 0, so without zero costs the bits always agree. (Why the
    Bellman minimum is exact too is in dpp_oracle.) A column with a
    non-finite speed or cost keeps every control.
    """
    v, l = np.asarray(speeds, dtype=float), np.asarray(costs, dtype=float)
    s, dropped = np.abs(v), _beaten(l, v == 0.0)
    for side in (v > 0.0, v < 0.0):
        dropped |= _beaten(l, side, s) & _beaten(l, side, -s)
    return ~dropped | ~np.all(np.isfinite(v) & np.isfinite(l), axis=0)


def _line_max(speeds: np.ndarray, costs: np.ndarray, p):
    """max over controls k of speeds[k] p - costs[k], elementwise in p (a float for a float).

    speeds and costs are (controls, *S): with S = () the same lines at
    every entry of p, else one line set per entry of p's last len(S) axes,
    the same along its leading ones (a form's one column serves them all).
    """
    parr = np.asarray(p, dtype=float)
    scalar = parr.ndim == 0
    parr = np.atleast_1d(parr)
    speeds, costs = (a.reshape(a.shape[:1] + (1,) * (parr.ndim + 1 - a.ndim) + a.shape[1:])
                     for a in (speeds, costs))
    vals = np.max(speeds * parr - costs, axis=0)
    return float(vals[0]) if scalar else vals


_NAMES = ("f_c0", "f_c1", "f_c2", "l_c0", "l_c1", "l_c2")


def _coefficients(edge: ControlEdge) -> dict:
    """The six coefficients of a form edge's f and l, by their names in _NAMES."""
    return dict(zip(_NAMES, (edge.f.c0, edge.f.c1, edge.f.c2, edge.l.c0, edge.l.c1, edge.l.c2)))


def _lines(controls: np.ndarray, sign: float, *values) -> tuple[np.ndarray, np.ndarray]:
    """The line function of a form edge: (sign f_k, l_k) at its six coefficient values.

    The values are floats or arrays of one shape S (with singleton axes
    broadcast); speeds and costs come out (controls, *S), controls first as
    _line_max reads them.
    """
    f0, f1, f2, l0, l1, l2 = values
    a = np.reshape(controls, (-1,) + (1,) * max(np.ndim(v) for v in values))
    return sign * (f0 + f1 * a + f2 * a * a), l0 + l1 * a + l2 * a * a


def line_argmin(speeds, costs) -> float:
    """The exact minimiser of p -> max_k [speeds[k] p - costs[k]].

    min_p H is the upper concave hull of the points (v_k, -l_k) at v = 0
    (Rockafellar, Convex Analysis, section 12), built here by a monotone
    chain over the points sorted by speed: O(K log K). p_hat is where the
    two hull lines around zero speed cross or, when a zero-speed point is a
    vertex of the hull, the middle of the flat bottom that it sets, as
    numeric_argmin takes it. Without both a negative and a positive speed H
    has no minimum, and BracketFailure is raised.
    """
    v = np.asarray(speeds, dtype=float)
    w = -np.asarray(costs, dtype=float)
    if not (np.any(v < 0.0) and np.any(v > 0.0)):
        raise BracketFailure("a maximum of lines of one sign of speed has no minimum")
    order = np.lexsort((-w, v))  # by speed, the highest point of each speed first
    v, w = v[order], w[order]
    first = np.concatenate(([True], v[1:] != v[:-1]))
    hull = []
    for x, y in zip(v[first].tolist(), w[first].tolist()):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()  # on or below the chord from hull[-2] to (x, y)
        hull.append((x, y))
    j = next(k for k, (x, _) in enumerate(hull) if x >= 0.0)
    (v1, w1), (v2, w2) = hull[j - 1], hull[j]
    if v2 > 0.0:
        return (w1 - w2) / (v2 - v1)
    v3, w3 = hull[j + 1]
    return 0.5 * ((w2 - w1) / v1 + (w2 - w3) / v3)


def _freeze_lines(speeds: np.ndarray, costs: np.ndarray) -> tuple:
    """(p_hat, kept speeds, kept costs) of lines (controls, *S), minimised at each entry of S.

    Each entry (a row of coefficient values, or a node) is minimised over
    its own undominated lines, which one undominated call on the table
    marks, so that its split does not depend on the batch it is frozen in.
    The lines kept are those undominated at some entry: bit for bit the
    same maximum (see undominated).
    """
    f, l = (np.reshape(a, (len(a), -1)) for a in (speeds, costs))
    keeps = undominated(f, l)
    p_hat = np.reshape([line_argmin(f[m, j], l[m, j]) for j, m in enumerate(keeps.T)],
                       speeds.shape[1:])
    keep = np.any(keeps, axis=1)
    return p_hat[()], speeds[keep], costs[keep]


_MAX_F = "max|f| over {} controls"


def _line_form(controls: np.ndarray, sign: float) -> ClosedForm:
    """The closed form of sup_k [sign f_k p - l_k] in the six coefficients of f and l.

    h is the maximum over every line; freeze minimises each row of the
    values exactly and keeps the lines _freeze_lines keeps. |dH/dp| is
    bounded by max|f| per cell of f's signals (_form_speed) on every slope,
    so a declared p_span changes nothing, and |H| over |p| <= L by
    max|f| L + max|l| over the coefficient ranges (_range). The reflection
    is the form of -sign at the same coefficients.
    """
    def freeze(*values):
        p_hat, speeds, costs = _freeze_lines(*np.broadcast_arrays(*_lines(controls, sign, *values)))
        return p_hat, lambda p: _line_max(speeds, costs, p)

    def value_bound(L, *ranges):
        f_max, l_max = (max(map(abs, _range(r, controls))) for r in (ranges[:3], ranges[3:]))
        return f_max * L + l_max

    def slope_box(M, p_span, *coefficients):
        return _form_speed(ControlForm(*coefficients[:3]), controls), _MAX_F.format(len(controls))

    return ClosedForm(_NAMES, lambda p, *values: _line_max(*_lines(controls, sign, *values), p),
                      freeze, value_bound, slope_box,
                      lambda coefficients: (_line_form(controls, -sign), coefficients))


class TableHamiltonian(Hamiltonian):
    """H(t, x, p) = max_k [speeds_k p - costs_k] over the table of a callable control edge.

    The lines at (t, x) are ControlEdge.lines on [t, t] at x, so its values
    (Hamiltonian.values_at) are (speeds, costs, xs) at the positions xs =
    [x], and freeze minimises them node by node, exactly (_freeze_lines).
    A march freezes the table of each window at the edge's nodes ys,
    EnvelopePair(h, values=(speeds, costs, ys)); a frozen table looks its
    nodes up by position. A supremum of affine lines is convex by
    construction.

    A callable may read t, so the table is never time-independent, and it
    has no coefficients to average or mollify. Its time_data are the
    TimeSignals of its form parts, named as in _NAMES (f_c0 ... l_c2), so
    that every reader of a problem's coefficient breakpoints sees them.
    Its bounds read the edge at the positions sign * ys of the edge's
    nodes ys, and its reflection is the table of -sign.
    """

    time_independent = False
    convex_by_construction = True

    def __init__(self, edge: ControlEdge, sign: float):
        self.edge, self.sign = edge, sign
        self.time_data = {f"{k}_{c}": sig for k, g in zip("fl", (edge.f, edge.l)) if _is_form(g)
                          for c, sig in g.signals().items()}
        super().__init__(lambda t, x, p: _line_max(*edge.lines(sign, t, t, x), p))

    def speed_bound(self, M: float, ys=None) -> tuple:
        """max|f| per cell of f's signals; a callable f at t = 0 on the edge's nodes ys."""
        what = _MAX_F.format(len(self.edge.controls))
        speed = self.edge.speed_signal(None if ys is None else self.sign * ys)
        return speed, what if _is_form(self.edge.f) else f"{what} and {len(ys)} nodes"

    def value_bound(self, L: float, ys=None) -> float:
        """max|f| L + max|l|, a callable at t = 0 on the edge's nodes ys."""
        xs = None if ys is None else self.sign * ys
        return self.edge.speed_bound(xs) * L + self.edge.cost_bound(xs)

    def reflected(self) -> "TableHamiltonian":
        return TableHamiltonian(self.edge, -self.sign)

    def values_at(self, t: float, x) -> tuple:
        xs = np.atleast_1d(x)
        return (*self.edge.lines(self.sign, t, t, xs), xs)

    def freeze(self, values: tuple):
        p_hat, speeds, costs = _freeze_lines(*np.broadcast_arrays(*values[:2]))
        h_min, xs = _line_max(speeds, costs, p_hat), values[2]

        def at(t, x):
            j = np.searchsorted(xs, x)
            return p_hat[j], h_min[j], lambda p: _line_max(speeds[:, j], costs[:, j], p)
        return at


def _induced(edge: ControlEdge, sign: float) -> Hamiltonian:
    """The induced Hamiltonian of edge with velocity sign: the ClosedHamiltonian of
    _line_form at the edge's six coefficients when f and l are forms, else the
    edge's TableHamiltonian. Either gives its own bounds and is minimised exactly,
    so it declares none of a black box's search data (lipschitz_p,
    coercivity_radius)."""
    if edge.x_independent:
        return ClosedHamiltonian(_line_form(edge.controls, sign), _coefficients(edge))
    return TableHamiltonian(edge, sign)


def induced_hamiltonian(cs: ControlSystem, i: int) -> Hamiltonian:
    """H_i(t, x, p) = sup over sampled controls of [f_i p - l_i].

    For the line convention this is the whole-line Hamiltonian of the edge
    (its reflection puts it in edge-local coordinates); for stars the edge
    dynamics are already local, so the induced Hamiltonian is too.
    """
    return _induced(cs.edges[i], 1.0)

