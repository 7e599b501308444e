"""Independent references the tests check hjj against.

None of this is part of the package: no command, tool or benchmark calls
it. The tests import it by name, and pytest does not collect it (its name
does not start with test_).

- enumerate_trajectories: an exact minimum over piecewise-constant
  controls between two events, by exhaustive search on desk-scale
  instances, and TrajectorySample, its optimal path; BudgetExceeded when
  the search would be too large. It is an oracle for the value function.
- dpp_consistency_check: a value-function run against its restart from
  one of its own levels (the dynamic programming principle).
- RestrictedEnvelopes: the monotone envelopes of an induced Hamiltonian as
  sign-restricted suprema over the controls, which coincide with the
  minimizer-splitting envelopes; edge_hamiltonian, the induced
  Hamiltonian of a lone edge.
- l1_distance: the exact L1 distance of two time signals.
- product_grid_gap: compute_kn's junction part as the maximum over the
  whole product slope grid of each cell, which approximation._junction_gap
  takes edge by edge.
- step: one explicit Euler update of the scheme, which reads its flux and
  junction operator.
- shifted_fields: a field's sandwich as two shifted copies, and NegativeKn
  for a shift signal below zero; comparison_diagnostic computes the same
  sandwich in one buffer.
- array_field: an array of levels as a field, whose march yields its rows;
  batch_values: a batch's march (fd_scheme's stream) read into one
  (problems, levels, nodes) array, as comparison_diagnostic reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hjj.control_system import (ControlEdge, ControlForm, ControlSystem, _induced, _line_max,
                                flux_limiter)
from hjj.dpp_oracle import _march
from hjj.errors import HjjError, NoAdmissibleControl
from hjj.fd_scheme import _advance, _check_cfl, _stream, _windows
from hjj.grid import Grid, SolutionField, _max_abs
from hjj.hamiltonian import Hamiltonian
from hjj.junction_problem import JunctionProblem
from hjj.time_signal import TimeSignal, union_mesh


class BudgetExceeded(HjjError):
    """Exhaustive trajectory enumeration would exceed its node budget."""


class NegativeKn(HjjError):
    """A mismatch signal came out negative beyond round-off."""


# ---------------------------------------------------------------------------
# the scheme's one update, the induced Hamiltonians' sign-restricted envelopes

def step(problem: JunctionProblem, grid: Grid, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One explicit Euler update over the window [t, t + dt].

    It reads the scheme's one flux and junction operator: an interior node
    j gets u[j] - dt F, F the Godunov flux of its two slopes, and the
    junction node u[0] - dt F_A. A window on which C2 integrates above dx
    raises CflViolation.
    """
    times = np.array([t, t + dt])
    _check_cfl([problem], grid, times)
    return _advance([problem], grid, u[None], t, dt, _windows([problem], grid, times)(0))[0]


def edge_hamiltonian(edge: ControlEdge) -> Hamiltonian:
    """Induced Hamiltonian of a lone edge, without system-level checks.

    Useful for degenerate control sets (a single control, no junction
    coverage) that a full ControlSystem would reject.
    """
    return _induced(edge, 1.0)


class RestrictedEnvelopes:
    """Envelopes obtained by sign-restricting the control supremum.

    h_minus takes the supremum over controls with nonpositive speed, h_plus
    over nonnegative speed (non-strict on both sides, so a zero-speed sample
    contributes to both). Coincides with the minimizer-splitting envelopes of
    the induced Hamiltonian up to control-discretization error.
    """

    def __init__(self, cs: ControlSystem, i: int):
        # Same coordinates as induced_hamiltonian(cs, i): as-given dynamics.
        self.i, self.edge = i, cs.edges[i]

    def _restricted(self, t, x, p, negative: bool):
        fa, la = self.edge.lines(1.0, t, t, x)
        mask = fa <= 0.0 if negative else fa >= 0.0
        if not np.any(mask):
            side = "f <= 0" if negative else "f >= 0"
            raise NoAdmissibleControl(
                f"edge {self.i}: no control with {side} at (t={t}, x={x})")
        return _line_max(fa[mask], la[mask], p)

    def h_minus(self, t, x, p):
        return self._restricted(t, x, p, negative=True)

    def h_plus(self, t, x, p):
        return self._restricted(t, x, p, negative=False)


def l1_distance(s1: TimeSignal, s2: TimeSignal) -> float:
    """Exact integral of |s1 - s2| over the shared horizon."""
    mesh = union_mesh([s1, s2])
    widths = np.diff(mesh)
    mids = 0.5 * (mesh[:-1] + mesh[1:])
    return float(np.sum(np.abs(s1(mids) - s2(mids)) * widths))


def product_grid_gap(a, m, b, w) -> np.ndarray:
    """max |F - G| over each cell's product slope grid, F = max(a, m_1(q_1), ..., m_J(q_J)).

    a and b hold one limiter value per cell, m and w one (cells, n) table per
    edge; G is F of (b, w).
    """
    def combo(a_vals, tables):
        J = len(tables)
        out = np.reshape(a_vals, (-1,) + (1,) * J)
        for i, t in enumerate(tables):
            shape = [len(t)] + [1] * J
            shape[i + 1] = t.shape[1]
            out = np.maximum(out, t.reshape(shape))
        return out

    gap = np.abs(combo(a, m) - combo(b, w))
    return gap.reshape(len(gap), -1).max(axis=1)


# ---------------------------------------------------------------------------
# the dynamic programming principle: a restart from a level of the value function

def dpp_consistency_check(cs: ControlSystem, field: SolutionField, s: float) -> float:
    """Max deviation between a value-function run and its restart from the level at time s.

    field is value_function's result for cs; the restart takes its
    piecewise-linear profile at s as a fresh datum on the same grid, so by
    the programming principle the deviation should be at the
    interpolation-composition scale (and zero when nothing is lost). s must
    be a time of the grid. The restart marches on the grid's levels from s
    on, so it builds the tables of its own windows. The deviation is folded
    one restarted level at a time (grid._max_abs), and the restart, like
    any march, raises NumericalFailure at its first non-finite level.
    """
    grid = field.grid
    ns = grid.level_index(s)
    if abs(float(grid.times[ns]) - s) > 1e-9 * max(1.0, grid.horizon):
        raise ValueError(f"restart time {s} is not a grid time")

    data = []
    for i in range(grid.n_edges):
        ys = grid.edge_y(i)
        vals = field.values[ns][grid.edge_full_indices(i)]
        data.append(lambda y, _ys=ys, _v=vals: float(np.interp(y, _ys, _v)))
    restarted = _march(cs, replace(grid, times=grid.times[ns:]), grid.sample(data))()
    return _max_abs(a - b for a, b in zip(restarted, field.values[ns:]))


# ---------------------------------------------------------------------------
# fields and batches held as arrays

def array_field(grid: Grid, values, line: bool) -> SolutionField:
    """values (levels x nodes) as a field whose march yields its rows."""
    return SolutionField(grid, lambda: iter(values), line)


def batch_values(problems, grid: Grid) -> np.ndarray:
    """The batch's one march on grid as a (problems, levels, nodes) array."""
    problems = list(problems)
    levels = _stream(problems, grid)
    values = np.empty((len(problems), grid.steps + 1, grid.n_nodes))
    for n, level in enumerate(levels()):
        values[:, n] = level
    return values


# ---------------------------------------------------------------------------
# the sandwich as two shifted fields

def shifted_fields(field: SolutionField, kn: TimeSignal):
    """(lower, upper) copies shifted by -/+ the running integral of kn."""
    if kn.min() < -1e-12:
        raise NegativeKn("shift signal must be nonnegative")
    cum = kn.running_integrals(field.grid.times)
    lower = array_field(field.grid, field.values - cum[:, None], field.line)
    upper = array_field(field.grid, field.values + cum[:, None], field.line)
    return lower, upper


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


# enumerate_trajectories' limits: the search nodes it may visit, and the relative
# distance to the end point within which a path arrives
_ENUM_BUDGET = 10_000_000
_ARRIVAL_TOL = 1e-9


class _Enumerator:
    def __init__(self, edges, A: TimeSignal, arrival_tol: float):
        self.edges = edges
        self.A = A
        self.forms = [_form_only(e) for e in edges]
        self.nodes = 0
        self.arrival_tol = arrival_tol
        self.best_cost = math.inf
        self.best_enc: tuple | None = None
        self.best_segs: tuple | None = None

    def _tick(self):
        self.nodes += 1
        if self.nodes > _ENUM_BUDGET:
            raise BudgetExceeded(f"enumeration exceeded {_ENUM_BUDGET} nodes")

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
) -> tuple[float, TrajectorySample | None]:
    """Exact minimum over piecewise-constant controls between two events.

    start and end are (position, time) pairs in whole-line coordinates. The
    per-piece choices are: park at the junction, or drive one control of the
    current side; a trajectory hitting the junction mid-piece either sticks
    there (accruing the junction cost -A) or crosses with any control that
    strictly enters the opposite side, with the running-cost integral split
    exactly at the crossing. Costs include u0 at the start point when u0 is
    given. A path arrives when it ends within _ARRIVAL_TOL max(1, |x1|) of
    the end point x1 (within _ARRIVAL_TOL when t1 = t0). Returns (inf,
    None) when no combination reaches the end point, and raises
    BudgetExceeded when the worst case, or the search itself, would visit
    more than _ENUM_BUDGET nodes.
    """
    x0, t0 = float(start[0]), float(start[1])
    x1, t1 = float(end[0]), float(end[1])
    if t1 < t0:
        raise ValueError("end time precedes start time")
    base = float(u0(x0)) if u0 is not None else 0.0
    if t1 == t0:
        if abs(x1 - x0) <= _ARRIVAL_TOL:
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
    if branch ** pieces > _ENUM_BUDGET:
        raise BudgetExceeded(
            f"worst-case branching {branch}^{pieces} exceeds {_ENUM_BUDGET}")

    enum = _Enumerator(sub_edges, flux_limiter(cs), _ARRIVAL_TOL * max(1.0, abs(x1)))
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
