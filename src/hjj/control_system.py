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
and f >= 0, which this module exposes for cross-checking.

Only the lower cost-speed front of a control sample can set that supremum
(or the minimum of a Bellman update). undominated(speeds, costs) marks it:
a control with speed v > 0 is dropped when one control with speed in
(0, v] and one with speed >= v both cost no more (a "near" and a "far"
dominator; the mirror rule for v < 0, and a zero-speed control only yields
to a cheaper-or-equal zero-speed one). Every line of the induced H is
fl(fl(f p) - l), and rounding is monotone, so for p >= 0 the far
dominator's line is >= line k and for p <= 0 the near dominator's is: the
maximum over the kept lines equals the full maximum (bit for bit but for
the sign of a tied zero, see undominated). An x-independent edge
with constant coefficients therefore evaluates only its undominated lines;
this covers the per-window rebuilds from averaged coefficients and the
reflection. Callable or time-dependent-inside-the-call edges keep all lines.

A problem file's control_system block is read by
junction_problem.control_system_from_config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyControlSet, NoAdmissibleControl
from .grid import edge_nodes
from .hamiltonian import Hamiltonian, elementwise
from .time_signal import (TimeSignal, coeff_average, coeff_bounds, coeff_eval,
                          coeff_window_averages)

__all__ = [
    "ControlForm",
    "ControlEdge",
    "ControlSystem",
    "control_edge",
    "edge_hamiltonian",
    "flux_limiter",
    "induced_hamiltonian",
    "restricted_envelopes",
    "undominated",
]


@dataclass(frozen=True)
class ControlForm:
    """g(t, a) = c0 + c1 a + c2 a^2 with float or TimeSignal coefficients."""

    c0: object = 0.0
    c1: object = 0.0
    c2: object = 0.0

    def eval(self, t: float, alphas: np.ndarray) -> np.ndarray:
        a = np.asarray(alphas, dtype=float)
        return (coeff_eval(self.c0, t)
                + coeff_eval(self.c1, t) * a
                + coeff_eval(self.c2, t) * a * a)

    def averaged(self, a: float, b: float) -> "ControlForm":
        return ControlForm(coeff_average(self.c0, a, b),
                           coeff_average(self.c1, a, b),
                           coeff_average(self.c2, a, b))

    def window_table(self, times, alphas: np.ndarray) -> np.ndarray:
        """averaged(times[n], times[n+1]).eval(0, alphas) as row n, bit for bit."""
        a = np.asarray(alphas, dtype=float)
        c0, c1, c2 = (coeff_window_averages(c, times)[:, None]
                      for c in (self.c0, self.c1, self.c2))
        return c0 + c1 * a + c2 * a * a

    def bounds(self, alphas: np.ndarray) -> tuple[float, float]:
        """Range of g over the sampled controls and all coefficient values."""
        a = np.asarray(alphas, dtype=float)
        lo0, hi0 = coeff_bounds(self.c0)
        lo1, hi1 = coeff_bounds(self.c1)
        lo2, hi2 = coeff_bounds(self.c2)
        lin_lo = np.minimum(lo1 * a, hi1 * a)
        lin_hi = np.maximum(lo1 * a, hi1 * a)
        sq = a * a
        quad_lo = np.minimum(lo2 * sq, hi2 * sq)
        quad_hi = np.maximum(lo2 * sq, hi2 * sq)
        return (float(np.min(lo0 + lin_lo + quad_lo)),
                float(np.max(hi0 + lin_hi + quad_hi)))

    def signals(self) -> dict:
        out = {}
        for name in ("c0", "c1", "c2"):
            v = getattr(self, name)
            if isinstance(v, TimeSignal):
                out[name] = v
        return out

    def is_constant(self) -> bool:
        return not self.signals()


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


def _window_call(g, a: float, b: float, x, alphas: np.ndarray) -> np.ndarray:
    """_call_g of g averaged over [a, b]: exact for a form, at the midpoint for a callable."""
    if _is_form(g):
        return _call_g(g.averaged(a, b), 0.0, x, alphas)
    return _call_g(g, 0.5 * (a + b), x, alphas)


@dataclass
class ControlEdge:
    """One edge of the control system: dynamics, running cost and sampled controls.

    A callable f or l is (t, x, a) -> value. a may arrive as a 1-D array of
    controls, and x as one float or as an array elementwise with a; a
    callable that cannot take arrays raises TypeError or ValueError and is
    then called one position (and if need be one control) at a time. A
    callable is bounded on the positions it is given, so its bounds need
    the grid's nodes; a form's bounds ignore positions.

    On the scheme route an edge with a callable f or l is time-independent:
    its induced Hamiltonian's minimiser is found once per march, at t = 0.
    There, time dependence must come through ControlForm signals. The value
    function evaluates a callable at each window's midpoint.
    """

    f: object  # ControlForm or callable (t, x, a)
    l: object  # ControlForm or callable (t, x, a)
    controls: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.controls, dtype=float)
        if c.size == 0:
            raise EmptyControlSet("edge has no control samples")
        self.controls = np.sort(c)

    @property
    def x_independent(self) -> bool:
        return _is_form(self.f) and _is_form(self.l)

    def speed_bound(self, xs=None) -> float:
        """max |f| over the controls and every coefficient value.

        A callable f is evaluated at t = 0 at the array of positions xs.
        """
        return _abs_max(self.f, self.controls, xs)

    def cost_bound(self, xs=None) -> float:
        """max |l|, in the same way as speed_bound."""
        return _abs_max(self.l, self.controls, xs)


def _abs_max(g, controls: np.ndarray, xs) -> float:
    if _is_form(g):
        lo, hi = g.bounds(controls)
        return max(abs(lo), abs(hi))
    if xs is None:
        raise ValueError("a bound on an x-dependent control edge needs the grid's nodes")
    return float(np.max(np.abs(_call_g(g, 0.0, xs, controls))))


def control_edge(f, l, lo: float, hi: float, n: int = 101) -> ControlEdge:
    """Edge with controls sampled uniformly from the interval [lo, hi]."""
    if n < 3:
        raise ValueError("need at least 3 control samples")
    return ControlEdge(f, l, np.linspace(float(lo), float(hi), int(n)))


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
        if self.delta <= 0.0:
            raise ValueError("controllability radius delta must be positive")
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
        times = [0.0]
        if _is_form(edge.f):
            for sig in edge.f.signals().values():
                times.extend(sig.breakpoints[:-1])
        for t in times:
            speeds = np.sort(self.local_speeds(i, float(t), 0.0))
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

    def local_speeds(self, i: int, t: float, y: float) -> np.ndarray:
        s = self.sign(i)
        edge = self.edges[i]
        return s * _call_g(edge.f, t, s * y, edge.controls)

    def local_f_avg(self, i: int, a: float, b: float, y=0.0) -> np.ndarray:
        """Window-averaged edge-local speeds per control sample, at y as _call_g takes x."""
        s = self.sign(i)
        edge = self.edges[i]
        return s * _window_call(edge.f, a, b, s * y, edge.controls)

    def local_l_avg(self, i: int, a: float, b: float, y=0.0) -> np.ndarray:
        """Window-averaged running costs per control sample, at y as _call_g takes x."""
        s = self.sign(i)
        edge = self.edges[i]
        return _window_call(edge.l, a, b, s * y, edge.controls)

    def local_window_tables(self, i: int, times) -> tuple[np.ndarray, np.ndarray]:
        """local_f_avg and local_l_avg of a form edge, row n bit-equal to window n."""
        s = self.sign(i)
        edge = self.edges[i]
        return (s * edge.f.window_table(times, edge.controls),
                edge.l.window_table(times, edge.controls))

    def _positions(self, dx: float | None, radii) -> list:
        """Edge i's grid nodes y as its f and l take x, sign(i) * y; None without dx."""
        if dx is None:
            return [None] * len(self.edges)
        return [self.sign(i) * ys for i, ys in enumerate(edge_nodes(dx, radii))]

    def max_speed(self, dx: float | None = None, radii=None) -> float:
        """max over edges of max|f_i| over the controls, at the nodes dx and radii give.

        A callable f needs them; a system of forms alone does not.
        """
        return max(e.speed_bound(xs) for e, xs in zip(self.edges, self._positions(dx, radii)))

    def cost_bound(self, dx: float | None = None, radii=None) -> float:
        """L = max over edges of max|l_i| over the controls, in the same way as max_speed."""
        return max(e.cost_bound(xs) for e, xs in zip(self.edges, self._positions(dx, radii)))

    def abar_bound(self) -> float:
        """|A0| + sup|l0|, the a-priori bound on the flux limiter scale."""
        return abs(self.A0) + max(abs(self.l0.min()), abs(self.l0.max()))


def flux_limiter(cs: ControlSystem) -> TimeSignal:
    """A(t) = max(-l0(t), A0); stays within [A0, |A0| + sup|l0|]."""
    return TimeSignal(cs.l0.breakpoints.copy(),
                      np.maximum(-cs.l0.values, cs.A0))


def _beaten(costs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Mask of the entries whose cost some entry earlier in order matches or beats."""
    beaten = np.zeros(len(costs), dtype=bool)
    ranked = costs[order]
    beaten[order[1:]] = ranked[1:] >= np.minimum.accumulate(ranked)[:-1]
    return beaten


def undominated(speeds, costs) -> np.ndarray:
    """Mask of the controls that can set sup_k [v_k p - l_k] or min_k of a Bellman update.

    Control k with v_k > 0 is dropped only if there are both a near
    dominator j (0 < v_j <= v_k, l_j <= l_k) and a far dominator j'
    (v_j' >= v_k, l_j' <= l_k); v_k < 0 is the mirror image, and a
    zero-speed control is dropped only for another zero-speed one with
    l <= l_k. Among identical (v, l) pairs the lowest index is kept. Sorting
    each sign group by (|v|, l, index) puts exactly the near dominators of k
    before k, so k has one iff the running minimum of l before k is <= l_k;
    sorting by (-|v|, l, index) does the same for far dominators. That is
    O(K log K). The first entry of either order with l <= l_k, the
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
    Bellman minimum is exact too is in dpp_oracle.) With non-finite speeds
    or costs nothing is dropped.
    """
    v = np.asarray(speeds, dtype=float)
    l = np.asarray(costs, dtype=float)
    keep = np.ones(v.shape, dtype=bool)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(l))):
        return keep
    zero = np.flatnonzero(v == 0.0)
    keep[zero] = ~_beaten(l[zero], np.lexsort((zero, l[zero])))
    for side in (np.flatnonzero(v > 0.0), np.flatnonzero(v < 0.0)):
        s, c = np.abs(v[side]), l[side]
        near = _beaten(c, np.lexsort((side, c, s)))
        far = _beaten(c, np.lexsort((side, c, -s)))
        keep[side] = ~(near & far)
    return keep


def _line_max(speeds: np.ndarray, costs: np.ndarray, p):
    """max over controls k of speeds[k] p - costs[k], elementwise in p (a float for a float).

    speeds and costs are (controls,), the same lines at every entry of p,
    or, at an array of positions, (controls, positions) with one position
    per entry of a 1-D p (a form's one column serves them all).
    """
    parr = np.asarray(p, dtype=float)
    scalar = parr.ndim == 0
    parr = np.atleast_1d(parr)
    if speeds.ndim == 1:
        shape = (-1,) + (1,) * parr.ndim
        speeds, costs = speeds.reshape(shape), costs.reshape(shape)
    vals = np.max(speeds * parr - costs, axis=0)
    return float(vals[0]) if scalar else vals


def _induced(edge: ControlEdge, sign: float, delta: float) -> Hamiltonian:
    # A supremum of affine lines is convex, so the convexity probe is skipped.
    controls = edge.controls
    f, l = edge.f, edge.l

    constant = _is_form(f) and _is_form(l) and f.is_constant() and l.is_constant()
    fixed = None
    if constant:  # only the undominated lines can set the maximum
        speeds, costs = sign * f.eval(0.0, controls), l.eval(0.0, controls)
        keep = undominated(speeds, costs)
        fixed = (speeds[keep], costs[keep])

    def evaluator(t, x, p):
        fa, la = fixed if constant else (sign * _call_g(f, t, sign * x, controls),
                                         _call_g(l, t, sign * x, controls))
        return _line_max(fa, la, p)

    if _is_form(f) and _is_form(l):
        coefficients = {
            "f_c0": f.c0, "f_c1": f.c1, "f_c2": f.c2,
            "l_c0": l.c0, "l_c1": l.c1, "l_c2": l.c2,
        }

        def rebuild(coeffs):
            nf = ControlForm(coeffs["f_c0"], coeffs["f_c1"], coeffs["f_c2"])
            nl = ControlForm(coeffs["l_c0"], coeffs["l_c1"], coeffs["l_c2"])
            ne = ControlEdge(nf, nl, controls.copy())
            return _induced(ne, sign, delta)
    else:
        coefficients = None
        rebuild = None

    l_lo, l_hi = (l.bounds(controls) if _is_form(l)
                  else (lambda c: (float(c.min()), float(c.max())))(
                      _call_g(l, 0.0, 0.0, controls)))
    lip = edge.speed_bound() if _is_form(f) else np.inf
    radius = (l_hi - l_lo + 1.0) / max(delta, 1e-9)
    what = f"max|f| over {len(controls)} controls"

    def speed_bound(M, ys):  # a callable is bounded at t = 0 on the edge's nodes
        if _is_form(f):
            return lip, what
        return edge.speed_bound(None if ys is None else sign * ys), f"{what} and {len(ys)} nodes"

    def value_bound(L, ys):
        xs = None if ys is None else sign * ys
        return edge.speed_bound(xs) * L + edge.cost_bound(xs)

    return Hamiltonian(
        evaluator,
        lipschitz_p=lip,
        coercivity_radius=max(radius, 1.0),
        form="control_induced",
        coefficients=coefficients,
        x_independent=edge.x_independent,
        rebuild=rebuild,
        reflect=lambda: _induced(edge, -sign, delta),
        validate=False,
        speed_bound=speed_bound,
        value_bound=value_bound,
    )


def induced_hamiltonian(cs: ControlSystem, i: int) -> Hamiltonian:
    """H_i(t, x, p) = sup over sampled controls of [f_i p - l_i].

    For the line convention this is the whole-line Hamiltonian of the edge
    (its reflection puts it in edge-local coordinates); for stars the edge
    dynamics are already local, so the induced Hamiltonian is too.
    """
    return _induced(cs.edges[i], 1.0, cs.delta)


def edge_hamiltonian(edge: ControlEdge, delta: float = 1.0) -> Hamiltonian:
    """Induced Hamiltonian of a lone edge, without system-level checks.

    Useful for degenerate control sets (a single control, no junction
    coverage) that a full ControlSystem would reject.
    """
    return _induced(edge, 1.0, delta)


class RestrictedEnvelopes:
    """Envelopes obtained by sign-restricting the control supremum.

    h_minus takes the supremum over controls with nonpositive speed, h_plus
    over nonnegative speed (non-strict on both sides, so a zero-speed sample
    contributes to both). Coincides with the minimizer-splitting envelopes of
    the induced Hamiltonian up to control-discretization error.
    """

    def __init__(self, cs: ControlSystem, i: int):
        self.cs = cs
        self.i = i
        # Same coordinates as induced_hamiltonian(cs, i): as-given dynamics.
        self.edge = cs.edges[i]

    def _restricted(self, t, x, p, negative: bool):
        controls = self.edge.controls
        fa = _call_g(self.edge.f, t, x, controls)
        la = _call_g(self.edge.l, t, x, controls)
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


def restricted_envelopes(cs: ControlSystem, i: int) -> RestrictedEnvelopes:
    return RestrictedEnvelopes(cs, i)
