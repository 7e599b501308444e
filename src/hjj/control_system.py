"""Two-regime optimal control data on a junction and its induced Hamiltonians.

Each edge carries a compact control interval (stored as a finite sample),
a velocity field f(t, x, a) and a running cost l(t, x, a). The junction
carries a running cost signal l0 and a constant A0; the effective flux
limiter is A(t) = max(-l0(t), A0). Stationary behavior at the junction is
the only junction control that matters (trajectories parked at 0 move with
velocity zero), so the junction control set is retained only through the
requirement that it contains 0.

The induced Hamiltonian of an edge is H(t, x, p) = sup_a [f p - l]; its
monotone envelopes coincide with the sign-restricted suprema over f <= 0
and f >= 0, which this module exposes for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyControlSet, NoAdmissibleControl
from .hamiltonian import Hamiltonian
from .time_signal import (TimeSignal, coeff_average, coeff_bounds, coeff_eval,
                          coeff_window_averages)

__all__ = [
    "ControlForm",
    "ControlEdge",
    "ControlSystem",
    "control_edge",
    "control_system_from_config",
    "edge_hamiltonian",
    "flux_limiter",
    "induced_hamiltonian",
    "restricted_envelopes",
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


def _call_g(g, t: float, x: float, alphas: np.ndarray) -> np.ndarray:
    """Evaluate a ControlForm or raw callable over an array of controls."""
    if _is_form(g):
        return g.eval(t, alphas)
    a = np.asarray(alphas, dtype=float)
    try:
        out = np.asarray(g(t, x, a), dtype=float)
        if out.shape == a.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(g(t, x, ai)) for ai in a], dtype=float)


@dataclass
class ControlEdge:
    """One edge of the control system."""

    f: object  # ControlForm or callable (t, x, a)
    l: object  # ControlForm or callable (t, x, a)
    controls: np.ndarray
    interval: tuple | None = None  # (lo, hi, n) when sampled from an interval

    def __post_init__(self):
        c = np.asarray(self.controls, dtype=float)
        if c.size == 0:
            raise EmptyControlSet("edge has no control samples")
        self.controls = np.sort(c)

    @property
    def x_independent(self) -> bool:
        return _is_form(self.f) and _is_form(self.l)

    def resampled(self, n: int) -> "ControlEdge":
        if self.interval is None:
            return self
        lo, hi, _ = self.interval
        return ControlEdge(self.f, self.l, np.linspace(lo, hi, n), (lo, hi, n))

    def speed_bound(self) -> float:
        if _is_form(self.f):
            lo, hi = self.f.bounds(self.controls)
            return max(abs(lo), abs(hi))
        speeds = _call_g(self.f, 0.0, 0.0, self.controls)
        return float(np.max(np.abs(speeds))) * 1.0

    def cost_bound(self) -> float:
        if _is_form(self.l):
            lo, hi = self.l.bounds(self.controls)
            return max(abs(lo), abs(hi))
        costs = _call_g(self.l, 0.0, 0.0, self.controls)
        return float(np.max(np.abs(costs)))


def control_edge(f, l, lo: float, hi: float, n: int = 101) -> ControlEdge:
    """Edge with controls sampled uniformly from the interval [lo, hi]."""
    if n < 3:
        raise ValueError("need at least 3 control samples")
    return ControlEdge(f, l, np.linspace(float(lo), float(hi), int(n)),
                       (float(lo), float(hi), int(n)))


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
    junction_controls: tuple = (0.0,)

    def __post_init__(self):
        if self.orientation not in ("line", "star"):
            raise ValueError("orientation must be 'line' or 'star'")
        if len(self.edges) < 2:
            raise ValueError("need at least two edges")
        if self.orientation == "line" and len(self.edges) != 2:
            raise ValueError("line orientation needs exactly two edges")
        if self.delta <= 0.0:
            raise ValueError("controllability radius delta must be positive")
        if not any(abs(a) < 1e-15 for a in self.junction_controls):
            raise ValueError("junction control set must contain 0")
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

    def local_f_avg(self, i: int, a: float, b: float, y: float = 0.0) -> np.ndarray:
        """Window-averaged edge-local speeds per control sample."""
        s = self.sign(i)
        edge = self.edges[i]
        if _is_form(edge.f):
            return s * edge.f.averaged(a, b).eval(0.0, edge.controls)
        tm = 0.5 * (a + b)
        return s * _call_g(edge.f, tm, s * y, edge.controls)

    def local_l_avg(self, i: int, a: float, b: float, y: float = 0.0) -> np.ndarray:
        """Window-averaged running costs per control sample."""
        s = self.sign(i)
        edge = self.edges[i]
        if _is_form(edge.l):
            return edge.l.averaged(a, b).eval(0.0, edge.controls)
        tm = 0.5 * (a + b)
        return _call_g(edge.l, tm, s * y, edge.controls)

    def local_window_tables(self, i: int, times) -> tuple[np.ndarray, np.ndarray]:
        """local_f_avg and local_l_avg of a form edge, row n bit-equal to window n."""
        s = self.sign(i)
        edge = self.edges[i]
        return (s * edge.f.window_table(times, edge.controls),
                edge.l.window_table(times, edge.controls))

    def max_speed(self) -> float:
        return max(e.speed_bound() for e in self.edges)

    def cost_bound(self) -> float:
        """L = max over edges of the sampled sup of |l_i|."""
        return max(e.cost_bound() for e in self.edges)

    def abar_bound(self) -> float:
        """|A0| + sup|l0|, the a-priori bound on the flux limiter scale."""
        return abs(self.A0) + max(abs(self.l0.min()), abs(self.l0.max()))


def flux_limiter(cs: ControlSystem) -> TimeSignal:
    """A(t) = max(-l0(t), A0); stays within [A0, |A0| + sup|l0|]."""
    return TimeSignal(cs.l0.breakpoints.copy(),
                      np.maximum(-cs.l0.values, cs.A0))


def _induced(edge: ControlEdge, sign: float, delta: float,
             validate: bool) -> Hamiltonian:
    controls = edge.controls
    f, l = edge.f, edge.l

    constant = _is_form(f) and _is_form(l) and f.is_constant() and l.is_constant()
    fixed = (sign * f.eval(0.0, controls), l.eval(0.0, controls)) if constant else None

    def evaluator(t, x, p):
        fa, la = fixed if constant else (sign * _call_g(f, t, sign * x, controls),
                                         _call_g(l, t, sign * x, controls))
        parr = np.asarray(p, dtype=float)
        scalar = parr.ndim == 0
        parr = np.atleast_1d(parr)
        vals = np.max(np.multiply.outer(fa, parr)
                      - la.reshape((-1,) + (1,) * parr.ndim), axis=0)
        return float(vals[0]) if scalar else vals

    if _is_form(f) and _is_form(l):
        coefficients = {
            "f_c0": f.c0, "f_c1": f.c1, "f_c2": f.c2,
            "l_c0": l.c0, "l_c1": l.c1, "l_c2": l.c2,
        }

        def rebuild(coeffs):
            nf = ControlForm(coeffs["f_c0"], coeffs["f_c1"], coeffs["f_c2"])
            nl = ControlForm(coeffs["l_c0"], coeffs["l_c1"], coeffs["l_c2"])
            ne = ControlEdge(nf, nl, controls.copy(), edge.interval)
            return _induced(ne, sign, delta, validate=False)
    else:
        coefficients = None
        rebuild = None

    f_lo, f_hi = (f.bounds(controls) if _is_form(f)
                  else (lambda s: (float(s.min()), float(s.max())))(
                      _call_g(f, 0.0, 0.0, controls)))
    l_lo, l_hi = (l.bounds(controls) if _is_form(l)
                  else (lambda c: (float(c.min()), float(c.max())))(
                      _call_g(l, 0.0, 0.0, controls)))
    lip = max(abs(f_lo), abs(f_hi))
    radius = (l_hi - l_lo + 1.0) / max(delta, 1e-9)

    return Hamiltonian(
        evaluator,
        lipschitz_p=lip,
        coercivity_radius=max(radius, 1.0),
        form="control_induced",
        coefficients=coefficients,
        x_independent=edge.x_independent,
        rebuild=rebuild,
        reflect=lambda: _induced(edge, -sign, delta, validate=False),
        validate=validate,
    )


def induced_hamiltonian(cs: ControlSystem, i: int, validate: bool = False) -> Hamiltonian:
    """H_i(t, x, p) = sup over sampled controls of [f_i p - l_i].

    For the line convention this is the whole-line Hamiltonian of the edge
    (its reflection puts it in edge-local coordinates); for stars the edge
    dynamics are already local, so the induced Hamiltonian is too.
    """
    return _induced(cs.edges[i], 1.0, cs.delta, validate=validate)


def edge_hamiltonian(edge: ControlEdge, delta: float = 1.0,
                     validate: bool = False) -> Hamiltonian:
    """Induced Hamiltonian of a lone edge, without system-level checks.

    Useful for degenerate control sets (a single control, no junction
    coverage) that a full ControlSystem would reject.
    """
    return _induced(edge, 1.0, delta, validate=validate)


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
        self.edge = cs.edges[i]
        # Same coordinates as induced_hamiltonian(cs, i): as-given dynamics.
        self.sign = 1.0

    def _restricted(self, t, x, p, negative: bool):
        s = self.sign
        controls = self.edge.controls
        fa = s * _call_g(self.edge.f, t, s * x, controls)
        la = _call_g(self.edge.l, t, s * x, controls)
        mask = fa <= 0.0 if negative else fa >= 0.0
        if not np.any(mask):
            side = "f <= 0" if negative else "f >= 0"
            raise NoAdmissibleControl(
                f"edge {self.i}: no control with {side} at (t={t}, x={x})")
        parr = np.asarray(p, dtype=float)
        scalar = parr.ndim == 0
        parr = np.atleast_1d(parr)
        vals = np.max(np.multiply.outer(fa[mask], parr)
                      - la[mask].reshape((-1,) + (1,) * parr.ndim), axis=0)
        return float(vals[0]) if scalar else vals

    def h_minus(self, t, x, p):
        return self._restricted(t, x, p, negative=True)

    def h_plus(self, t, x, p):
        return self._restricted(t, x, p, negative=False)


def restricted_envelopes(cs: ControlSystem, i: int) -> RestrictedEnvelopes:
    return RestrictedEnvelopes(cs, i)


def _coefficient(v, horizon: float, what: str):
    from .errors import ConfigError

    if isinstance(v, dict):
        sig = TimeSignal.from_dict(v)
        if abs(sig.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ConfigError(f"{what}: signal horizon {sig.horizon} != {horizon}")
        return sig
    return float(v)


def control_system_from_config(d: dict, horizon: float) -> ControlSystem:
    """Parse the 'control_system' block of a problem file."""
    from .errors import ConfigError

    if not isinstance(d, dict):
        raise ConfigError("'control_system' must be an object")
    try:
        edge_cfgs = d["edges"]
        junction = d["junction"]
    except KeyError as exc:
        raise ConfigError(f"control_system block missing {exc.args[0]!r}") from exc
    if not isinstance(edge_cfgs, list) or len(edge_cfgs) < 2:
        raise ConfigError("control_system needs at least two edges")

    def form(sub: dict, what: str) -> ControlForm:
        if not isinstance(sub, dict):
            raise ConfigError(f"{what} must be an object with c0/c1/c2")
        return ControlForm(
            _coefficient(sub.get("c0", 0.0), horizon, what),
            _coefficient(sub.get("c1", 0.0), horizon, what),
            _coefficient(sub.get("c2", 0.0), horizon, what),
        )

    edges = []
    for k, e in enumerate(edge_cfgs):
        try:
            ctr = e["controls"]
            lo, hi = float(ctr["min"]), float(ctr["max"])
        except KeyError as exc:
            raise ConfigError(
                f"edge {k}: controls need 'min' and 'max'") from exc
        n = int(ctr.get("n", 101))
        edges.append(control_edge(form(e.get("f", {}), f"edge {k} f"),
                                  form(e.get("l", {}), f"edge {k} l"),
                                  lo, hi, n))

    l0 = junction.get("l0", 0.0)
    if isinstance(l0, dict):
        l0_sig = _coefficient(l0, horizon, "junction l0")
    else:
        l0_sig = TimeSignal(np.array([0.0, horizon]), np.array([float(l0)]))
    try:
        a0 = float(junction["A0"])
    except KeyError as exc:
        raise ConfigError("control_system junction needs 'A0'") from exc

    return ControlSystem(
        edges=edges,
        l0=l0_sig,
        A0=a0,
        delta=float(d.get("delta", 1.0)),
        orientation=d.get("orientation", "line"),
    )
