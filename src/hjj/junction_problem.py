"""Evolutive Hamilton-Jacobi problems on a star junction.

A problem is a set of J >= 2 half-line edges meeting at a single junction
point, each carrying a convex coercive Hamiltonian in edge-local coordinates
(y >= 0 measured away from the junction), plus a piecewise-constant flux
limiter A(t) acting at the junction and Lipschitz initial data. The
two-edge case is the whole real line: edge 0 is (0, inf) with x = y and
edge 1 is (-inf, 0) with x = -y; constructors convert between the two
conventions.

The junction operator is

    F_A(t, q_1, ..., q_J) = max{ A(t), max_i H_i^-(t, 0, q_i) }

with q_i the edge-local slope at the junction and H_i^- the nonincreasing
envelope. Admissibility requires A(t) >= A_0(t) = max_i min_p H_i(t, 0, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .control_system import (
    ControlSystem,
    control_system_from_config,
    flux_limiter as cs_flux_limiter,
    induced_hamiltonian,
)
from .errors import ConfigError, ConvexityError, FluxLimiterBelowFloor, SlopeCountMismatch
from .grid import edge_nodes
from .hamiltonian import Hamiltonian, a0_floor, check_convexity, envelopes, reflected
from .time_signal import TimeSignal, coeff_from_config, constant, union_mesh

__all__ = [
    "Edge",
    "JunctionProblem",
    "ValidationItem",
    "ValidationReport",
    "from_line",
    "induced_problem",
    "junction_hamiltonian",
    "validate",
    "initial_datum_from_config",
    "problem_from_config",
]


@dataclass
class Edge:
    """Half-line edge: local Hamiltonian plus an optional finite length."""

    hamiltonian: Hamiltonian
    length: float = math.inf

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("edge length must be positive")


class JunctionProblem:
    """Problem data in edge-local form. Prefer from_line for two-edge setups."""

    def __init__(
        self,
        edges: Sequence[Edge],
        flux_limiter: TimeSignal,
        initial_data: Sequence[Callable[[float], float]],
        lipschitz_u0: float,
        horizon: float,
        line_convention: bool = False,
        u0_line: Callable[[float], float] | None = None,
    ):
        if len(edges) < 2:
            raise ValueError("a junction needs at least two edges")
        if len(initial_data) != len(edges):
            raise ValueError("one initial datum per edge required")
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if abs(flux_limiter.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError("flux limiter horizon must match the problem horizon")
        if line_convention and len(edges) != 2:
            raise ValueError("line convention requires exactly two edges")
        vals0 = [float(u0(0.0)) for u0 in initial_data]
        if max(vals0) - min(vals0) > 1e-9 * max(1.0, abs(vals0[0])):
            raise ValueError("initial data disagree at the junction")
        self.edges = list(edges)
        self.flux_limiter = flux_limiter
        self.initial_data = list(initial_data)
        self.lipschitz_u0 = float(lipschitz_u0)
        self.horizon = float(horizon)
        self.line_convention = bool(line_convention)
        self.u0_line = u0_line
        self._envs = [envelopes(e.hamiltonian) for e in self.edges]
        self._cfl = {}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def envelope(self, i: int):
        return self._envs[i]

    def cfl_speed(self, dx: float | None = None, radii=None) -> tuple[float, str]:
        """(C2, source): a bound on |dH_i/dp| over the slopes the scheme reaches.

        M = max(sup|A|, max_i sup_{t, |q| <= L_u0} |H_i(t, q)|) bounds the
        discrete time derivative at the first step, and the slopes stay
        where H_i <= M (Costeseque, Lebacque & Monneau 2015, for
        time-independent data). Each edge bounds |dH_i/dp| there
        (Hamiltonian.speed_bound): a quadratic on its slope box, |p| + c by
        1, a control-induced edge by max|f|, a black box or a declared
        p_span by the declared constant. C2 is the largest, and source
        names it and its edge. With time-dependent coefficients the box is
        the a priori choice of dt only; fd_scheme checks the slopes of every
        step on the edges whose C2 holds only on the box.

        An x-dependent edge is bounded on the nodes that dx and radii give
        it (grid.edge_nodes), so it needs them. Computed once per problem
        (and node set) and cached.
        """
        key, nodes = None, [None] * self.n_edges
        if dx is not None and not all(e.hamiltonian.x_independent for e in self.edges):
            nodes = edge_nodes(dx, radii)
            key = (float(dx), tuple(len(ys) for ys in nodes))
        if key not in self._cfl:
            hams = [e.hamiltonian for e in self.edges]
            big_m = max([abs(self.flux_limiter.min()), abs(self.flux_limiter.max())]
                        + [h.value_bound(self.lipschitz_u0, ys) for h, ys in zip(hams, nodes)])
            speeds = [h.speed_bound(big_m, ys) for h, ys in zip(hams, nodes)]
            i = max(range(self.n_edges), key=lambda k: speeds[k][0])
            self._cfl[key] = (float(speeds[i][0]), f"{speeds[i][1]} on edge {i}")
        return self._cfl[key]

    def c2_max(self) -> float:
        """C2 of cfl_speed() alone."""
        return self.cfl_speed()[0]

    def local_slopes(self, slopes: Sequence[float]) -> np.ndarray:
        """Normalize caller slopes to edge-local orientation.

        Two-edge line problems pass whole-line one-sided slopes
        (u_x(0+), u_x(0-)); stars pass edge-local slopes directly.
        """
        if len(slopes) != self.n_edges:
            raise SlopeCountMismatch(
                f"got {len(slopes)} slopes for {self.n_edges} edges")
        q = np.asarray(slopes, dtype=float).copy()
        if self.line_convention:
            q[1] = -q[1]
        return q

    def junction_value(self, t: float, slopes: Sequence[float]) -> float:
        q = self.local_slopes(slopes)
        best = self.flux_limiter(t)
        for i, env in enumerate(self._envs):
            best = max(best, float(env.h_minus(t, 0.0, q[i])))
        return best

    def floor(self, t: float) -> float:
        return a0_floor([e.hamiltonian for e in self.edges], t)

    def coefficient_signals(self) -> list[TimeSignal]:
        sigs = [self.flux_limiter]
        for e in self.edges:
            sigs.extend(e.hamiltonian.time_data.values())
        return sigs

    def to_line(self) -> tuple[Hamiltonian, Hamiltonian]:
        """Whole-line Hamiltonians (right half, left half) of a line problem."""
        if not self.line_convention:
            raise ValueError("not a whole-line problem")
        return self.edges[0].hamiltonian, reflected(self.edges[1].hamiltonian)


def from_line(
    h_right: Hamiltonian,
    h_left: Hamiltonian,
    flux_limiter: TimeSignal,
    u0: Callable[[float], float],
    lipschitz_u0: float,
    horizon: float,
    lengths: tuple[float, float] = (math.inf, math.inf),
) -> JunctionProblem:
    """Two-edge problem from whole-line data.

    h_right acts on (0, inf) and h_left on (-inf, 0); h_left is carried to
    edge-local coordinates by the reflection x -> -x, and the solution on
    the left half-line is read off as u(x) = U_1(-x).
    """
    return JunctionProblem(
        edges=[Edge(h_right, lengths[0]), Edge(reflected(h_left), lengths[1])],
        flux_limiter=flux_limiter,
        initial_data=[lambda y: float(u0(y)), lambda y: float(u0(-y))],
        lipschitz_u0=lipschitz_u0,
        horizon=horizon,
        line_convention=True,
        u0_line=u0,
    )


def induced_problem(
    cs: ControlSystem,
    u0,
    lipschitz_u0: float,
    horizon: float,
) -> JunctionProblem:
    """Junction problem whose Hamiltonians are induced by a control system.

    For the line convention u0 is a whole-line function; for stars it is
    either one function of the local coordinate or a per-edge sequence.
    """
    A = cs_flux_limiter(cs)
    if abs(A.horizon - horizon) > 1e-12 * max(1.0, horizon):
        raise ValueError("junction cost signal horizon must match the horizon")
    hams = [induced_hamiltonian(cs, i) for i in range(len(cs.edges))]
    if cs.orientation == "line":
        return from_line(hams[0], hams[1], A, u0, lipschitz_u0, horizon)
    data = list(u0) if isinstance(u0, (list, tuple)) else [u0] * len(hams)
    return JunctionProblem(
        edges=[Edge(h) for h in hams],
        flux_limiter=A,
        initial_data=data,
        lipschitz_u0=lipschitz_u0,
        horizon=horizon,
    )


def junction_hamiltonian(problem: JunctionProblem, t: float,
                         slopes: Sequence[float]) -> float:
    """max{A(t)} over {H_i^- at the junction}; see JunctionProblem.junction_value."""
    return problem.junction_value(t, slopes)


@dataclass
class ValidationItem:
    name: str
    passed: bool
    detail: str = ""
    worst_sample: float | None = None
    worst_value: float | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"{status:4s}  {self.name}"
        if self.detail:
            msg += f"  ({self.detail})"
        return msg


@dataclass
class ValidationReport:
    items: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        return [item.line() for item in self.items]


def _validation_times(problem: JunctionProblem, refine: int = 32) -> np.ndarray:
    """Cell midpoints of the breakpoint union mesh plus a uniform refinement."""
    mesh = union_mesh(problem.coefficient_signals())
    uniform = np.linspace(0.0, problem.horizon, refine + 1)
    knots = np.unique(np.concatenate([mesh, uniform]))
    return 0.5 * (knots[:-1] + knots[1:])


def validate(problem: JunctionProblem, refine: int = 32,
             u0_samples: int = 256, seed: int = 20) -> ValidationReport:
    """Check the standing assumptions on sampled points.

    Raises FluxLimiterBelowFloor (hard failure) when A(t) dips below the
    junction floor beyond 1e-9; every other check is reported soft. The last
    item, cfl_speed, always passes: it reports C2 and where it comes from.
    """
    report = ValidationReport()

    worst_t, worst_deficit = None, 0.0
    for t in _validation_times(problem, refine):
        deficit = problem.floor(float(t)) - problem.flux_limiter(float(t))
        if deficit > worst_deficit:
            worst_t, worst_deficit = float(t), float(deficit)
    if worst_deficit > 1e-9:
        raise FluxLimiterBelowFloor(worst_t, worst_deficit)
    report.items.append(ValidationItem(
        "flux_limiter_floor", True,
        f"worst deficit {worst_deficit:.2e}", worst_t, worst_deficit))

    span = min([min(e.length, 2.0) for e in problem.edges])
    ys = np.linspace(0.0, span, u0_samples)
    worst_q, worst_y = 0.0, None
    for i, u0 in enumerate(problem.initial_data):
        vals = np.array([u0(float(y)) for y in ys])
        quot = np.abs(np.diff(vals)) / np.diff(ys)
        k = int(np.argmax(quot))
        if quot[k] > worst_q:
            worst_q, worst_y = float(quot[k]), float(ys[k])
    ok = worst_q <= problem.lipschitz_u0 * (1.0 + 1e-6) + 1e-12
    report.items.append(ValidationItem(
        "initial_datum_lipschitz", ok,
        f"measured {worst_q:.6g} vs declared {problem.lipschitz_u0:.6g}",
        worst_y, worst_q))

    for i, e in enumerate(problem.edges):
        try:
            check_convexity(e.hamiltonian, n_checks=200, seed=seed)
            report.items.append(ValidationItem(f"edge{i}_convexity", True))
        except ConvexityError as exc:
            report.items.append(ValidationItem(
                f"edge{i}_convexity", False, str(exc)))

    try:  # informational: the C2 that sets the default dt, and its source
        c2, source = problem.cfl_speed()
        detail = f"C2 = {c2:.6g} from {source}"
    except ValueError as exc:
        detail = str(exc)
    report.items.append(ValidationItem("cfl_speed", True, detail))
    return report


# ---------------------------------------------------------------------------
# JSON config support

def initial_datum_from_config(d: dict) -> tuple[Callable[[float], float], float]:
    """Named initial-datum forms; returns (function, Lipschitz constant)."""
    if not isinstance(d, dict) or "form" not in d:
        raise ConfigError("initial datum config needs a 'form' key")
    form = d["form"]
    if form == "zero":
        return (lambda x: 0.0), 0.0
    if form == "constant":
        c = float(d.get("c", 0.0))
        return (lambda x: c), 0.0
    if form == "affine":
        a = float(d.get("slope", 1.0))
        b = float(d.get("offset", 0.0))
        return (lambda x: a * x + b), abs(a)
    if form == "abs":
        s = float(d.get("scale", 1.0))
        return (lambda x: s * abs(x)), abs(s)
    if form == "min_const_abs":
        c = float(d.get("c", 1.0))
        return (lambda x: min(c, abs(x))), 1.0
    raise ConfigError(f"unknown initial datum form {form!r}")


def problem_from_config(cfg: dict, controls: int | None = None
                        ) -> tuple[JunctionProblem, ControlSystem | None]:
    """Build (problem, optional control system) from a parsed problem file.

    Edge Hamiltonians may be given explicitly (catalog forms) or induced
    from the control_system block; explicit entries win when both exist.
    controls, when given, resamples every control edge to that many
    samples, so an induced problem and the control system share them.
    """
    from .hamiltonian import hamiltonian_from_config

    try:
        horizon = float(cfg["T"])
    except KeyError as exc:
        raise ConfigError("problem file needs a horizon entry 'T'") from exc
    if horizon <= 0:
        raise ConfigError("'T' must be positive")

    cs = None
    if "control_system" in cfg:
        cs = control_system_from_config(cfg["control_system"], horizon, controls)

    u0_cfg = cfg.get("u0", {"form": "zero"})
    orientation = cfg.get("orientation", "line")

    if "edges" in cfg:
        edge_cfgs = cfg["edges"]
        if not isinstance(edge_cfgs, list) or len(edge_cfgs) < 2:
            raise ConfigError("'edges' must list at least two edges")
        hams = []
        lengths = []
        for e in edge_cfgs:
            if "hamiltonian" not in e:
                raise ConfigError("each edge needs a 'hamiltonian' entry")
            hams.append(hamiltonian_from_config(e["hamiltonian"], horizon))
            ln = e.get("length")
            lengths.append(math.inf if ln is None else float(ln))
        if "flux_limiter" not in cfg:
            raise ConfigError("problem file needs a 'flux_limiter' entry")
        A = coeff_from_config(cfg["flux_limiter"], horizon, "flux_limiter")
        if not isinstance(A, TimeSignal):
            A = constant(A, horizon)
        if orientation == "line":
            if len(hams) != 2:
                raise ConfigError("line orientation needs exactly two edges")
            u0, lip = initial_datum_from_config(u0_cfg)
            lip = float(cfg.get("lipschitz_u0", lip))
            problem = from_line(hams[0], hams[1], A, u0, lip, horizon,
                                lengths=(lengths[0], lengths[1]))
        else:
            if isinstance(u0_cfg, list):
                parsed = [initial_datum_from_config(u) for u in u0_cfg]
            else:
                parsed = [initial_datum_from_config(u0_cfg)] * len(hams)
            lip = float(cfg.get("lipschitz_u0", max(p[1] for p in parsed)))
            problem = JunctionProblem(
                edges=[Edge(h, ln) for h, ln in zip(hams, lengths)],
                flux_limiter=A,
                initial_data=[p[0] for p in parsed],
                lipschitz_u0=lip,
                horizon=horizon,
            )
        return problem, cs

    if cs is None:
        raise ConfigError(
            "problem file needs either 'edges' or a 'control_system' block")
    u0, lip = initial_datum_from_config(u0_cfg)
    lip = float(cfg.get("lipschitz_u0", lip))
    return induced_problem(cs, u0, lip, horizon), cs
