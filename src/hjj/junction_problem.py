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
envelope; fd_scheme's junction update applies it. Admissibility requires
A(t) >= A_0(t) = max_i min_p H_i(t, 0, p), which check_floor checks.

The JSON problem-file format lives in this module's config section and
nowhere else: problem_from_config and the block parsers it calls (for
Hamiltonians, control systems, initial data and scalar-or-signal
coefficients) read every key through one typed accessor, entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .control_system import (
    _CONTROL_COUNT,
    ControlForm,
    ControlSystem,
    control_edge,
    flux_limiter as cs_flux_limiter,
    induced_hamiltonian,
)
from .errors import ConfigError, ConvexityError, FluxLimiterBelowFloor
from .grid import _positive_finite, edge_data, edge_nodes
from .hamiltonian import (EnvelopePair, Hamiltonian, abs_shift, check_convexity, eikonal, quadratic,
                          reflected)
from .time_signal import (_EDGE_TOL, TimeSignal, _midpoints, _off_horizon, constant, on_horizon,
                          union_mesh, upper_envelope)

__all__ = [
    "Edge",
    "JunctionProblem",
    "from_line",
    "induced_problem",
    "validate",
    "control_system_from_config",
    "problem_from_config",
]


@dataclass
class Edge:
    """Half-line edge: local Hamiltonian plus an optional finite length."""

    hamiltonian: Hamiltonian
    length: float = math.inf

    def __post_init__(self):
        if not self.length > 0.0:  # NaN fails too; inf is a half-line
            raise ConfigError(f"edge length: expected a positive number, got {self.length!r}")


class JunctionProblem:
    """Problem data in edge-local form. Prefer from_line for two-edge setups.

    lipschitz_u0 bounds the datum's slopes: a negative or non-finite value
    raises ConfigError, as does a horizon that is not positive and finite.
    """

    def __init__(
        self,
        edges: Sequence[Edge],
        flux_limiter: TimeSignal,
        initial_data: Sequence[Callable[[float], float]],
        lipschitz_u0: float,
        horizon: float,
        line_convention: bool = False,
    ):
        if len(edges) < 2:
            raise ValueError("a junction needs at least two edges")
        if len(initial_data) != len(edges):
            raise ValueError("one initial datum per edge required")
        horizon = _positive_finite("horizon", horizon)
        if _off_horizon(flux_limiter.horizon, horizon):
            raise ValueError("flux limiter horizon must match the problem horizon")
        if line_convention and len(edges) != 2:
            raise ValueError("line convention requires exactly two edges")
        vals0 = [float(u0(0.0)) for u0 in initial_data]
        if max(vals0) - min(vals0) > 1e-9 * max(1.0, abs(vals0[0])):
            raise ValueError("initial data disagree at the junction")
        self.edges = list(edges)
        self.flux_limiter = flux_limiter
        self.initial_data = list(initial_data)
        self.lipschitz_u0 = _positive_finite("lipschitz_u0", lipschitz_u0, zero_ok=True)
        self.horizon = horizon
        self.line_convention = bool(line_convention)
        self._envs = [EnvelopePair(e.hamiltonian) for e in self.edges]
        self._cfl = {}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def envelope(self, i: int):
        return self._envs[i]

    def cfl_speed(self, dx: float | None = None, radii=None) -> tuple[float, str]:
        """(C2, source): the sup over t of speed_signal, and what it rests on.

        M = max(sup|A|, max_i sup_{t, |q| <= L_u0} |H_i(t, q)|) bounds the
        discrete time derivative at the first step, and the slopes stay
        where H_i <= M (Costeseque, Lebacque & Monneau 2015, for
        time-independent data). Each edge bounds |dH_i/dp| there
        (Hamiltonian.speed_bound): a quadratic on its slope box, |p| + c by
        1, a control-induced edge by max|f| (per cell of f's signals,
        ControlEdge.speed_signal), a black box or a declared
        p_span by the declared constant. C2 is the largest, and source
        names it and its edge. With time-dependent coefficients the box is
        the a priori choice of dt only; fd_scheme checks the slopes of every
        step on the edges whose C2 holds only on the box.

        An x-dependent edge is bounded on the nodes that dx and radii give
        it (grid.edge_nodes), so it needs them. Computed once per problem
        (and node set) and cached. An edge whose bound on |dH/dp| or on |H|
        is not finite (a black box with lipschitz_p inf, or a quadratic whose
        bound overflows) raises ConfigError naming the edge; M is taken over
        the finite bounds on |H|.
        """
        return self._speed_bounds(dx, radii)[:2]

    def speed_signal(self, dx: float | None = None, radii=None) -> TimeSignal:
        """C2(t): the largest edge bound at each time, constant on each coefficient cell.

        A quadratic edge's bound is 2 a(t) K, with one slope reach K (the box
        or a declared p_span) for all t, so it is cfl_speed's C2 where a is
        largest. A control edge whose f has TimeSignal coefficients bounds
        max|f| per cell of their mesh. Every other edge's bound is its
        constant. A bound that runs past the horizon is cut there
        (time_signal.on_horizon). make_grid sizes each time step by this
        signal.
        """
        return self._speed_bounds(dx, radii)[2]

    def _speed_bounds(self, dx, radii) -> tuple:
        """(C2, source, C2(t)) for cfl_speed and speed_signal, cached per node set."""
        key, nodes = None, [None] * self.n_edges
        if dx is not None and not all(e.hamiltonian.x_independent for e in self.edges):
            nodes = edge_nodes(dx, radii)
            key = (float(dx), tuple(len(ys) for ys in nodes))
        if key not in self._cfl:
            hams = [e.hamiltonian for e in self.edges]
            values = [h.value_bound(self.lipschitz_u0, ys) for h, ys in zip(hams, nodes)]
            big_m = max([abs(self.flux_limiter.min()), abs(self.flux_limiter.max())]
                        + [v for v in values if math.isfinite(v)])
            speeds, notes = zip(*(h.speed_bound(big_m, ys) for h, ys in zip(hams, nodes)))
            for i, (value, speed, note) in enumerate(zip(values, speeds, notes)):
                if not isinstance(speed, TimeSignal) and not math.isfinite(speed):
                    raise ConfigError(f"edge {i} has no finite speed bound for C2: {note}")
                if not math.isfinite(value):
                    raise ConfigError(f"edge {i} has no finite bound on |H| for C2: got {value}")
            sigs = [on_horizon(s, self.horizon) for s in speeds]
            i = max(range(self.n_edges), key=lambda k: sigs[k].max())
            self._cfl[key] = (sigs[i].max(), f"{notes[i]} on edge {i}", upper_envelope(sigs))
        return self._cfl[key]

    def coefficient_signals(self) -> list[TimeSignal]:
        sigs = [self.flux_limiter]
        for e in self.edges:
            sigs.extend(e.hamiltonian.time_data.values())
        return sigs


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
    the left half-line is read off as u(x) = U_1(-x). u0 is the whole-line
    datum, or the two edge-local data (grid.edge_data).
    """
    return JunctionProblem(
        edges=[Edge(h_right, lengths[0]), Edge(reflected(h_left), lengths[1])],
        flux_limiter=flux_limiter,
        initial_data=edge_data(u0, 2, line=True),
        lipschitz_u0=lipschitz_u0,
        horizon=horizon,
        line_convention=True,
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
    if _off_horizon(A.horizon, horizon):
        raise ValueError("junction cost signal horizon must match the horizon")
    hams = [induced_hamiltonian(cs, i) for i in range(len(cs.edges))]
    if cs.orientation == "line":
        return from_line(hams[0], hams[1], A, u0, lipschitz_u0, horizon)
    return JunctionProblem(
        edges=[Edge(h) for h in hams],
        flux_limiter=A,
        initial_data=edge_data(u0, len(hams), line=False),
        lipschitz_u0=lipschitz_u0,
        horizon=horizon,
    )


@dataclass
class ValidationItem:
    name: str
    passed: bool
    detail: str = ""

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


# validate's sampling: the horizon's uniform cells added to the coefficient mesh, the
# positions on [0, min(length, 2)] at which each initial datum's slopes are measured,
# and the seed of a black box's convexity probe
_VALIDATION_CELLS = 32
_U0_SAMPLES = 256
_VALIDATION_SEED = 20


def _validation_times(problem: JunctionProblem) -> np.ndarray:
    """Cell midpoints of the breakpoint union mesh refined by _VALIDATION_CELLS uniform cells."""
    mesh = union_mesh(problem.coefficient_signals())
    uniform = np.linspace(0.0, problem.horizon, _VALIDATION_CELLS + 1)
    # np.unique's values by sort and an exact-duplicate filter: the commands that march
    # run this, and np.unique's first call imports numpy.ma (about 14 ms and 0.6 MB)
    knots = np.sort(np.concatenate([mesh, uniform]))
    knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
    return _midpoints(knots)


def check_floor(problem: JunctionProblem) -> float:
    """The worst deficit floor(t) - A(t) at _validation_times, or 0.0 where A stays above.

    Raises FluxLimiterBelowFloor, naming the first time of the worst
    deficit, when it exceeds 1e-9. Each edge's minimum is read off its
    problem's EnvelopePair, whose h_min is argmin_p's bit for bit: a closed
    form at all the times in one call (its coefficients are read as arrays,
    or not at all when the pair was frozen at construction), any other edge,
    a callable control edge's table among them, one time at a time.
    """
    times = _validation_times(problem)
    floor = np.full(times.size, -np.inf)
    for env in map(problem.envelope, range(problem.n_edges)):
        mins = (env.h_min(times, 0.0) if env.h.form is not None
                else [env.h_min(float(t), 0.0) for t in times])
        floor = np.maximum(floor, mins)
    deficit = floor - problem.flux_limiter(times)
    n = int(np.argmax(deficit))
    if deficit[n] > 1e-9:
        raise FluxLimiterBelowFloor(float(times[n]), float(deficit[n]))
    return max(0.0, float(deficit[n]))


def validate(problem: JunctionProblem) -> ValidationReport:
    """Check the standing assumptions on sampled points.

    A(t) is compared with the junction floor at _validation_times, each
    datum's slopes are measured on _U0_SAMPLES positions, and
    _VALIDATION_SEED drives the randomized convexity probe (check_convexity)
    of every edge that is not convex by construction
    (Hamiltonian.convex_by_construction): a black box. Closed forms and control edges pass unprobed. Raises
    FluxLimiterBelowFloor (hard failure, check_floor) when A(t) dips below
    the junction floor beyond 1e-9; every other check is reported soft. The
    last item, cfl_speed, always passes: it reports C2 and where it comes from.
    """
    report = ValidationReport()
    report.items.append(ValidationItem(
        "flux_limiter_floor", True, f"worst deficit {check_floor(problem):.2e}"))

    span = min([min(e.length, 2.0) for e in problem.edges])
    ys = np.linspace(0.0, span, _U0_SAMPLES)
    worst_q = 0.0
    for u0 in problem.initial_data:
        vals = np.array([u0(float(y)) for y in ys])
        quot = np.abs(np.diff(vals)) / np.diff(ys)
        worst_q = max(worst_q, float(quot[int(np.argmax(quot))]))
    ok = worst_q <= problem.lipschitz_u0 * (1.0 + 1e-6) + 1e-12
    report.items.append(ValidationItem(
        "initial_datum_lipschitz", ok,
        f"measured {worst_q:.6g} vs declared {problem.lipschitz_u0:.6g}"))

    for i, e in enumerate(problem.edges):
        try:
            if not e.hamiltonian.convex_by_construction:
                check_convexity(e.hamiltonian, n_checks=200, seed=_VALIDATION_SEED)
            report.items.append(ValidationItem(f"edge{i}_convexity", True))
        except ConvexityError as exc:
            report.items.append(ValidationItem(
                f"edge{i}_convexity", False, str(exc)))

    try:  # informational: the C2 that sizes the time steps, and its source
        c2, source = problem.cfl_speed()
        detail = f"C2 = {c2:.6g} from {source}"
    except (ConfigError, ValueError) as exc:
        detail = str(exc)
    report.items.append(ValidationItem("cfl_speed", True, detail))
    return report


# ---------------------------------------------------------------------------
# JSON config support

_REQUIRED = object()
_KIND_NAMES = {float: "a finite number", int: "an integer", dict: "an object", list: "a list"}


def _as(v, kind, name: str):
    """v read as kind (see entry), or a ConfigError naming the entry."""
    if kind in (float, int):
        try:
            x = kind(v)
            if math.isfinite(x) and not isinstance(v, bool):  # float(True) is 1.0
                return x
        except (TypeError, ValueError, OverflowError):
            pass
    elif isinstance(kind, tuple):
        if v in kind:
            return v
    elif kind is object or isinstance(v, kind):
        return v
    want = ("one of " + ", ".join(map(repr, kind)) if isinstance(kind, tuple)
            else _KIND_NAMES[kind])
    raise ConfigError(f"{name}: expected {want}, got {v!r}")


def entry(d, key: str, what: str, kind, default=_REQUIRED):
    """The entry d[key] read as kind; what names d ("" for the problem file).

    kind is float or int (converted as float() and int() convert, and
    finite; a boolean is not a number), dict, list, object (any value) or a tuple of the allowed
    values. A missing key gives default, and so does a null where the
    default is None (null then means "none"). A ConfigError names the entry
    ("edge 0 controls n": the path of keys, a list item named by its block)
    when d is not an object, a required key is missing, or the value is not
    of its kind.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{what or 'problem file'}: expected an object, got {d!r}")
    if key not in d or (d[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"{what or 'problem file'}: missing {key!r}")
        return default
    return _as(d[key], kind, f"{what} {key}" if what else key)


def coeff_from_config(v, horizon: float, name: str):
    """A scalar-or-signal entry: a float, or a TimeSignal on [0, horizon].

    A step signal is {"breakpoints": [...], "values": [...]}. A malformed
    signal, a value that is not a number (a boolean among them) or a
    signal whose horizon is not horizon raises ConfigError naming the entry
    name.
    """
    if not isinstance(v, dict):
        return _as(v, float, name)
    for key in ("breakpoints", "values"):
        if any(isinstance(x, bool) for x in entry(v, key, name, list)):
            raise ConfigError(f"{name}: expected numbers in {key}, got {v[key]!r}")
    try:
        sig = TimeSignal.from_dict(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: bad step signal {v!r}: {exc}") from exc
    if _off_horizon(sig.horizon, horizon):
        raise ConfigError(f"{name}: signal horizon {sig.horizon} != {horizon}")
    return sig


def _signal_from_config(v, horizon: float, name: str) -> TimeSignal:
    """coeff_from_config, with a scalar made a constant signal."""
    c = coeff_from_config(v, horizon, name)
    return c if isinstance(c, TimeSignal) else constant(c, horizon)


def initial_datum_from_config(d: dict, what: str = "u0"
                              ) -> tuple[Callable[[float], float], float]:
    """Named initial-datum forms; returns (function, Lipschitz constant)."""
    form = entry(d, "form", what, ("zero", "constant", "affine", "abs", "min_const_abs"))
    what = f"{what} {form}"
    if form == "zero":
        return (lambda x: 0.0), 0.0
    if form == "constant":
        c = entry(d, "c", what, float, 0.0)
        return (lambda x: c), 0.0
    if form == "affine":
        a = entry(d, "slope", what, float, 1.0)
        b = entry(d, "offset", what, float, 0.0)
        return (lambda x: a * x + b), abs(a)
    if form == "abs":
        s = entry(d, "scale", what, float, 1.0)
        return (lambda x: s * abs(x)), abs(s)
    c = entry(d, "c", what, float, 1.0)  # min_const_abs
    return (lambda x: min(c, abs(x))), 1.0


def hamiltonian_from_config(d: dict, horizon: float, what: str = "hamiltonian") -> Hamiltonian:
    """Build a catalog Hamiltonian from a JSON-style dict."""
    form = entry(d, "form", what, ("eikonal", "abs_shift", "quadratic", "control_induced"))

    def coeff(name):
        return coeff_from_config(entry(d, name, what, object), horizon, f"coefficient {name!r}")

    if form == "eikonal":
        return eikonal()
    if form == "abs_shift":
        return abs_shift(coeff("c"))
    if form == "quadratic":
        p_span = entry(d, "p_span", what, float, None)
        return quadratic(coeff("a"), coeff("b"), coeff("c"), p_span=None if p_span is None
                         else _positive_finite(f"{what} p_span", p_span))
    raise ConfigError(
        "control_induced Hamiltonians are built from the control_system "
        "block, not from an edge entry")


def control_system_from_config(d: dict, horizon: float) -> ControlSystem:
    """Parse the 'control_system' block of a problem file.

    Each edge is sampled at the n points its controls entry gives (_CONTROL_COUNT by
    default).
    """
    edge_cfgs = entry(d, "edges", "control_system", list)
    junction = entry(d, "junction", "control_system", dict)
    if len(edge_cfgs) < 2:
        raise ConfigError("control_system needs at least two edges")

    def form(e: dict, what: str, key: str) -> ControlForm:
        sub, what = entry(e, key, what, dict, {}), f"{what} {key}"
        return ControlForm(*(coeff_from_config(entry(sub, c, what, object, 0.0), horizon,
                                               f"{what} {c}") for c in ("c0", "c1", "c2")))

    edges = []
    for k, e in enumerate(edge_cfgs):
        ctr = entry(e, "controls", f"edge {k}", dict)
        lo, hi = (entry(ctr, b, f"edge {k} controls", float) for b in ("min", "max"))
        n = entry(ctr, "n", f"edge {k} controls", int, _CONTROL_COUNT)
        edges.append(control_edge(form(e, f"edge {k}", "f"), form(e, f"edge {k}", "l"),
                                  lo, hi, n))

    return ControlSystem(
        edges=edges,
        l0=_signal_from_config(entry(junction, "l0", "junction", object, 0.0), horizon,
                               "junction l0"),
        A0=entry(junction, "A0", "junction", float),
        delta=entry(d, "delta", "control_system", float, 1.0),
        orientation=entry(d, "orientation", "control_system", ("line", "star"), "line"),
    )


def problem_from_config(cfg: dict) -> tuple[JunctionProblem, ControlSystem | None]:
    """Build (problem, optional control system) from a parsed problem file.

    A file describes one problem: its edge Hamiltonians are either given
    explicitly (edges, catalog forms, with a flux_limiter) or induced from
    the control_system block, never both. So a file with control_system
    may not give edges or flux_limiter, and its top-level orientation, if
    any, must be the block's. The induced problem and the control system
    share the block's control samples.
    """
    horizon = entry(cfg, "T", "", float)
    if not horizon > _EDGE_TOL:  # the breakpoints of a shorter one merge into one
        raise ConfigError(f"T: expected a number above the breakpoint tolerance {_EDGE_TOL:g}, "
                          f"got {horizon!r}")
    orientation = entry(cfg, "orientation", "", ("line", "star"), None)
    block = entry(cfg, "control_system", "", dict, None)
    u0_cfg = entry(cfg, "u0", "", object, {"form": "zero"})

    if block is not None:
        for key in ("edges", "flux_limiter"):
            if cfg.get(key) is not None:
                raise ConfigError(f"{key} and control_system: a problem file gives either "
                                  f"edges with a flux_limiter or a control_system")
        cs = control_system_from_config(block, horizon)
        if orientation not in (None, cs.orientation):
            raise ConfigError(f"orientation {orientation!r} and control_system orientation "
                              f"{cs.orientation!r} disagree")
        u0, lip = initial_datum_from_config(u0_cfg)
        return induced_problem(cs, u0, entry(cfg, "lipschitz_u0", "", float, lip),
                               horizon), cs

    edge_cfgs = entry(cfg, "edges", "", list, None)
    if edge_cfgs is None:
        raise ConfigError("problem file needs either 'edges' or a 'control_system' block")
    if len(edge_cfgs) < 2:
        raise ConfigError("'edges' must list at least two edges")
    hams, lengths = [], []
    for k, e in enumerate(edge_cfgs):
        hams.append(hamiltonian_from_config(entry(e, "hamiltonian", f"edge {k}", dict),
                                            horizon, f"edge {k} hamiltonian"))
        ln = entry(e, "length", f"edge {k}", float, None)
        lengths.append(math.inf if ln is None else ln)
    A = _signal_from_config(entry(cfg, "flux_limiter", "", object), horizon, "flux_limiter")
    if orientation != "star":
        if len(hams) != 2:
            raise ConfigError("line orientation needs exactly two edges")
        u0, lip = initial_datum_from_config(u0_cfg)
        problem = from_line(hams[0], hams[1], A, u0,
                            entry(cfg, "lipschitz_u0", "", float, lip), horizon,
                            lengths=(lengths[0], lengths[1]))
    else:
        if isinstance(u0_cfg, list):
            parsed = [initial_datum_from_config(u, f"u0 {k}") for k, u in enumerate(u0_cfg)]
        else:
            parsed = [initial_datum_from_config(u0_cfg)] * len(hams)
        problem = JunctionProblem(
            edges=[Edge(h, ln) for h, ln in zip(hams, lengths)],
            flux_limiter=A,
            initial_data=[p[0] for p in parsed],
            lipschitz_u0=entry(cfg, "lipschitz_u0", "", float, max(p[1] for p in parsed)),
            horizon=horizon,
        )
    return problem, None
