"""Space-time grids on a star junction and solver output fields.

The junction node is shared by all edges and stored once: flat node index 0
is the junction, followed by each edge's interior nodes in order. Two-edge
line problems are presented to the outside in whole-line coordinates
(x < 0 is edge 1 mirrored); stars label the junction "0:0" and each edge
node "<i>:<y>", i the 1-based edge number and y its distance from the
junction as fmt formats it ("1:0.25").

Both routes march as one stream of levels (_levels): a start level, then
one update per window, each level checked for a non-finite value as it is
made, so a diverging march stops at its first bad level. A SolutionField
holds the levels, or the march that makes them when it is read, and its
passes go one level at a time: its scalar passes over the array it keeps
once marched, its streams (levels, csv_chunks) over a fresh march until then.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CflViolation, ConfigError, NumericalFailure
from .time_signal import TimeSignal, constant, upper_envelope

__all__ = ["Grid", "SolutionField", "make_grid"]


# The share of dx that make_grid gives each window's integral of C2, and the relative
# slack of every check of a window against dx: check_cfl, the scheme's slope check and
# ControlEdge.window_lines.
_CFL_SAFETY = 0.5
_CFL_SLACK = 1.0 + 1e-9


def fmt(v: float) -> str:
    """17 significant digits, enough to round-trip a double."""
    return f"{float(v):.17g}"


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write via a temp file + rename so readers never see partial output.

    text is a str, or an iterable of str chunks, each written into the temp
    file as it is produced; if producing or writing one raises, the temp
    file is removed and nothing is renamed into place. The file is created
    with mode 0o666 less the umask, as open(path, "w") would create it.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Grid:
    """Uniform spatial mesh per edge plus the time levels 0 = times[0] < ... < times[-1] = T.

    The time steps np.diff(times) may differ (see make_grid); dt is the
    largest. make_grid builds them within the CFL bound, and the scheme
    checks every window against it.
    """

    dx: float
    dt: float
    horizon: float
    edge_radii: tuple
    times: np.ndarray
    n_nodes: int = field(init=False, repr=False, compare=False)
    _indices: tuple = field(init=False, repr=False, compare=False)
    _ys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Per-edge node coordinates (edge_nodes) and indices, read-only: every step reads them.
        ys = edge_nodes(self.dx, self.edge_radii)
        sizes = [len(y) - 1 for y in ys]
        starts = np.cumsum([1] + sizes[:-1])
        indices = tuple(np.concatenate(([0], np.arange(s, s + m))) for s, m in zip(starts, sizes))
        for arr in indices + ys:
            arr.setflags(write=False)
        object.__setattr__(self, "n_nodes", 1 + sum(sizes))
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_ys", ys)

    @property
    def n_edges(self) -> int:
        return len(self.edge_radii)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def edge_y(self, i: int) -> np.ndarray:
        return self._ys[i]

    def edge_full_indices(self, i: int) -> np.ndarray:
        return self._indices[i]

    def sample(self, data: Sequence[Callable[[float], float]]) -> np.ndarray:
        """Node values of one datum per edge (edge-local y); edge 0's sets the junction."""
        u = np.empty(self.n_nodes)
        u[0] = float(data[0](0.0))
        for i in range(self.n_edges):
            u[self._indices[i][1:]] = [data[i](float(y)) for y in self._ys[i][1:]]
        return u

    def line_flat_indices(self) -> np.ndarray:
        if self.n_edges != 2:
            raise ValueError("whole-line layout needs exactly two edges")
        left = self.edge_full_indices(1)[::-1]
        right = self.edge_full_indices(0)[1:]
        return np.concatenate((left, right))

    def line_x(self) -> np.ndarray:
        if self.n_edges != 2:
            raise ValueError("whole-line layout needs exactly two edges")
        return np.concatenate((-self.edge_y(1)[::-1], self.edge_y(0)[1:]))

    def level_index(self, t: float) -> int:
        """Nearest grid level to a requested report time."""
        return int(np.argmin(np.abs(self.times - t)))

    def compatible(self, other: "Grid") -> bool:
        return (list(map(len, self._ys)) == list(map(len, other._ys))
                and abs(self.dx - other.dx) < 1e-12
                and len(self.times) == len(other.times)
                and bool(np.all(np.abs(self.times - other.times) < 1e-12)))


def _positive_finite(name: str, value: float, zero_ok: bool = False) -> float:
    """value as a float; a ConfigError naming it unless finite and > 0 (>= 0 with zero_ok)."""
    if not (0.0 <= value if zero_ok else 0.0 < value) or not value < math.inf:  # NaN fails both
        raise ConfigError(f"{name}: expected a {'non-negative' if zero_ok else 'positive'} "
                          f"finite number, got {value!r}")
    return float(value)


def _finite(name: str, values) -> np.ndarray:
    """values as a float array; a ConfigError naming them and the first that is not finite.

    A TimeSignal gives its values, which it has checked already.
    """
    arr = np.asarray(values.values if isinstance(values, TimeSignal) else values, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ConfigError(f"{name}: expected {'finite numbers' if arr.ndim else 'a finite number'}, "
                          f"got {float(bad[0])!r}")
    return arr


def edge_data(u0, n_edges: int, line: bool) -> list:
    """One initial datum per edge, in edge-local y, from u0.

    u0 is a per-edge list, taken as it is; or one function, which on a line
    (line=True, two edges) is the whole-line datum, read as u0(y) on edge 0
    and u0(-y) on edge 1, and on a star serves every edge.
    """
    if isinstance(u0, (list, tuple)):
        if len(u0) != n_edges:
            raise ValueError("one initial datum per edge required")
        return list(u0)
    if line:
        return [lambda y: float(u0(y)), lambda y: float(u0(-y))]
    return [u0] * n_edges


def edge_nodes(dx: float, radii: Sequence[float]) -> tuple:
    """Each edge's node coordinates 0, dx, ..., m dx, with m = round(r / dx) >= 1.

    A grid built by make_grid from dx and radii has these nodes (edge_y).
    Every route computes its nodes here first, so this is where a dx or an
    edge radius that is not positive and finite is refused, and so is an
    r / dx that exceeds np.intp's maximum (ConfigError naming dx, the
    radius or r / dx). A radius below dx still gives one cell.
    """
    dx = _positive_finite("dx", dx)
    counts = [_indexable(_positive_finite("edge radius", r) / dx, "an edge",
                         f"nodes at dx = {dx:.6g}") for r in radii]
    return tuple(np.arange(max(1, int(round(m))) + 1) * dx for m in counts)


def _indexable(n: float, who: str, what: str) -> float:
    """n; ConfigError "<who> needs <n> <what>, more than <np.intp's maximum> can be indexed"
    when n is not finite or exceeds np.intp's maximum."""
    if not n <= np.iinfo(np.intp).max:  # NaN fails too
        raise ConfigError(f"{who} needs {n:.6g} {what}, "
                          f"more than {np.iinfo(np.intp).max} can be indexed")
    return n


def _step_count(n: float, speed: TimeSignal) -> int:
    """max(1, ceil(n)); ConfigError naming n and C2 when n is not finite or exceeds np.intp."""
    return max(1, math.ceil(_indexable(n, "the grid", f"time steps at C2 = {speed.max():.6g}")))


def make_grid(dx: float, horizon: float, radii: Sequence[float], c2) -> Grid:
    """Build a grid whose windows each hold an integral of C2 of at most _CFL_SAFETY * dx.

    c2 bounds |dH_i/dp| over the slopes the scheme reaches: a float, or a
    TimeSignal C2(t) on [0, horizon] (JunctionProblem.speed_signal, or
    ControlSystem.speed_signal for the value function). With Phi(t) the
    integral of C2 over [0, t], the levels split [0, T] into
    N = ceil(Phi(T) / (_CFL_SAFETY dx)) windows of equal Phi, and dt is the
    largest step; a constant C2 gives N equal steps of dt = T / N. This is
    the only step policy: the steps are computed from C2 and the constant
    share, never declared.
    dx and T must be positive and finite, and so must the step count N,
    which may not exceed np.intp's maximum, else ConfigError naming N and C2.
    """
    horizon = _positive_finite("T", horizon)
    if not radii:
        raise ConfigError("need at least one edge radius")
    # at least 1e-12; a signal on another horizon raises HorizonMismatch
    speed = upper_envelope([c2 if isinstance(c2, TimeSignal) else constant(c2, horizon),
                            constant(1e-12, horizon)])
    radii_eff = [float(ys[-1]) for ys in edge_nodes(dx, radii)]
    if speed.min() < speed.max():
        phi = speed.running_integrals(speed.breakpoints)
        n = _step_count(phi[-1] / (_CFL_SAFETY * dx) - 1e-12, speed)
        times = np.interp(np.arange(n + 1) * (phi[-1] / n), phi, speed.breakpoints)
        times[-1] = horizon
        dt = np.diff(times).max()
    else:
        n = _step_count(horizon / (_CFL_SAFETY * (dx / speed.max())) - 1e-12, speed)
        dt = horizon / n
        times = np.linspace(0.0, horizon, n + 1)
    return Grid(dx=float(dx), dt=float(dt), horizon=float(horizon),
                edge_radii=tuple(radii_eff), times=np.asarray(times))


def check_cfl(grid: Grid, c2: TimeSignal, source: str, times: np.ndarray) -> None:
    """Raise CflViolation when c2 integrates above dx over a window of times.

    The one check of a march's windows, on both routes: times is grid.times
    or a window of it. One array pass; the message names the window with the
    largest integral by its level, its step and its mean C2, and says where
    c2 comes from.
    """
    work = c2.window_integrals(times)
    n = int(np.argmax(work))
    if work[n] > grid.dx * _CFL_SLACK:
        dt = float(times[n + 1] - times[n])
        raise CflViolation(f"dt={dt:.6g} exceeds dx/C2={grid.dx * dt / work[n]:.6g} at "
                           f"level {grid.level_index(times[n])} (C2 from {source})")


def _max_abs(rows: Iterable[np.ndarray]) -> float:
    """np.max(np.abs(rows)) taken one row at a time: the same bits, NaN included.

    A pass over a finished field folds its levels this way, so it holds
    one level's temporaries, never a (levels x nodes) one.
    """
    return float(np.max([np.abs(row).max() for row in rows]))


def _check_level(level: np.ndarray, n: int) -> None:
    """NumericalFailure naming the first non-finite value of level n in row-major order.

    level is one level (nodes,) or a batch of them (problems, nodes); the
    message names the node only.
    """
    finite = np.isfinite(level)
    if not finite.all():
        raise NumericalFailure(f"non-finite value at level {n}, node {np.argwhere(~finite)[0][-1]}")


def _levels(grid: Grid, start: np.ndarray, update: Callable) -> Iterator[np.ndarray]:
    """A march on grid as a stream: start (level 0), then update(level, n) for each window n.

    Every level is checked as it is made (_check_level), so a march stops
    at its first non-finite value. Both routes march this way: the scheme
    with its Euler update of a batch, the value function with its Bellman
    update.
    """
    _check_level(start, 0)
    yield start
    for n in range(grid.steps):
        start = update(start, n)
        _check_level(start, n + 1)
        yield start


class SolutionField:
    """Node values at every time level on a Grid.

    values is the (levels x nodes) array, or a zero-argument callable that
    returns a fresh stream of the levels (_levels): a field that marches
    when it is read. values marches once and keeps the array; sup_norm,
    linf_gap and check_finite read it, so they march at most once between
    them. levels() and csv_chunks (so to_csv) yield the stored rows, or,
    until values has been read, march afresh at each call and hold one
    level at a time. Each pass allocates no (levels x nodes) temporary. A
    march's own failure (a non-finite level, say) is raised by the read that
    reaches it.
    """

    def __init__(self, grid: Grid, values: np.ndarray | Callable[[], Iterator[np.ndarray]],
                 line: bool):
        self.grid = grid
        self.line = bool(line)
        self._march, self._values = None, None
        if callable(values):
            self._march = values
        else:
            self._values = np.asarray(values, dtype=float)
            if self._values.shape != (grid.steps + 1, grid.n_nodes):
                raise ValueError("values shape does not match the grid")

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            values = np.empty((self.grid.steps + 1, self.grid.n_nodes))
            for n, level in enumerate(self._march()):
                values[n] = level
            self._values = values
        return self._values

    def levels(self) -> Iterator[np.ndarray]:
        """The levels in time order: the stored rows, or a fresh march."""
        return iter(self._values) if self._values is not None else self._march()

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def sup_norm(self) -> float:
        return _max_abs(self.values)

    def check_finite(self) -> None:
        """NumericalFailure naming the first non-finite value in row-major order."""
        for n, row in enumerate(self.values):
            _check_level(row, n)

    def linf_gap(self, other: "SolutionField") -> float:
        if not self.grid.compatible(other.grid):
            raise ConfigError("mismatched grids")
        return _max_abs(a - b for a, b in zip(self.values, other.values))

    def node_labels(self) -> list:
        """Whole-line x as fmt strings, or for stars "0:0" then "<i>:<y>" (i from 1, y by fmt)."""
        if self.line:
            return [fmt(x) for x in self.grid.line_x()]
        labels = ["0:0"]
        for i in range(self.grid.n_edges):
            for y in self.grid.edge_y(i)[1:]:
                labels.append(f"{i + 1}:{fmt(y)}")
        return labels

    def _node_order(self) -> np.ndarray:
        if self.line:
            return self.grid.line_flat_indices()
        return np.arange(self.grid.n_nodes)

    def _template(self, row: str) -> str:
        """%-template of one level's rows in node order: row.format(label) per node.

        Rows format values as %.17g, which gives the same bytes as fmt().
        """
        return "".join(row.format(lab.replace("%", "%%")) for lab in self.node_labels())

    def csv_chunks(self) -> Iterator[str]:
        """field.csv's text: the header t,x,u, then one chunk of rows per level."""
        order = self._node_order()
        tmpl = self._template("%s,{},%.17g\n")
        args = [None] * (2 * len(order))
        yield "t,x,u\n"
        for t, level in zip(self.times, self.levels()):
            args[0::2] = [fmt(t)] * len(order)
            args[1::2] = level[order].tolist()
            yield tmpl % tuple(args)

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())

    def to_snapshot_tsv(self, t_requested: float) -> str:
        return self._snapshot_tsv(t_requested, self.values[self.grid.level_index(t_requested)])

    def _snapshot_tsv(self, t_requested: float, level: np.ndarray) -> str:
        """snapshot_k.tsv's text for t_requested; level is the grid level nearest to it."""
        t_grid = self.times[self.grid.level_index(t_requested)]
        return (f"# t_requested={fmt(t_requested)}\tt_grid={fmt(t_grid)}\nx\tu\n"
                + self._template("{}\t%.17g\n") % tuple(level[self._node_order()].tolist()))
