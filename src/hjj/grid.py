"""Space-time grids on a star junction and solver output fields.

The junction node is shared by all edges and stored once: flat node index 0
is the junction, followed by each edge's interior nodes in order. Two-edge
line problems are presented to the outside in whole-line coordinates
(x < 0 is edge 1 mirrored); stars use "edge:distance" node labels.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import CflViolation, ConfigError

__all__ = ["Grid", "SolutionField", "make_grid", "edge_nodes", "fmt", "atomic_write_text"]


def fmt(v: float) -> str:
    """17 significant digits, enough to round-trip a double."""
    return f"{float(v):.17g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Grid:
    """Uniform spatial mesh per edge plus the time levels.

    The last time increment may be shorter than dt so the final level lands
    exactly on the horizon. CFL admissibility (dt <= dx / C2) is enforced at
    construction.
    """

    dx: float
    dt: float
    horizon: float
    edge_radii: tuple
    times: np.ndarray
    _indices: tuple = field(init=False, repr=False, compare=False)
    _ys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Per-edge node indices and coordinates, read-only: every step reads them.
        sizes = self.edge_sizes()
        starts = np.cumsum((1,) + sizes[:-1])
        indices = tuple(np.concatenate(([0], np.arange(s, s + m))) for s, m in zip(starts, sizes))
        ys = tuple(np.arange(m + 1) * self.dx for m in sizes)
        for arr in indices + ys:
            arr.setflags(write=False)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_ys", ys)

    @property
    def n_edges(self) -> int:
        return len(self.edge_radii)

    def edge_sizes(self) -> tuple:
        return tuple(int(round(r / self.dx)) for r in self.edge_radii)

    @property
    def n_nodes(self) -> int:
        return 1 + sum(self.edge_sizes())

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
        return (self.edge_sizes() == other.edge_sizes()
                and abs(self.dx - other.dx) < 1e-12
                and len(self.times) == len(other.times)
                and bool(np.all(np.abs(self.times - other.times) < 1e-12)))


def _positive_finite(name: str, value: float, zero_ok: bool = False) -> float:
    """value as a float; a ConfigError naming it unless finite and > 0 (>= 0 with zero_ok)."""
    if not (0.0 <= value if zero_ok else 0.0 < value) or not value < math.inf:  # NaN fails both
        raise ConfigError(f"{name}: expected a {'non-negative' if zero_ok else 'positive'} "
                          f"finite number, got {value!r}")
    return float(value)


def edge_nodes(dx: float, radii: Sequence[float]) -> tuple:
    """Each edge's node coordinates 0, dx, ..., m dx, with m = round(r / dx) >= 1.

    A grid built by make_grid from dx and radii has these nodes (edge_y).
    Every route computes its nodes here first, so this is where a dx that
    is not positive and finite is refused.
    """
    dx = _positive_finite("dx", dx)
    return tuple(np.arange(max(1, int(round(r / dx))) + 1) * dx for r in radii)


def make_grid(
    dx: float,
    horizon: float,
    radii: Sequence[float],
    c2: float,
    dt: float | None = None,
    cfl_safety: float = 0.5,
) -> Grid:
    """Build a grid; dt defaults to cfl_safety * dx / C2 rounded to fit T.

    C2 bounds |dH_i/dp| over the slopes the scheme reaches
    (JunctionProblem.cfl_speed). An explicitly requested dt that violates
    dt <= dx / C2 raises CflViolation (numerical-failure class, not a
    config error). dx and dt must be positive and finite.
    """
    if horizon <= 0:
        raise ConfigError("T must be positive")
    if not radii:
        raise ConfigError("need at least one edge radius")
    if not (0 < cfl_safety <= 1.0):
        raise ConfigError("cfl safety factor must lie in (0, 1]")
    c2 = max(float(c2), 1e-12)
    radii_eff = [float(ys[-1]) for ys in edge_nodes(dx, radii)]
    cfl_limit = dx / c2
    if dt is None:
        target = cfl_safety * cfl_limit
        n = max(1, int(math.ceil(horizon / target - 1e-12)))
        dt = horizon / n
        times = np.linspace(0.0, horizon, n + 1)
    else:
        dt = _positive_finite("dt", dt)
        if dt > cfl_limit * (1.0 + 1e-9):
            raise CflViolation(
                f"dt={dt:.6g} exceeds the CFL limit dx/C2={cfl_limit:.6g}")
        n = max(1, int(math.ceil(horizon / dt - 1e-9)))
        times = np.minimum(np.arange(n + 1) * dt, horizon)
        times[-1] = horizon
    return Grid(dx=float(dx), dt=float(dt), horizon=float(horizon),
                edge_radii=tuple(radii_eff), times=np.asarray(times))


class SolutionField:
    """Node values at every time level on a Grid."""

    def __init__(self, grid: Grid, values: np.ndarray, line: bool):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.steps + 1, grid.n_nodes):
            raise ValueError("values shape does not match the grid")
        self.grid = grid
        self.values = values
        self.line = bool(line)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def level(self, n: int) -> np.ndarray:
        return self.values[n]

    def edge_profile(self, n: int, i: int) -> np.ndarray:
        return self.values[n][self.grid.edge_full_indices(i)]

    def line_profile(self, n: int) -> np.ndarray:
        return self.values[n][self.grid.line_flat_indices()]

    def final(self) -> np.ndarray:
        return self.values[-1]

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.values)):
            from .errors import NumericalFailure
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise NumericalFailure(
                f"non-finite value at level {bad[0]}, node {bad[1]}")

    def linf_gap(self, other: "SolutionField") -> float:
        if not self.grid.compatible(other.grid):
            raise ConfigError("mismatched grids")
        return float(np.max(np.abs(self.values - other.values)))

    def node_labels(self) -> list:
        """Whole-line x floats, or 'edge:distance' strings for stars."""
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

    def to_csv(self) -> str:
        order = self._node_order()
        tmpl = self._template("%s,{},%.17g\n")
        args = [None] * (2 * len(order))
        parts = ["t,x,u\n"]
        for n, t in enumerate(self.times):
            args[0::2] = [fmt(t)] * len(order)
            args[1::2] = self.values[n][order].tolist()
            parts.append(tmpl % tuple(args))
        return "".join(parts)

    def to_snapshot_tsv(self, t_requested: float) -> str:
        n = self.grid.level_index(t_requested)
        level = self.values[n][self._node_order()]
        return (f"# t_requested={fmt(t_requested)}\tt_grid={fmt(self.times[n])}\nx\tu\n"
                + self._template("{}\t%.17g\n") % tuple(level.tolist()))
